//===- tests/SpecDeduceTest.cpp - Specs, α and DEDUCE --------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the abstraction function (Appendix A Example 13), the DEDUCE
/// procedure on the paper's worked Examples 10 and 12, and the key
/// *spec-soundness* property: every concrete component application
/// satisfies its own Spec 1 and Spec 2 formulas — the invariant the whole
/// pruning approach rests on.
///
//===----------------------------------------------------------------------===//

#include "interp/Components.h"
#include "smt/Deduce.h"
#include "suite/Task.h"

#include <gtest/gtest.h>

#include <random>

using namespace morpheus;
using namespace morpheus::pb;

namespace {

Table paperExample1Input() {
  return makeTable({{"id", CellType::Num},
                    {"year", CellType::Num},
                    {"A", CellType::Num},
                    {"B", CellType::Num}},
                   {{num(1), num(2007), num(5), num(10)},
                    {num(2), num(2009), num(3), num(50)},
                    {num(1), num(2007), num(5), num(17)},
                    {num(2), num(2009), num(6), num(17)}});
}

Table paperExample1Output() {
  return makeTable({{"id", CellType::Num},
                    {"A_2007", CellType::Num},
                    {"B_2007", CellType::Num},
                    {"A_2009", CellType::Num},
                    {"B_2009", CellType::Num}},
                   {{num(1), num(5), num(10), num(5), num(17)},
                    {num(2), num(3), num(50), num(6), num(17)}});
}

/// A component that only carries a spec: hand-written formulas, some of
/// them outside the native fragment, attach to it.
class SpecOnly final : public TableTransformer {
public:
  SpecOnly(std::string Name, unsigned NumTableArgs, SpecFormula S1,
           SpecFormula S2, std::vector<ParamKind> ValueParams = {})
      : TableTransformer(std::move(Name), NumTableArgs,
                         std::move(ValueParams)) {
    setSpec(SpecLevel::Spec1, std::move(S1));
    setSpec(SpecLevel::Spec2, std::move(S2));
  }
  std::optional<Table> apply(const std::vector<Table> &,
                             const std::vector<TermPtr> &) const override {
    return std::nullopt;
  }
};

/// Appendix A, Example 13: the abstraction of the Example 1 output has
/// newCols = newVals = 4 against the input's base sets.
TEST(Abstraction, PaperExample13) {
  Table In = paperExample1Input();
  Table Out = paperExample1Output();
  ExampleBase Base = ExampleBase::fromInputs({In});
  AttrValues InA = abstractTable(In, Base);
  EXPECT_EQ(InA.NewCols, 0);
  EXPECT_EQ(InA.NewVals, 0);
  EXPECT_EQ(InA.Row, 4);
  EXPECT_EQ(InA.Col, 4);
  AttrValues OutA = abstractTable(Out, Base);
  EXPECT_EQ(OutA.NewCols, 4);
  EXPECT_EQ(OutA.NewVals, 4);
  EXPECT_EQ(OutA.Row, 2);
  EXPECT_EQ(OutA.Col, 5);
}

/// Appendix A, Example 13 continued: the hypothesis spread(x0, ?, ?) is
/// satisfiable under Spec 1 but refuted under Spec 2 (the four new column
/// names cannot come from a table with no new values).
TEST(Deduce, PaperExample13SpreadRefutation) {
  Table In = paperExample1Input();
  Table Out = paperExample1Output();
  const TableTransformer *Spread = StandardComponents::get().find("spread");
  HypPtr H = Hypothesis::apply(
      Spread, {Hypothesis::input(0), Hypothesis::valueHole(ParamKind::ColName),
               Hypothesis::valueHole(ParamKind::ColName)});
  DeductionEngine E({In}, Out);
  EXPECT_TRUE(E.deduce(H, SpecLevel::Spec1, true));
  EXPECT_FALSE(E.deduce(H, SpecLevel::Spec2, true));
}

/// Example 10: π(σ(x1)) cannot produce an output with as many columns as
/// the input, because select strictly drops columns.
TEST(Deduce, PaperExample10) {
  Table In = makeTable({{"id", CellType::Num},
                        {"name", CellType::Str},
                        {"age", CellType::Num},
                        {"GPA", CellType::Num}},
                       {{num(1), str("Alice"), num(8), num(4.0)},
                        {num(2), str("Bob"), num(18), num(3.2)},
                        {num(3), str("Tom"), num(12), num(3.0)}});
  // Output with the same number of columns as the input (Fig. 8's T2).
  Table Out(In.schema(), {In.row(1), In.row(2)});
  const TableTransformer *Select = StandardComponents::get().find("select");
  const TableTransformer *Filter = StandardComponents::get().find("filter");
  HypPtr Sigma = Hypothesis::apply(
      Filter, {Hypothesis::input(0), Hypothesis::valueHole(ParamKind::Pred)});
  HypPtr Pi = Hypothesis::apply(
      Select, {Sigma, Hypothesis::valueHole(ParamKind::Cols)});
  DeductionEngine E({In}, Out);
  EXPECT_FALSE(E.deduce(Pi, SpecLevel::Spec1, true));
}

/// Example 12: after filling σ's predicate with age > 12, partial
/// evaluation makes the intermediate table concrete (1 row) and the sketch
/// is refuted without filling the projection hole.
TEST(Deduce, PaperExample12PartialEvaluation) {
  Table In = makeTable({{"id", CellType::Num},
                        {"name", CellType::Str},
                        {"age", CellType::Num},
                        {"GPA", CellType::Num}},
                       {{num(1), str("Alice"), num(8), num(4.0)},
                        {num(2), str("Bob"), num(18), num(3.2)},
                        {num(3), str("Tom"), num(12), num(3.0)}});
  // Figure 15's T3: two rows, three columns.
  Table Out = makeTable({{"id", CellType::Num},
                         {"name", CellType::Str},
                         {"age", CellType::Num}},
                        {{num(2), str("Bob"), num(18)},
                         {num(3), str("Tom"), num(12)}});
  const TableTransformer *Select = StandardComponents::get().find("select");
  HypPtr Sigma = filter(in(0), "age", ">", num(12)); // the wrong predicate
  HypPtr Pi = Hypothesis::apply(
      Select, {Sigma, Hypothesis::valueHole(ParamKind::Cols)});
  DeductionEngine E({In}, Out);
  // With partial evaluation the filled sketch is refuted...
  EXPECT_FALSE(E.deduce(Pi, SpecLevel::Spec1, true));
  // ...without it, the specs alone cannot reject it.
  EXPECT_TRUE(E.deduce(Pi, SpecLevel::Spec1, false));
}

/// DEDUCE is sound: it never refutes the ground truth of a suite task.
TEST(Deduce, NeverRefutesGroundTruth) {
  for (const BenchmarkTask &T : morpheusSuite()) {
    DeductionEngine E(T.Inputs, T.Output);
    EXPECT_TRUE(E.deduce(T.GroundTruth, SpecLevel::Spec1, true))
        << "Spec1 refuted " << T.Id;
    EXPECT_TRUE(E.deduce(T.GroundTruth, SpecLevel::Spec2, true))
        << "Spec2 refuted " << T.Id;
  }
}

/// Spec soundness: every node of every suite ground truth satisfies its
/// component's Spec 1 and Spec 2 when evaluated concretely — checked with
/// the direct (non-SMT) evaluator. Group atoms are skipped (the group
/// attribute is abstract; see spec/Abstraction.h).
class SpecSoundness : public ::testing::TestWithParam<size_t> {};

bool mentionsGroup(const SpecExpr &E) {
  if (E.K == SpecExpr::Kind::Const)
    return false;
  if (E.K == SpecExpr::Kind::Attr)
    return E.Attr == TableAttr::Group;
  return mentionsGroup(*E.Lhs) || mentionsGroup(*E.Rhs);
}

void checkNode(const HypPtr &H, const std::vector<Table> &Inputs,
               const ExampleBase &Base, SpecLevel Level,
               const std::string &TaskId) {
  if (!H->isApply())
    return;
  for (const HypPtr &C : H->children())
    if (C->isTableTyped())
      checkNode(C, Inputs, Base, Level, TaskId);
  std::vector<AttrValues> Args;
  for (const HypPtr &C : H->children()) {
    if (!C->isTableTyped())
      continue;
    std::optional<Table> T = C->evaluate(Inputs);
    ASSERT_TRUE(T);
    Args.push_back(abstractTable(*T, Base));
  }
  std::optional<Table> Result = H->evaluate(Inputs);
  ASSERT_TRUE(Result);
  AttrValues Res = abstractTable(*Result, Base);
  SpecFormula NonGroup;
  for (const SpecAtom &A : H->component()->spec(Level).Atoms)
    if (!mentionsGroup(*A.Lhs) && !mentionsGroup(*A.Rhs))
      NonGroup.Atoms.push_back(A);
  EXPECT_TRUE(evalSpec(NonGroup, Args, Res))
      << TaskId << ": " << H->component()->name()
      << " violates: " << NonGroup.toString();
}

TEST_P(SpecSoundness, GroundTruthSatisfiesSpecs) {
  const BenchmarkTask &T = morpheusSuite()[GetParam()];
  ExampleBase Base = ExampleBase::fromInputs(T.Inputs);
  checkNode(T.GroundTruth, T.Inputs, Base, SpecLevel::Spec1, T.Id);
  checkNode(T.GroundTruth, T.Inputs, Base, SpecLevel::Spec2, T.Id);
}

INSTANTIATE_TEST_SUITE_P(AllTasks, SpecSoundness,
                         ::testing::Range(size_t(0), size_t(80)));

/// Sketch-shape hashing: stable across value-hole filling (a fill maps to
/// its sketch's shape — the property incremental sessions and the
/// refutation store key on), sensitive to components and input indices.
TEST(ShapeHash, FillInvariantAndStructureSensitive) {
  const TableTransformer *Filter = StandardComponents::get().find("filter");
  const TableTransformer *Select = StandardComponents::get().find("select");

  HypPtr Hole = Hypothesis::apply(
      Filter, {Hypothesis::input(0), Hypothesis::valueHole(ParamKind::Pred)});
  HypPtr Filled = filter(in(0), "age", ">", num(12));
  EXPECT_EQ(Hole->shapeHash(), Filled->shapeHash());

  HypPtr OtherInput = Hypothesis::apply(
      Filter, {Hypothesis::input(1), Hypothesis::valueHole(ParamKind::Pred)});
  EXPECT_NE(Hole->shapeHash(), OtherInput->shapeHash());

  HypPtr OtherComp = Hypothesis::apply(
      Select, {Hypothesis::input(0), Hypothesis::valueHole(ParamKind::Cols)});
  EXPECT_NE(Hole->shapeHash(), OtherComp->shapeHash());

  HypPtr TblHole = Hypothesis::apply(
      Filter, {Hypothesis::tblHole(), Hypothesis::valueHole(ParamKind::Pred)});
  EXPECT_NE(Hole->shapeHash(), TblHole->shapeHash());

  // Deterministic across structurally equal trees built independently.
  EXPECT_EQ(filter(in(0), "age", ">", num(12))->shapeHash(),
            filter(in(0), "GPA", ">", num(3))->shapeHash());
}

/// Incremental sessions on the Z3 path: two fills of one sketch shape
/// whose spec is outside the native fragment (Min) reuse the pushed shape
/// scope (SessionHits), and spec templates compile once per
/// component/level, not once per call.
TEST(DeduceSubstrate, SessionAndTemplateReuse) {
  using namespace morpheus::specdsl;
  Table In = makeTable({{"id", CellType::Num},
                        {"name", CellType::Str},
                        {"age", CellType::Num}},
                       {{num(1), str("Alice"), num(8)},
                        {num(2), str("Bob"), num(18)},
                        {num(3), str("Tom"), num(12)},
                        {num(4), str("Eve"), num(5)}});
  Table Out = makeTable({{"id", CellType::Num}, {"name", CellType::Str}},
                        {{num(2), str("Bob")}});
  SpecFormula MinCol{
      {outA(TableAttr::Col) <= smin(inA(0, TableAttr::Col), lit(5))}};
  SpecOnly MinSelect("min_select", 1, MinCol, MinCol, {ParamKind::Cols});

  DeductionEngine E({In}, Out);
  // Same sketch shape, three predicate fills with distinct intermediate
  // row counts (3, 2, 1 rows; a keep-all cut would be rejected by the
  // filter kernel as a spec-excluded no-op) -> distinct queries sharing
  // one shape: one session build, two session reuses.
  for (double Cut : {6.0, 10.0, 15.0}) {
    HypPtr Sigma = filter(in(0), "age", ">", num(Cut));
    HypPtr Pi = Hypothesis::apply(
        &MinSelect, {Sigma, Hypothesis::valueHole(ParamKind::Cols)});
    E.deduce(Pi, SpecLevel::Spec2, true);
  }
  // The other level is another session over the same templates.
  E.deduce(Hypothesis::apply(&MinSelect,
                             {filter(in(0), "age", ">", num(6.0)),
                              Hypothesis::valueHole(ParamKind::Cols)}),
           SpecLevel::Spec1, true);
  const DeduceStats &S = E.stats();
  EXPECT_EQ(S.NativeDecisions, 0u);
  EXPECT_EQ(S.SolverChecks, 4u);
  EXPECT_EQ(S.SessionBuilds, 2u);
  EXPECT_EQ(S.SessionHits, 2u);
  // Templates: filter + min_select at both levels, compiled exactly once
  // each, then instantiated from cache by the second session.
  EXPECT_EQ(S.TemplateCompiles, 4u);
  EXPECT_EQ(S.TemplateHits, 2u);
  // Scopes balance: every push has its pop except the still-open session.
  EXPECT_EQ(S.SolverPushes, S.SolverPops + 1);
}

/// Cross-engine refutation sharing: a ⊥ verdict recorded by one engine
/// short-circuits a fresh engine over the same example — same verdict,
/// zero additional solver checks for that query.
TEST(DeduceSubstrate, StoreSharesRefutationsAcrossEngines) {
  Table In = paperExample1Input();
  Table Out = paperExample1Output();
  const TableTransformer *Spread = StandardComponents::get().find("spread");
  HypPtr H = Hypothesis::apply(
      Spread, {Hypothesis::input(0), Hypothesis::valueHole(ParamKind::ColName),
               Hypothesis::valueHole(ParamKind::ColName)});

  std::shared_ptr<const ExampleContext> Ex =
      ExampleContext::make({In}, Out);
  std::shared_ptr<RefutationStore> Store =
      std::make_shared<RefutationStore>();

  DeductionEngine A(Ex);
  A.setRefutationStore(Store);
  EXPECT_FALSE(A.deduce(H, SpecLevel::Spec2, true));
  EXPECT_EQ(A.stats().StoreInserts, 1u);
  EXPECT_EQ(Store->size(), 1u);

  DeductionEngine B(Ex);
  B.setRefutationStore(Store);
  EXPECT_FALSE(B.deduce(H, SpecLevel::Spec2, true));
  EXPECT_EQ(B.stats().StoreHits, 1u);
  EXPECT_EQ(B.stats().SolverChecks, 0u);

  // SAT verdicts are NOT stored: a fresh engine re-derives them.
  DeductionEngine C(Ex);
  C.setRefutationStore(Store);
  EXPECT_TRUE(C.deduce(H, SpecLevel::Spec1, true));
  EXPECT_EQ(C.stats().StoreHits, 0u);
  EXPECT_EQ(Store->size(), 1u);
}

/// The shared ExampleContext carries the same abstractions the engine
/// used to compute privately (Appendix A pinning included).
TEST(DeduceSubstrate, ExampleContextMatchesDirectAbstraction) {
  Table In = paperExample1Input();
  Table Out = paperExample1Output();
  std::shared_ptr<const ExampleContext> Ex = ExampleContext::make({In}, Out);
  ExampleBase Base = ExampleBase::fromInputs({In});
  AttrValues Direct = abstractTable(Out, Base);
  EXPECT_EQ(Ex->OutputAbs.Row, Direct.Row);
  EXPECT_EQ(Ex->OutputAbs.NewCols, Direct.NewCols);
  ASSERT_EQ(Ex->InputAbs.size(), 1u);
  EXPECT_EQ(Ex->InputAbs[0].Group, 1);
  EXPECT_EQ(Ex->Fingerprint, exampleFingerprint({In}, Out));
  EXPECT_NE(Ex->Fingerprint, exampleFingerprint({Out}, In));
}

/// The spec DSL evaluator agrees with hand-computed arithmetic.
TEST(SpecDsl, EvaluatorAndPrinting) {
  using namespace morpheus::specdsl;
  SpecFormula F{{outA(TableAttr::Row) <= inA(0, TableAttr::Row),
                 outA(TableAttr::Col) ==
                     smax(inA(0, TableAttr::Col), lit(3))}};
  AttrValues In{10, 4, 1, 0, 0};
  EXPECT_TRUE(evalSpec(F, {In}, AttrValues{5, 4, 1, 0, 0}));
  EXPECT_FALSE(evalSpec(F, {In}, AttrValues{11, 4, 1, 0, 0}));
  EXPECT_FALSE(evalSpec(F, {In}, AttrValues{5, 5, 1, 0, 0}));
  EXPECT_NE(F.toString().find("Tout.row <= Tin1.row"), std::string::npos);
}

/// Random ψ over random hypotheses, decided both natively and by Z3.
class DifferentialGen {
public:
  explicit DifferentialGen(uint64_t Seed) : Rng(Seed) {}

  int64_t range(int64_t Lo, int64_t Hi) {
    return std::uniform_int_distribution<int64_t>(Lo, Hi)(Rng);
  }
  bool coin(double P) { return std::bernoulli_distribution(P)(Rng); }

  /// A small attribute vector near the axioms; now and then outside them.
  AttrValues attrs() {
    AttrValues A;
    A.Row = range(0, 3);
    A.Col = range(1, 3);
    A.NewCols = range(0, std::min<int64_t>(A.Col, 2));
    A.NewVals = A.NewCols + range(0, 2);
    if (coin(0.03))
      A.Col = 0;
    return A;
  }

  /// A hand-written spec of unit two-variable atoms (sums, differences
  /// and bounds; every comparison operator) over \p NumArgs arguments.
  /// Atoms favour the group attribute, which no binding fixes, and often
  /// pair a sum with a difference over the same two attributes: the
  /// systems whose rational solutions have no integer one.
  SpecFormula utvpiSpec(unsigned NumArgs) {
    using namespace morpheus::specdsl;
    auto Slot = [&] {
      int Arg = int(range(-1, int64_t(NumArgs) - 1));
      auto A = coin(0.7) ? TableAttr::Group : TableAttr(range(0, 4));
      return Arg < 0 ? outA(A) : inA(Arg, A);
    };
    auto Pair = [&] {
      SpecExprPtr L = Slot(), R = Slot();
      while (R->ArgIndex == L->ArgIndex && R->Attr == L->Attr)
        R = Slot();
      return std::make_pair(L, R);
    };
    // Form 0: a op b + c; 1: a + b op c; 2: a op c.
    auto Atom = [&](SpecExprPtr L, SpecExprPtr R, int64_t Form) {
      int64_t C = range(-3, 3);
      if (Form == 0) {
        R = R + C;
      } else if (Form == 1) {
        L = L + R;
        R = lit(C + 3);
      } else {
        R = lit(C + 3);
      }
      SpecCmp Op = coin(0.4) ? SpecCmp::EQ : SpecCmp(range(0, 4));
      return SpecAtom{Op, L, R};
    };
    SpecFormula F;
    auto [L, R] = Pair();
    if (coin(0.5)) {
      F.Atoms.push_back(Atom(L, R, 1));
      F.Atoms.push_back(Atom(L, R, 0));
    } else {
      F.Atoms.push_back(Atom(L, R, range(0, 2)));
    }
    return F;
  }

  /// A random hypothesis of depth <= \p Depth over \p Comps.
  HypPtr hyp(const std::vector<const TableTransformer *> &Comps,
             size_t NumInputs, unsigned Depth, int &HolesLeft) {
    if (Depth == 0 || coin(0.25)) {
      if (HolesLeft > 0 && coin(0.35)) {
        --HolesLeft;
        return Hypothesis::tblHole();
      }
      return Hypothesis::input(size_t(range(0, int64_t(NumInputs) - 1)));
    }
    const TableTransformer *X = Comps[size_t(range(0, Comps.size() - 1))];
    std::vector<HypPtr> Children;
    for (unsigned I = 0; I != X->numTableArgs(); ++I)
      Children.push_back(hyp(Comps, NumInputs, Depth - 1, HolesLeft));
    for (ParamKind PK : X->valueParams())
      Children.push_back(Hypothesis::valueHole(PK));
    return Hypothesis::apply(X, std::move(Children));
  }

  /// Lays \p H out as ψ; each Apply node is bound to a random abstraction
  /// with probability \p BindP (partial evaluation's bindings).
  uint32_t layOut(const HypPtr &H, const ExampleContext &Ex, double BindP,
                  Psi &Q) {
    uint32_t Idx = uint32_t(Q.Nodes.size());
    Q.Nodes.emplace_back();
    if (H->isInput()) {
      Q.Nodes[Idx].Concrete = true;
      Q.Nodes[Idx].Abs = Ex.InputAbs[H->inputIndex()];
      return Idx;
    }
    if (H->isTblHole()) {
      Q.Nodes[Idx].K = PsiNode::Kind::Hole;
      return Idx;
    }
    uint32_t First = uint32_t(Q.Args.size());
    Q.Args.resize(First + H->component()->numTableArgs());
    uint32_t Arg = First;
    for (const HypPtr &C : H->children())
      if (C->isTableTyped())
        Q.Args[Arg++] = layOut(C, Ex, BindP, Q);
    PsiNode &N = Q.Nodes[Idx];
    N.K = PsiNode::Kind::Apply;
    N.X = H->component();
    N.FirstArg = First;
    if (coin(BindP)) {
      N.Concrete = true;
      // Half the bindings copy the output, as a correct subtree near the
      // root would; the rest are arbitrary.
      N.Abs = coin(0.5) ? Ex.OutputAbs : attrs();
    }
    return Idx;
  }

  std::mt19937_64 Rng;
};

/// The native decider and Z3 agree on every ψ the native decider settles,
/// over random hypotheses on all standard components plus hand-written
/// UTVPI specs, at both spec levels, with and without partial-evaluation
/// bindings, 0-3 holes and 1-3 inputs. A query with an atom outside the
/// fragment (Min/Max, three unknowns) is decided natively only when the
/// rest is unsatisfiable; otherwise it takes the Z3 path.
TEST(SpecDeduceTest, NativeMatchesZ3OnRandomQueries) {
  DifferentialGen G(0x5eed2026);
  std::vector<std::unique_ptr<SpecOnly>> Owned;
  uint64_t Hypotheses = 0, Decided = 0, Fallbacks = 0, Sat = 0, Unsat = 0;
  for (unsigned Example = 0; Example != 50; ++Example) {
    std::vector<const TableTransformer *> Comps =
        StandardComponents::get().all();
    for (unsigned I = 0; I != 6; ++I) {
      unsigned Args = I % 2 + 1;
      Owned.push_back(std::make_unique<SpecOnly>(
          "utvpi" + std::to_string(Owned.size()), Args, G.utvpiSpec(Args),
          G.utvpiSpec(Args)));
      Comps.push_back(Owned.back().get());
    }
    ExampleContext Ex;
    for (int64_t I = 0, N = G.range(1, 3); I != N; ++I) {
      AttrValues A = G.attrs();
      A.NewCols = A.NewVals = 0;
      Ex.InputAbs.push_back(A);
    }
    Ex.OutputAbs = G.attrs();
    if (G.coin(0.5)) { // an output shaped like an input, as many tasks are
      Ex.OutputAbs.Row = Ex.InputAbs[0].Row;
      Ex.OutputAbs.Col = Ex.InputAbs[0].Col;
    }
    NativeDecider Native(Ex);
    Z3Decider Z3(Ex);
    DeduceStats Stats;
    for (unsigned Shape = 0; Shape != 200; ++Shape) {
      int Holes = int(G.range(0, 3));
      HypPtr H =
          G.hyp(Comps, Ex.InputAbs.size(), unsigned(G.range(1, 3)), Holes);
      ++Hypotheses;
      // Without and with partial-evaluation bindings; at each level the
      // second variant reuses the first one's shape session.
      Psi Variants[2];
      for (unsigned V = 0; V != 2; ++V) {
        Variants[V].Shape = H->shapeHash();
        G.layOut(H, Ex, V == 0 ? 0.0 : 0.4, Variants[V]);
      }
      for (SpecLevel L : {SpecLevel::Spec1, SpecLevel::Spec2}) {
        for (unsigned Variant = 0; Variant != 2; ++Variant) {
          const Psi &Q = Variants[Variant];
          std::optional<bool> N = Native.decide(Q, L);
          bool Z = Z3.decide(Q, L, Stats);
          if (!N) {
            ++Fallbacks;
            continue;
          }
          ++Decided;
          ++(Z ? Sat : Unsat);
          ASSERT_EQ(*N, Z) << "example " << Example << " shape " << Shape
                           << " variant " << Variant << " level "
                           << (L == SpecLevel::Spec1 ? 1 : 2) << ": "
                           << H->toString();
        }
      }
    }
  }
  EXPECT_GE(Hypotheses, 10000u);
  EXPECT_GE(Decided, 30000u);
  EXPECT_GE(Sat, Decided / 10);
  EXPECT_GE(Unsat, Decided / 10);
  EXPECT_GT(Fallbacks, 0u); // three-unknown atoms occur naturally

  // In the engine, hand-written specs outside the fragment take the Z3
  // path and get Z3's verdict; a standard query never builds Z3.
  using namespace morpheus::specdsl;
  Table In = makeTable({{"id", CellType::Num}, {"age", CellType::Num}},
                       {{num(1), num(8)}, {num(2), num(18)}});
  Table Out = makeTable({{"id", CellType::Num}}, {{num(1)}, {num(2)}});
  SpecOnly Min("min", 1,
               {{outA(TableAttr::Row) <= smin(inA(0, TableAttr::Row), lit(1))}},
               {});
  SpecOnly Max("max", 1,
               {{outA(TableAttr::Row) <= smax(inA(0, TableAttr::Row), lit(1))}},
               {});
  SpecOnly Sum3("sum3", 2,
                {{outA(TableAttr::Group) + inA(0, TableAttr::Group) +
                      inA(1, TableAttr::Group) <=
                  lit(2)}},
                {});
  const TableTransformer *Filter = StandardComponents::get().find("filter");
  const TableTransformer *Select = StandardComponents::get().find("select");
  auto Sigma = [&] {
    return Hypothesis::apply(Filter, {Hypothesis::input(0),
                                      Hypothesis::valueHole(ParamKind::Pred)});
  };
  struct EngineCase {
    HypPtr H;
    bool Expected;
    bool ViaZ3;
  } EngineCases[] = {
      // row(y) = 2 <= min(row(x0) = 2, 1): refuted.
      {Hypothesis::apply(&Min, {Hypothesis::input(0)}), false, true},
      // row(y) = 2 <= max(2, 1): satisfiable.
      {Hypothesis::apply(&Max, {Hypothesis::input(0)}), true, true},
      // Three free groups, each >= 1, summing to at most 2: refuted.
      {Hypothesis::apply(&Sum3, {Sigma(), Sigma()}), false, true},
      // Standard specs only: decided natively, both ways.
      {Sigma(), false, false}, // row(y) = 2 < row(x0) = 2
      {Hypothesis::apply(Select, {Hypothesis::input(0),
                                  Hypothesis::valueHole(ParamKind::Cols)}),
       true, false},
  };
  for (const EngineCase &C : EngineCases) {
    DeductionEngine E({In}, Out);
    EXPECT_EQ(E.deduce(C.H, SpecLevel::Spec1, false), C.Expected)
        << C.H->toString();
    EXPECT_EQ(E.stats().SolverChecks, C.ViaZ3 ? 1u : 0u) << C.H->toString();
    EXPECT_EQ(E.stats().NativeDecisions, C.ViaZ3 ? 0u : 1u)
        << C.H->toString();
  }
}

} // namespace
