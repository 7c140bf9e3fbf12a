//===- smt/NativeDecide.cpp - Exact integer decider for ψ ---------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// Variables are numbered node * 5 + attribute (TableAttr order). Each is
// a constant, a hole's row or column (constant within one ϕin case), or
// an unknown. Every atom — axioms, spec atoms, the output binding — is
// reduced against that map once per call; each ϕin case then folds in its
// hole values and hands the surviving one- and two-unknown atoms to the
// UTVPI closure.
//
//===----------------------------------------------------------------------===//

#include "smt/NativeDecide.h"

#include <algorithm>
#include <limits>
#include <utility>

using namespace morpheus;

namespace {

using LinAtom = NativeDecider::LinAtom;

constexpr int64_t Inf = std::numeric_limits<int64_t>::max() / 4;
constexpr uint32_t ConstVar = ~0u;
constexpr uint32_t HoleBit = 0x80000000u;
/// Beyond this many ϕin cases Z3's own search is the better tool.
constexpr uint64_t MaxCases = 4096;

uint8_t attrIdx(TableAttr A) { return uint8_t(A); }

bool mentionsGroup(const SpecExpr &E) {
  switch (E.K) {
  case SpecExpr::Kind::Const:
    return false;
  case SpecExpr::Kind::Attr:
    return E.Attr == TableAttr::Group;
  default:
    return mentionsGroup(*E.Lhs) || mentionsGroup(*E.Rhs);
  }
}

/// Appends Sign·E to \p L; false on Min/Max.
bool linearize(const SpecExpr &E, int8_t Sign, LinAtom &L) {
  switch (E.K) {
  case SpecExpr::Kind::Const:
    L.K += Sign * E.ConstVal;
    return true;
  case SpecExpr::Kind::Attr:
    L.Terms.push_back({int8_t(E.ArgIndex), attrIdx(E.Attr), Sign});
    return true;
  case SpecExpr::Kind::Add:
    return linearize(*E.Lhs, Sign, L) && linearize(*E.Rhs, Sign, L);
  case SpecExpr::Kind::Sub:
    return linearize(*E.Lhs, Sign, L) && linearize(*E.Rhs, int8_t(-Sign), L);
  case SpecExpr::Kind::Min:
  case SpecExpr::Kind::Max:
    return false;
  }
  return false;
}

/// \p A as Σ Coef·attr + K ≤ 0 (== 0 for EQ); false outside the fragment.
bool compileAtom(const SpecAtom &A, LinAtom &L) {
  if (!linearize(*A.Lhs, 1, L) || !linearize(*A.Rhs, -1, L))
    return false;
  // L now holds Lhs − Rhs.
  switch (A.Op) {
  case SpecCmp::EQ:
    L.Eq = true;
    break;
  case SpecCmp::LE:
    break;
  case SpecCmp::LT:
    L.K += 1;
    break;
  case SpecCmp::GE:
  case SpecCmp::GT:
    for (LinAtom::Term &T : L.Terms)
      T.Coef = int8_t(-T.Coef);
    L.K = -L.K + (A.Op == SpecCmp::GT ? 1 : 0);
    break;
  }
  for (size_t I = 0; I != L.Terms.size(); ++I)
    for (size_t J = I + 1; J != L.Terms.size(); ++J)
      if (L.Terms[I].Arg == L.Terms[J].Arg &&
          L.Terms[I].Attr == L.Terms[J].Attr)
        return false;
  return true;
}

LinAtom selfAtom(std::initializer_list<std::pair<TableAttr, int8_t>> Terms,
                 int64_t K, bool Eq = false) {
  LinAtom L;
  for (auto [A, Coef] : Terms)
    L.Terms.push_back({-1, attrIdx(A), Coef});
  L.K = K;
  L.Eq = Eq;
  return L;
}

/// The domain axioms of one node: row ≥ 0, col ≥ 1, group ≥ 1,
/// newCols ≥ 0, newVals ≥ newCols, newCols ≤ col.
const std::vector<LinAtom> &axioms() {
  static const std::vector<LinAtom> Ax = {
      selfAtom({{TableAttr::Row, -1}}, 0),
      selfAtom({{TableAttr::Col, -1}}, 1),
      selfAtom({{TableAttr::Group, -1}}, 1),
      selfAtom({{TableAttr::NewCols, -1}}, 0),
      selfAtom({{TableAttr::NewCols, 1}, {TableAttr::NewVals, -1}}, 0),
      selfAtom({{TableAttr::NewCols, 1}, {TableAttr::Col, -1}}, 0),
  };
  return Ax;
}

int64_t floorHalf(int64_t A) { return A >= 0 ? A / 2 : -((1 - A) / 2); }

} // namespace

NativeDecider::NativeDecider(const ExampleContext &Ex) : Ex(Ex) {
  for (const AttrValues &A : Ex.InputAbs)
    Choices.emplace_back(A.Row, A.Col);
  std::sort(Choices.begin(), Choices.end());
  Choices.erase(std::unique(Choices.begin(), Choices.end()), Choices.end());
}

const NativeDecider::CompiledSpec &
NativeDecider::spec(const TableTransformer *X, SpecLevel Level) {
  auto It = Specs.find(X);
  if (It == Specs.end()) {
    std::vector<CompiledSpec> Slots(2);
    for (SpecLevel L : {SpecLevel::Spec1, SpecLevel::Spec2}) {
      CompiledSpec &C = Slots[L == SpecLevel::Spec1 ? 0 : 1];
      for (const SpecAtom &A : X->spec(L).Atoms) {
        LinAtom Lin;
        if (compileAtom(A, Lin))
          C.Atoms.push_back(std::move(Lin));
        else
          C.InFragment = false;
        if (!mentionsGroup(*A.Lhs) && !mentionsGroup(*A.Rhs))
          C.NonGroup.Atoms.push_back(A);
      }
    }
    It = Specs.emplace(X, std::move(Slots)).first;
  }
  return It->second[Level == SpecLevel::Spec1 ? 0 : 1];
}

/// Reduces \p A, instantiated at node \p Self, against the variable map.
/// False, adding nothing, when more than two unknowns, or one unknown
/// twice, remain.
bool NativeDecider::addAtom(const LinAtom &A, const Psi &Q, uint32_t Self) {
  Reduced R;
  R.K = A.K;
  R.Eq = A.Eq;
  R.FirstCase = uint32_t(CaseTerms.size());
  for (const LinAtom::Term &T : A.Terms) {
    uint32_t Node =
        T.Arg < 0 ? Self : Q.Args[Q.Nodes[Self].FirstArg + uint32_t(T.Arg)];
    uint32_t V = Node * 5 + T.Attr;
    uint32_t M = VarOf[V];
    if (M == ConstVar) {
      R.K += T.Coef * ValOf[V];
    } else if (M & HoleBit) {
      CaseTerms.push_back({M & ~HoleBit, T.Coef});
    } else {
      if (R.N == 2 || (R.N == 1 && R.Var[0] == M)) {
        CaseTerms.resize(R.FirstCase);
        return false;
      }
      R.Var[R.N] = M;
      R.Coef[R.N] = T.Coef;
      ++R.N;
    }
  }
  R.NumCase = uint32_t(CaseTerms.size()) - R.FirstCase;
  Atoms.push_back(R);
  return true;
}

std::optional<bool> NativeDecider::decide(const Psi &Q, SpecLevel Level) {
  // Variable map.
  size_t NumNodes = Q.Nodes.size();
  VarOf.assign(NumNodes * 5, ConstVar);
  ValOf.assign(NumNodes * 5, 0);
  uint32_t NumVars = 0, NumHoles = 0;
  auto Bind = [&](uint32_t V, int64_t Val) {
    VarOf[V] = ConstVar;
    ValOf[V] = Val;
  };
  const TableAttr NonGroupAttrs[] = {TableAttr::Row, TableAttr::Col,
                                     TableAttr::NewCols, TableAttr::NewVals};
  for (uint32_t I = 0; I != NumNodes; ++I) {
    const PsiNode &N = Q.Nodes[I];
    uint32_t Base = I * 5;
    switch (N.K) {
    case PsiNode::Kind::Input:
      for (TableAttr A : NonGroupAttrs)
        Bind(Base + attrIdx(A), N.Abs.get(A));
      Bind(Base + attrIdx(TableAttr::Group), 1);
      break;
    case PsiNode::Kind::Hole:
      VarOf[Base + attrIdx(TableAttr::Row)] = HoleBit | (NumHoles * 2);
      VarOf[Base + attrIdx(TableAttr::Col)] = HoleBit | (NumHoles * 2 + 1);
      Bind(Base + attrIdx(TableAttr::Group), 1);
      Bind(Base + attrIdx(TableAttr::NewCols), 0);
      Bind(Base + attrIdx(TableAttr::NewVals), 0);
      ++NumHoles;
      break;
    case PsiNode::Kind::Apply:
      for (uint32_t A = 0; A != 5; ++A)
        VarOf[Base + A] = 0; // an unknown, numbered below
      if (N.Concrete)
        for (TableAttr A : NonGroupAttrs)
          Bind(Base + attrIdx(A), N.Abs.get(A));
      break;
    }
  }

  // ϕout ∧ α(Tout)[y/x]: substituted into an unbound root, checked
  // against a bound one.
  const AttrValues &Out = Ex.OutputAbs;
  const PsiNode &Root = Q.Nodes[0];
  bool RootBound = Root.K != PsiNode::Kind::Apply || Root.Concrete;
  if (!RootBound)
    for (TableAttr A : NonGroupAttrs)
      Bind(attrIdx(A), Out.get(A));
  for (uint32_t &M : VarOf)
    if (M != ConstVar && !(M & HoleBit))
      M = NumVars++;

  // Atoms outside the fragment are left out: the rest is a relaxation of
  // ψ, so its ⊥ is ψ's, but its SAT is not.
  bool Relaxed = false;
  Atoms.clear();
  CaseTerms.clear();
  for (uint32_t I = 0; I != NumNodes; ++I) {
    for (const LinAtom &A : axioms())
      addAtom(A, Q, I); // one node's attributes: at most two unknowns
    if (Q.Nodes[I].K == PsiNode::Kind::Apply) {
      const CompiledSpec &C = spec(Q.Nodes[I].X, Level);
      Relaxed = Relaxed || !C.InFragment;
      for (const LinAtom &A : C.Atoms)
        if (!addAtom(A, Q, I))
          Relaxed = true;
    }
  }
  if (RootBound) // no unknown: these always reduce
    for (TableAttr A : NonGroupAttrs)
      addAtom(selfAtom({{A, 1}}, -Out.get(A), /*Eq=*/true), Q, 0);

  // ϕin: every hole takes some input's (row, col); equal pairs are one case.
  uint64_t Cases = 1;
  for (uint32_t H = 0; H != NumHoles; ++H) {
    Cases *= Choices.size();
    if (Cases > MaxCases)
      return std::nullopt;
  }
  HoleVals.assign(NumHoles * 2, 0);
  Pick.assign(NumHoles, 0);
  for (uint64_t Case = 0; Case != Cases; ++Case) {
    for (uint32_t H = 0; H != NumHoles; ++H) {
      HoleVals[H * 2] = Choices[Pick[H]].first;
      HoleVals[H * 2 + 1] = Choices[Pick[H]].second;
    }
    if (decideCase(NumVars))
      return Relaxed ? std::nullopt : std::optional<bool>(true);
    for (uint32_t H = 0; H != NumHoles && ++Pick[H] == Choices.size(); ++H)
      Pick[H] = 0;
  }
  return false; // every case, or an empty ϕin, is unsatisfiable
}

bool NativeDecider::decideCase(uint32_t NumVars) {
  Edges.clear();
  Lo.assign(NumVars, -Inf);
  Hi.assign(NumVars, Inf);
  for (const Reduced &R : Atoms) {
    int64_t K = R.K;
    for (uint32_t I = 0; I != R.NumCase; ++I) {
      const CaseTerm &T = CaseTerms[R.FirstCase + I];
      K += T.Coef * HoleVals[T.Slot];
    }
    // Σ Coef·x + K ≤ 0 (or == 0).
    if (R.N == 0) {
      if (R.Eq ? K != 0 : K > 0)
        return false;
    } else if (R.N == 1) {
      uint32_t X = R.Var[0];
      if (R.Coef[0] > 0 || R.Eq)
        Hi[X] = std::min(Hi[X], R.Coef[0] > 0 ? -K : K);
      if (R.Coef[0] < 0 || R.Eq)
        Lo[X] = std::max(Lo[X], R.Coef[0] > 0 ? -K : K);
    } else {
      Edges.push_back({R.Var[0], R.Var[1], R.Coef[0], R.Coef[1], -K});
      if (R.Eq)
        Edges.push_back({R.Var[0], R.Var[1], int8_t(-R.Coef[0]),
                         int8_t(-R.Coef[1]), K});
    }
  }
  for (uint32_t X = 0; X != NumVars; ++X)
    if (Lo[X] > Hi[X])
      return false;
  return Edges.empty() || utvpiSat(NumVars);
}

bool NativeDecider::utvpiSat(uint32_t NumVars) {
  // Only variables some two-unknown atom links get graph vertices; the
  // rest are decided by their bounds alone. Variable x has vertex 2g for
  // +x and 2g+1 for −x; an edge u → v of weight w reads val(v) − val(u) ≤ w.
  GraphId.assign(NumVars, ConstVar);
  uint32_t M = 0;
  for (const Edge &E : Edges)
    for (uint32_t X : {E.X, E.Y})
      if (GraphId[X] == ConstVar)
        GraphId[X] = M++;
  const uint32_t V = 2 * M;
  Dist.assign(size_t(V) * V, Inf);
  for (uint32_t I = 0; I != V; ++I)
    Dist[size_t(I) * V + I] = 0;
  auto Relax = [&](uint32_t From, uint32_t To, int64_t W) {
    int64_t &D = Dist[size_t(From) * V + To];
    D = std::min(D, W);
  };
  auto Vertex = [&](uint32_t X, int8_t Sign) {
    return 2 * GraphId[X] + (Sign > 0 ? 0 : 1);
  };
  for (uint32_t X = 0; X != NumVars; ++X) {
    if (GraphId[X] == ConstVar)
      continue;
    if (Hi[X] < Inf) // 2x ≤ 2·hi
      Relax(Vertex(X, -1), Vertex(X, 1), 2 * Hi[X]);
    if (Lo[X] > -Inf) // −2x ≤ −2·lo
      Relax(Vertex(X, 1), Vertex(X, -1), -2 * Lo[X]);
  }
  for (const Edge &E : Edges) {
    // Sx·x + Sy·y ≤ C reads both as val(+Sx x) − val(−Sy y) ≤ C and as
    // val(+Sy y) − val(−Sx x) ≤ C.
    Relax(Vertex(E.Y, int8_t(-E.Sy)), Vertex(E.X, E.Sx), E.C);
    Relax(Vertex(E.X, int8_t(-E.Sx)), Vertex(E.Y, E.Sy), E.C);
  }
  // Floyd–Warshall; a negative diagonal is a negative cycle (infeasible
  // even over the rationals). Stopping at the first one keeps every
  // intermediate weight within V times the largest edge.
  for (uint32_t K = 0; K != V; ++K) {
    const int64_t *RowK = &Dist[size_t(K) * V];
    for (uint32_t I = 0; I != V; ++I) {
      int64_t *RowI = &Dist[size_t(I) * V];
      int64_t IK = RowI[K];
      if (IK >= Inf)
        continue;
      for (uint32_t J = 0; J != V; ++J)
        if (RowK[J] < Inf && IK + RowK[J] < RowI[J])
          RowI[J] = IK + RowK[J];
    }
    for (uint32_t I = 0; I != V; ++I)
      if (Dist[size_t(I) * V + I] < 0)
        return false;
  }
  // Integer tightening: the closure bounds 2x ≤ a and −2x ≤ b admit an
  // integer x iff ⌊a/2⌋ + ⌊b/2⌋ ≥ 0.
  for (uint32_t G = 0; G != M; ++G) {
    int64_t A = Dist[size_t(2 * G + 1) * V + 2 * G];
    int64_t B = Dist[size_t(2 * G) * V + 2 * G + 1];
    if (A < Inf && B < Inf && floorHalf(A) + floorHalf(B) < 0)
      return false;
  }
  return true;
}
