//===- smt/Deduce.cpp - Deduction (Algorithm 2) -------------------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// deduce() lays ψ out as a Psi: one node per table-typed subtree in
// pre-order, with the concrete abstraction of every subtree partial
// evaluation can evaluate. The native decider settles it unless some atom
// is outside its fragment and the rest is satisfiable; then Z3Decider
// does.
//
// Z3Decider splits ψ over two Z3 scopes:
//
//   scope 1 ("shape"): everything determined by the sketch shape alone —
//     Φ(H) instantiated from compiled spec templates, the per-node domain
//     axioms, the input bindings α(Ti), the hole disjunction ϕin, and the
//     output binding α(Tout) on the root. Keyed on (Psi::Shape, spec
//     level); kept pushed across calls and only rebuilt when the shape
//     changes, so sibling fills of one sketch share it.
//
//   scope 2 ("query"): the concrete abstractions partial evaluation
//     conjoins for subtrees that are complete under the current fill.
//     Pushed and popped per call.
//
//===----------------------------------------------------------------------===//

#include "smt/Deduce.h"

#include "smt/SpecCompiler.h"
#include "table/Hash.h"

#include <charconv>
#include <chrono>
#include <unordered_map>
#include <z3++.h>

using namespace morpheus;
using hashing::hashString;
using hashing::mix64;

namespace {

void appendInt(std::string &Out, int64_t V) {
  char Buf[24];
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), V).ptr;
  Out.append(Buf, End);
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

//===----------------------------------------------------------------------===//
// Z3Decider
//===----------------------------------------------------------------------===//

struct Z3Decider::Impl {
  z3::context Ctx;
  /// Persistent solver with push/pop per query: constructing a fresh
  /// z3::solver costs ~8ms of setup, push/pop ~0.3ms.
  z3::solver Solver{Ctx};
  const ExampleContext &Ex;
  SpecCompiler Compiler{Ctx};
  unsigned NextVar = 0;

  /// The open shape session: scope 1 holds the skeleton of SessionKey's
  /// shape, and Vars are its per-node attribute variables in pre-order.
  bool SessionOpen = false;
  uint64_t SessionKey = 0;
  std::vector<NodeVars> Vars;

  /// ϕin compiled once: the hole-must-be-an-input disjunction over a
  /// placeholder node, instantiated per hole by substitution.
  z3::expr HoleTemplate;
  z3::expr_vector HoleParams;

  explicit Impl(const ExampleContext &ExIn)
      : Ex(ExIn), HoleTemplate(Ctx), HoleParams(Ctx) {
    // A hole must be instantiated with one of the inputs, i.e. carry some
    // input's concrete (row, col) and the input defaults group = 1,
    // newCols = newVals = 0.
    auto Var = [&](const char *Name) { return Ctx.int_const(Name); };
    NodeVars Hole{Var("$h_r"), Var("$h_c"), Var("$h_g"), Var("$h_nc"),
                  Var("$h_nv")};
    z3::expr_vector Disj(Ctx);
    for (const AttrValues &A : Ex.InputAbs) {
      Disj.push_back(Hole.Row == Ctx.int_val(int64_t(A.Row)) &&
                     Hole.Col == Ctx.int_val(int64_t(A.Col)) &&
                     Hole.NewCols == 0 && Hole.NewVals == 0 &&
                     Hole.Group == 1);
    }
    HoleTemplate = z3::mk_or(Disj);
    for (TableAttr A : {TableAttr::Row, TableAttr::Col, TableAttr::Group,
                        TableAttr::NewCols, TableAttr::NewVals})
      HoleParams.push_back(Hole.get(A));
  }

  z3::expr freshVar(const char *Prefix) {
    std::string Name = std::string(Prefix) + std::to_string(NextVar++);
    return Ctx.int_const(Name.c_str());
  }

  /// Binds the concrete (non-group) attributes of \p N to \p A.
  void bindConcrete(const NodeVars &N, const AttrValues &A) {
    Solver.add(N.Row == Ctx.int_val(int64_t(A.Row)));
    Solver.add(N.Col == Ctx.int_val(int64_t(A.Col)));
    Solver.add(N.NewCols == Ctx.int_val(int64_t(A.NewCols)));
    Solver.add(N.NewVals == Ctx.int_val(int64_t(A.NewVals)));
  }

  /// Scope-1 generation: the shape-determined skeleton of \p Q.
  void genShape(const Psi &Q, SpecLevel Level) {
    // Re-using variable names across sessions lets the context cache the
    // symbol and AST objects instead of growing without bound.
    NextVar = 0;
    Vars.clear();
    for (size_t I = 0; I != Q.Nodes.size(); ++I)
      Vars.push_back({freshVar("r"), freshVar("c"), freshVar("g"),
                      freshVar("nc"), freshVar("nv")});
    std::vector<NodeVars> ArgVars;
    for (size_t I = 0; I != Q.Nodes.size(); ++I) {
      const PsiNode &N = Q.Nodes[I];
      const NodeVars &V = Vars[I];
      Solver.add(Compiler.axiomsFor(V));
      switch (N.K) {
      case PsiNode::Kind::Input:
        bindConcrete(V, N.Abs);
        Solver.add(V.Group == 1);
        break;
      case PsiNode::Kind::Hole: {
        z3::expr_vector Dst(Ctx);
        for (TableAttr A : {TableAttr::Row, TableAttr::Col, TableAttr::Group,
                            TableAttr::NewCols, TableAttr::NewVals})
          Dst.push_back(V.get(A));
        Solver.add(HoleTemplate.substitute(HoleParams, Dst));
        break;
      }
      case PsiNode::Kind::Apply: {
        ArgVars.clear();
        for (unsigned A = 0; A != N.X->numTableArgs(); ++A)
          ArgVars.push_back(Vars[Q.Args[N.FirstArg + A]]);
        const SpecTemplate &T = Compiler.get(N.X, Level);
        if (!T.Trivial)
          Solver.add(T.instantiate(ArgVars, V));
        break;
      }
      }
    }
    // ϕout ∧ α(Tout)[y/x]: the root must match the output table; its group
    // is a fresh positive variable (Appendix A).
    bindConcrete(Vars[0], Ex.OutputAbs);
  }
};

Z3Decider::Z3Decider(const ExampleContext &Ex)
    : P(std::make_unique<Impl>(Ex)) {}

Z3Decider::~Z3Decider() = default;

bool Z3Decider::decide(const Psi &Q, SpecLevel Level, DeduceStats &Stats) {
  z3::solver &S = P->Solver;
  uint64_t SessionKey =
      mix64(Q.Shape ^
            (Level == SpecLevel::Spec1 ? 0x5370656331ULL : 0x5370656332ULL));
  if (!P->SessionOpen || P->SessionKey != SessionKey) {
    if (P->SessionOpen) {
      S.pop();
      ++Stats.SolverPops;
    }
    S.push();
    ++Stats.SolverPushes;
    P->genShape(Q, Level);
    P->SessionOpen = true;
    P->SessionKey = SessionKey;
    ++Stats.SessionBuilds;
  } else {
    ++Stats.SessionHits;
  }

  S.push();
  ++Stats.SolverPushes;
  for (size_t I = 0; I != Q.Nodes.size(); ++I)
    if (Q.Nodes[I].K == PsiNode::Kind::Apply && Q.Nodes[I].Concrete)
      P->bindConcrete(P->Vars[I], Q.Nodes[I].Abs);
  ++Stats.SolverChecks;
  bool Result = S.check() != z3::unsat;
  S.pop();
  ++Stats.SolverPops;
  Stats.TemplateCompiles = P->Compiler.compilations();
  Stats.TemplateHits = P->Compiler.hits();
  return Result;
}

//===----------------------------------------------------------------------===//
// DeductionEngine
//===----------------------------------------------------------------------===//

struct DeductionEngine::Impl {
  std::shared_ptr<const ExampleContext> Ex;
  std::shared_ptr<RefutationStore> Store;
  NativeDecider Native;
  /// Built on the first query the native decider leaves open.
  std::unique_ptr<Z3Decider> Z3;
  Psi Q;                          ///< scratch: ψ of the current call
  std::vector<AttrValues> ArgAbs; ///< scratch: the fast path's arguments

  /// Memoized partial evaluation, keyed on node identity (trees are
  /// immutable and structurally shared, so a node pointer determines the
  /// subtree). KeepAlive pins the keys so pointers cannot be recycled.
  std::unordered_map<const Hypothesis *, std::optional<Table>> EvalCache;
  std::vector<HypPtr> KeepAlive;
  /// α results keyed on the table's 64-bit fingerprint: distinct nodes that
  /// evaluate to the same table (a very common event during sketch
  /// completion) share one α computation, and entries survive the
  /// per-sketch eval-cache clear because they carry no node identity.
  std::unordered_map<uint64_t, AttrValues> AbsCache;

  explicit Impl(std::shared_ptr<const ExampleContext> ExIn)
      : Ex(std::move(ExIn)), Native(*Ex) {}

  const AttrValues &absCached(const Table &T) {
    uint64_t Fp = T.fingerprint();
    auto It = AbsCache.find(Fp);
    if (It != AbsCache.end())
      return It->second;
    return AbsCache.emplace(Fp, abstractTable(T, Ex->Base)).first->second;
  }

  /// Memoized DEDUCE verdicts. ψ is fully determined by the tree's
  /// component structure, the input indices at its leaves and the concrete
  /// abstractions of evaluated subtrees — many candidate fills share that
  /// signature (e.g. every equal-shape filter predicate), so caching
  /// removes the bulk of the decisions.
  std::unordered_map<std::string, bool> VerdictCache;

  /// Builds the signature key for \p H; appends to \p Key. Returns false
  /// when a complete subtree fails to evaluate (the hypothesis is dead).
  bool signature(const HypPtr &H, bool UsePartialEval, std::string &Key) {
    switch (H->kind()) {
    case Hypothesis::Kind::Input:
      Key += 'x';
      Key += char('0' + (H->inputIndex() & 0x3F));
      return true;
    case Hypothesis::Kind::TblHole:
      Key += '?';
      return true;
    case Hypothesis::Kind::Apply: {
      Key += H->component()->name();
      Key += '(';
      bool HasValueHole = false;
      for (const HypPtr &C : H->children()) {
        if (C->isTableTyped()) {
          if (!signature(C, UsePartialEval, Key))
            return false;
          Key += ',';
        } else if (C->isValueHole()) {
          HasValueHole = true;
        }
      }
      Key += ')';
      if (UsePartialEval) {
        const std::optional<Table> &T = evalCached(H);
        bool Complete = !HasValueHole && H->numTblHoles() == 0 &&
                        H->numValueHoles() == 0;
        if (Complete && !T)
          return false;
        if (T) {
          const AttrValues &A = absCached(*T);
          // "@row.col.newCols.newVals", as printf's %lld writes them.
          Key += '@';
          appendInt(Key, A.Row);
          Key += '.';
          appendInt(Key, A.Col);
          Key += '.';
          appendInt(Key, A.NewCols);
          Key += '.';
          appendInt(Key, A.NewVals);
        }
      }
      return true;
    }
    default:
      Key += '!';
      return true;
    }
  }

  const std::optional<Table> &evalCached(const HypPtr &H) {
    auto It = EvalCache.find(H.get());
    if (It != EvalCache.end())
      return It->second;
    std::optional<Table> Result;
    switch (H->kind()) {
    case Hypothesis::Kind::Input:
      if (H->inputIndex() < Ex->Inputs.size())
        Result = Ex->Inputs[H->inputIndex()];
      break;
    case Hypothesis::Kind::Apply: {
      std::vector<Table> TableArgs;
      std::vector<TermPtr> ValueArgs;
      bool Ok = true;
      for (const HypPtr &C : H->children()) {
        if (C->isTableTyped()) {
          const std::optional<Table> &T = evalCached(C);
          if (!T) {
            Ok = false;
            break;
          }
          TableArgs.push_back(*T);
        } else if (C->isFilled()) {
          ValueArgs.push_back(C->term());
        } else {
          Ok = false;
          break;
        }
      }
      if (Ok)
        Result = H->component()->apply(TableArgs, ValueArgs);
      break;
    }
    default:
      break;
    }
    KeepAlive.push_back(H);
    return EvalCache.emplace(H.get(), std::move(Result)).first->second;
  }

  /// Appends \p H's table-typed nodes to Q in pre-order, binding the
  /// concrete abstraction of every subtree partial evaluation evaluates.
  /// A node whose arguments are all concrete too gets its spec's
  /// group-free atoms checked on the spot; when one fails, \p Dead is set
  /// and the walk stops. Returns the node's index.
  uint32_t layOut(const HypPtr &H, SpecLevel Level, bool UsePartialEval,
                  bool &Dead, uint64_t &FastRejects) {
    uint32_t Idx = uint32_t(Q.Nodes.size());
    Q.Nodes.emplace_back();
    switch (H->kind()) {
    case Hypothesis::Kind::Input: {
      PsiNode &N = Q.Nodes[Idx];
      N.K = PsiNode::Kind::Input;
      N.Concrete = true;
      N.Abs = Ex->InputAbs[H->inputIndex()];
      return Idx;
    }
    case Hypothesis::Kind::TblHole:
      Q.Nodes[Idx].K = PsiNode::Kind::Hole;
      return Idx;
    case Hypothesis::Kind::Apply: {
      const TableTransformer *X = H->component();
      uint32_t First = uint32_t(Q.Args.size());
      Q.Args.resize(First + X->numTableArgs());
      Q.Nodes[Idx].K = PsiNode::Kind::Apply;
      Q.Nodes[Idx].X = X;
      Q.Nodes[Idx].FirstArg = First;
      uint32_t Arg = First;
      bool AllArgs = true;
      for (const HypPtr &C : H->children()) {
        if (!C->isTableTyped())
          continue;
        uint32_t CI = layOut(C, Level, UsePartialEval, Dead, FastRejects);
        if (Dead)
          return Idx;
        Q.Args[Arg++] = CI;
        AllArgs = AllArgs && Q.Nodes[CI].Concrete;
      }
      assert(Arg == First + X->numTableArgs() && "table arity mismatch");
      if (!UsePartialEval)
        return Idx;
      const std::optional<Table> &T = evalCached(H);
      if (!T)
        return Idx;
      PsiNode &N = Q.Nodes[Idx];
      N.Concrete = true;
      N.Abs = absCached(*T);
      if (AllArgs) {
        ArgAbs.clear();
        for (uint32_t A = First; A != Arg; ++A)
          ArgAbs.push_back(Q.Nodes[Q.Args[A]].Abs);
        if (!evalSpec(Native.nonGroup(X, Level), ArgAbs, N.Abs)) {
          ++FastRejects;
          Dead = true;
        }
      }
      return Idx;
    }
    case Hypothesis::Kind::ValueHole:
    case Hypothesis::Kind::Filled:
      break;
    }
    assert(false && "table-typed node expected");
    return Idx;
  }

  /// Decides ψ for \p H: natively when the native decider can, otherwise
  /// with Z3.
  bool decide(const HypPtr &H, SpecLevel Level, bool UsePartialEval,
              DeduceStats &Stats) {
    Q.clear();
    Q.Shape = H->shapeHash();
    bool Dead = false;
    layOut(H, Level, UsePartialEval, Dead, Stats.FastPathRejections);
    if (Dead)
      return false;
    if (std::optional<bool> V = Native.decide(Q, Level)) {
      ++Stats.NativeDecisions;
      return *V;
    }
    auto Start = std::chrono::steady_clock::now();
    if (!Z3)
      Z3 = std::make_unique<Z3Decider>(*Ex);
    bool Result = Z3->decide(Q, Level, Stats);
    Stats.Z3Seconds += secondsSince(Start);
    return Result;
  }
};

DeductionEngine::DeductionEngine(std::shared_ptr<const ExampleContext> Ex)
    : P(std::make_unique<Impl>(std::move(Ex))) {}

DeductionEngine::DeductionEngine(const std::vector<Table> &Inputs,
                                 const Table &Output)
    : DeductionEngine(ExampleContext::make(Inputs, Output)) {}

DeductionEngine::~DeductionEngine() = default;

const std::optional<Table> &DeductionEngine::evaluateCached(const HypPtr &H) {
  return P->evalCached(H);
}

void DeductionEngine::clearEvalCache() {
  P->EvalCache.clear();
  P->KeepAlive.clear();
}

void DeductionEngine::setRefutationStore(std::shared_ptr<RefutationStore> S) {
  P->Store = std::move(S);
}

const std::shared_ptr<const ExampleContext> &
DeductionEngine::exampleContext() const {
  return P->Ex;
}

bool DeductionEngine::deduce(const HypPtr &H, SpecLevel Level,
                             bool UsePartialEval) {
  ++Stats.Calls;
  auto Start = std::chrono::steady_clock::now();
  auto Finish = [&](bool Result) {
    Stats.SolverSeconds += secondsSince(Start);
    if (!Result)
      ++Stats.Rejections;
    return Result;
  };

  std::string Key;
  Key.reserve(256);
  Key += Level == SpecLevel::Spec1 ? '1' : '2';
  if (!P->signature(H, UsePartialEval, Key))
    return Finish(false); // a dead path: rejected, but no cache lookup
  auto It = P->VerdictCache.find(Key);
  if (It != P->VerdictCache.end()) {
    ++Stats.CacheHits;
    return Finish(It->second);
  }

  // The cross-engine store: the query hash folds the canonical sketch
  // shape with the full signature (level + concrete abstractions), so an
  // entry is exactly one ψ over this store's example.
  uint64_t QueryHash = 0;
  if (P->Store) {
    QueryHash = mix64(H->shapeHash() ^ hashString(Key));
    if (P->Store->isRefuted(QueryHash)) {
      ++Stats.StoreHits;
      P->VerdictCache.emplace(std::move(Key), false);
      return Finish(false);
    }
  }

  bool Result = P->decide(H, Level, UsePartialEval, Stats);
  if (!Result && P->Store) {
    P->Store->recordRefuted(QueryHash);
    ++Stats.StoreInserts;
  }
  P->VerdictCache.emplace(std::move(Key), Result);
  return Finish(Result);
}
