//===- smt/Deduce.cpp - SMT-based deduction (Algorithm 2) --------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// ψ is generated in two layers that map onto two Z3 scopes:
//
//   scope 1 ("shape"): everything determined by the sketch shape alone —
//     Φ(H) instantiated from compiled spec templates, the per-node domain
//     axioms, the input bindings α(Ti), the hole disjunction ϕin, and the
//     output binding α(Tout) on the root. Keyed on
//     (Hypothesis::shapeHash, spec level); kept pushed across deduce
//     calls and only rebuilt when the shape changes. During sketch
//     completion every partial fill shares one shape, so the whole
//     skeleton is asserted once per sketch instead of once per fill.
//
//   scope 2 ("query"): the concrete abstractions partial evaluation
//     conjoins for subtrees that are complete under the current fill,
//     plus the interval fast path. Pushed and popped per call.
//
// Node attribute variables are allocated in pre-order over table-typed
// nodes; the allocation order is itself shape-determined, so the concrete
// walk of scope 2 indexes the variables created by scope 1 positionally.
//
//===----------------------------------------------------------------------===//

#include "smt/Deduce.h"

#include "smt/SpecCompiler.h"
#include "table/Hash.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <z3++.h>

using namespace morpheus;
using hashing::hashString;
using hashing::mix64;

struct DeductionEngine::Impl {
  z3::context Ctx;
  /// Persistent solver with push/pop per query: constructing a fresh
  /// z3::solver costs ~8ms of setup, push/pop ~0.3ms (measured on this
  /// image); deduce is called thousands of times per task.
  z3::solver Solver{Ctx};
  std::shared_ptr<const ExampleContext> Ex;
  SpecCompiler Compiler{Ctx};
  std::shared_ptr<RefutationStore> Store;
  unsigned NextVar = 0;

  /// The open shape session: scope 1 holds the skeleton of SessionKey's
  /// sketch shape, and Vars are its per-node attribute variables in
  /// pre-order. Invalidated (popped and rebuilt) when a different shape
  /// arrives.
  bool SessionOpen = false;
  uint64_t SessionKey = 0;
  std::vector<NodeVars> Vars;
  size_t ConcreteIdx = 0; ///< pre-order cursor of the scope-2 walk

  /// ϕin compiled once per engine: the hole-must-be-an-input disjunction
  /// over a placeholder node, instantiated per TblHole by substitution.
  z3::expr HoleTemplate;
  z3::expr_vector HoleParams;

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

  const AttrValues &absCached(const Table &T) {
    uint64_t Fp = T.fingerprint();
    auto It = AbsCache.find(Fp);
    if (It != AbsCache.end())
      return It->second;
    return AbsCache.emplace(Fp, abstractTable(T, Ex->Base)).first->second;
  }

  /// Memoized DEDUCE verdicts. The SMT query is fully determined by the
  /// tree's component structure, the input indices at its leaves and the
  /// concrete abstractions of evaluated subtrees — many candidate fills
  /// share that signature (e.g. every equal-shape filter predicate), so
  /// caching removes the bulk of Z3 calls.
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
          char Buf[64];
          std::snprintf(Buf, sizeof(Buf), "@%lld.%lld.%lld.%lld",
                        (long long)A.Row, (long long)A.Col,
                        (long long)A.NewCols, (long long)A.NewVals);
          Key += Buf;
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

  explicit Impl(std::shared_ptr<const ExampleContext> ExIn)
      : Ex(std::move(ExIn)), HoleTemplate(Ctx), HoleParams(Ctx) {
    // Compile ϕin once: a hole must be instantiated with one of the
    // inputs, i.e. carry some input's concrete (row, col) and the input
    // defaults group = 1, newCols = newVals = 0.
    auto Var = [&](const char *Name) { return Ctx.int_const(Name); };
    NodeVars Hole{Var("$h_r"), Var("$h_c"), Var("$h_g"), Var("$h_nc"),
                  Var("$h_nv")};
    z3::expr_vector Disj(Ctx);
    for (const AttrValues &A : Ex->InputAbs) {
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

  NodeVars freshNode() {
    return {freshVar("r"), freshVar("c"), freshVar("g"), freshVar("nc"),
            freshVar("nv")};
  }

  /// Binds the concrete (non-group) attributes of \p N to \p A.
  void bindConcrete(z3::solver &S, const NodeVars &N, const AttrValues &A) {
    S.add(N.Row == Ctx.int_val(int64_t(A.Row)));
    S.add(N.Col == Ctx.int_val(int64_t(A.Col)));
    S.add(N.NewCols == Ctx.int_val(int64_t(A.NewCols)));
    S.add(N.NewVals == Ctx.int_val(int64_t(A.NewVals)));
  }

  /// Scope-1 generation: asserts the shape-determined skeleton of \p H
  /// (axioms, ϕin, input bindings, instantiated spec templates) and
  /// appends the node's variables to Vars in pre-order. Returns the
  /// node's index into Vars.
  size_t genShape(z3::solver &S, const HypPtr &H, SpecLevel Level,
                  DeduceStats &Stats) {
    size_t MyIdx = Vars.size();
    Vars.push_back(freshNode());
    NodeVars N = Vars[MyIdx]; // Vars may reallocate during recursion
    S.add(Compiler.axiomsFor(N));
    switch (H->kind()) {
    case Hypothesis::Kind::Input: {
      bindConcrete(S, N, Ex->InputAbs[H->inputIndex()]);
      S.add(N.Group == 1);
      return MyIdx;
    }
    case Hypothesis::Kind::TblHole: {
      z3::expr_vector Dst(Ctx);
      for (TableAttr A : {TableAttr::Row, TableAttr::Col, TableAttr::Group,
                          TableAttr::NewCols, TableAttr::NewVals})
        Dst.push_back(N.get(A));
      S.add(HoleTemplate.substitute(HoleParams, Dst));
      return MyIdx;
    }
    case Hypothesis::Kind::Apply: {
      std::vector<NodeVars> ArgVars;
      for (const HypPtr &C : H->children()) {
        if (!C->isTableTyped())
          continue;
        ArgVars.push_back(Vars[genShape(S, C, Level, Stats)]);
      }
      const SpecTemplate &T = Compiler.get(H->component(), Level);
      if (!T.Trivial)
        S.add(T.instantiate(ArgVars, Vars[MyIdx]));
      return MyIdx;
    }
    case Hypothesis::Kind::ValueHole:
    case Hypothesis::Kind::Filled:
      break;
    }
    assert(false && "table-typed node expected");
    return MyIdx;
  }

  /// Scope-2 generation: walks \p H in the same pre-order as genShape,
  /// binding the concrete abstraction of every subtree partial evaluation
  /// can evaluate, and running the interval fast path. Sets \p Dead when
  /// a complete subtree fails to evaluate or the fast path refutes a
  /// node. Returns the node's concrete abstraction when known.
  std::optional<AttrValues> genConcrete(z3::solver &S, const HypPtr &H,
                                        SpecLevel Level, bool UsePartialEval,
                                        bool FastPath, bool &Dead,
                                        uint64_t &FastRejects) {
    size_t MyIdx = ConcreteIdx++;
    switch (H->kind()) {
    case Hypothesis::Kind::Input:
      return Ex->InputAbs[H->inputIndex()];
    case Hypothesis::Kind::TblHole:
      return std::nullopt;
    case Hypothesis::Kind::Apply: {
      std::vector<std::optional<AttrValues>> ArgConcrete;
      for (const HypPtr &C : H->children()) {
        if (!C->isTableTyped())
          continue;
        ArgConcrete.push_back(genConcrete(S, C, Level, UsePartialEval,
                                          FastPath, Dead, FastRejects));
        if (Dead)
          return std::nullopt;
      }
      if (!UsePartialEval)
        return std::nullopt;
      const std::optional<Table> &T = evalCached(H);
      bool Complete = H->numTblHoles() == 0 && H->numValueHoles() == 0;
      if (Complete && !T) {
        Dead = true; // a component rejected its concrete arguments
        return std::nullopt;
      }
      if (!T)
        return std::nullopt;
      const AttrValues &A = absCached(*T);
      bindConcrete(S, Vars[MyIdx], A);
      // Concrete fast path: all table children concrete too -> check the
      // spec's non-group atoms directly before any Z3 work.
      if (FastPath) {
        bool AllArgs = true;
        std::vector<AttrValues> Args;
        for (const auto &AC : ArgConcrete) {
          if (!AC)
            AllArgs = false;
          else
            Args.push_back(*AC);
        }
        const SpecTemplate &Tpl = Compiler.get(H->component(), Level);
        if (AllArgs && !evalSpec(Tpl.NonGroup, Args, A)) {
          ++FastRejects;
          Dead = true;
        }
      }
      return A;
    }
    case Hypothesis::Kind::ValueHole:
    case Hypothesis::Kind::Filled:
      break;
    }
    assert(false && "table-typed node expected");
    return std::nullopt;
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

  std::string Key;
  Key.reserve(256);
  Key += Level == SpecLevel::Spec1 ? '1' : '2';
  bool Alive = P->signature(H, UsePartialEval, Key);
  if (!Alive || P->VerdictCache.count(Key)) {
    ++Stats.CacheHits;
    bool Result = Alive && P->VerdictCache[Key];
    Stats.SolverSeconds += std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - Start)
                               .count();
    if (!Result)
      ++Stats.Rejections;
    return Result;
  }

  // The cross-engine store: the query hash folds the canonical sketch
  // shape with the full signature (level + concrete abstractions), so an
  // entry is exactly one ψ over this store's example.
  uint64_t QueryHash = 0;
  if (P->Store) {
    QueryHash = mix64(H->shapeHash() ^ hashString(Key));
    if (P->Store->isRefuted(QueryHash)) {
      ++Stats.StoreHits;
      ++Stats.Rejections;
      P->VerdictCache.emplace(std::move(Key), false);
      Stats.SolverSeconds += std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - Start)
                                 .count();
      return false;
    }
  }

  bool Dead = false;
  bool Result = true;
  {
    z3::solver &S = P->Solver;
    uint64_t SessionKey =
        mix64(H->shapeHash() ^
              (Level == SpecLevel::Spec1 ? 0x5370656331ULL : 0x5370656332ULL));
    if (!P->SessionOpen || P->SessionKey != SessionKey) {
      if (P->SessionOpen) {
        S.pop();
        ++Stats.SolverPops;
      }
      // Re-using variable names across sessions lets the context cache
      // the symbol and AST objects instead of growing without bound.
      P->NextVar = 0;
      P->Vars.clear();
      S.push();
      ++Stats.SolverPushes;
      size_t Root = P->genShape(S, H, Level, Stats);
      // ϕout ∧ α(Tout)[y/x]: the root must match the output table; its
      // group is a fresh positive variable (Appendix A).
      P->bindConcrete(S, P->Vars[Root], P->Ex->OutputAbs);
      P->SessionOpen = true;
      P->SessionKey = SessionKey;
      ++Stats.SessionBuilds;
    } else {
      ++Stats.SessionHits;
    }

    S.push();
    ++Stats.SolverPushes;
    P->ConcreteIdx = 0;
    P->genConcrete(S, H, Level, UsePartialEval, FastPath, Dead,
                   Stats.FastPathRejections);
    if (Dead) {
      Result = false;
    } else {
      ++Stats.SolverChecks;
      Result = S.check() != z3::unsat;
    }
    S.pop();
    ++Stats.SolverPops;
  }
  if (!Result && P->Store) {
    P->Store->recordRefuted(QueryHash);
    ++Stats.StoreInserts;
  }
  P->VerdictCache.emplace(std::move(Key), Result);
  Stats.TemplateCompiles = P->Compiler.compilations();
  Stats.TemplateHits = P->Compiler.hits();
  auto End = std::chrono::steady_clock::now();
  Stats.SolverSeconds +=
      std::chrono::duration<double>(End - Start).count();
  if (!Result)
    ++Stats.Rejections;
  return Result;
}
