//===- smt/Deduce.h - Deduction (Algorithm 2) -------------------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DEDUCE procedure of Section 6. Given a hypothesis and the
/// input-output example, it builds the formula
///
///   ψ = Φ(H) ∧ ϕin ∧ ϕout ∧ ⋀ α(Ti)[xi/x] ∧ α(Tout)[y/x]
///
/// (Algorithm 2) over per-node attribute variables and decides its
/// satisfiability over the integers (Linear Integer Arithmetic).
/// UNSAT proves that no completion of the hypothesis can match the example,
/// so the hypothesis is pruned. Deduction is sound but incomplete: specs
/// overapproximate, so SAT does not imply a completion exists.
///
/// Partial evaluation (Figure 7) strengthens ψ: any subtree that is already
/// a complete program is evaluated, and the abstraction of its concrete
/// result is conjoined (first case of Figure 12) — this is what rejects the
/// partially filled sketch of Example 12 without filling the remaining
/// holes.
///
/// Every verdict-cache or refutation-store miss lays ψ out as data (a Psi,
/// smt/NativeDecide.h) and decides it in one of two ways:
///  - natively (NativeDecider): each table hole is case-split over the
///    example's inputs and each case decided exactly over the integers by
///    a UTVPI closure. Partial evaluation and the input/output bindings
///    leave nearly every atom of the standard specs with at most two
///    unknowns, so this settles almost every query;
///  - by Z3 (Z3Decider), only when some atom is outside that fragment
///    (three or more unknowns, Min/Max, an attribute named twice) and the
///    atoms inside it are satisfiable. Specs are data (Definition 2), so
///    a spec may leave the fragment at any time. The Z3 context, solver,
///    compiled spec templates (smt/SpecCompiler.h) and ϕin template are
///    built on the first such query; most solves never build one. Its
///    shape sessions keep the shape-determined part of ψ (Φ(H), axioms,
///    ϕin, ϕout) pushed across calls keyed on Psi::Shape, and assert the
///    partial-evaluation bindings in an inner push/pop scope.
///
/// Both decide ψ exactly, so which one answered never changes a verdict.
/// Around them sit the per-engine verdict cache and the cross-engine
/// RefutationStore (smt/RefutationStore.h): ⊥ verdicts are consulted
/// before and published after every decision, shared across portfolio
/// members and service workers.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_SMT_DEDUCE_H
#define MORPHEUS_SMT_DEDUCE_H

#include "lang/Hypothesis.h"
#include "smt/NativeDecide.h"
#include "smt/RefutationStore.h"
#include "spec/Abstraction.h"

#include <cstdint>
#include <memory>

namespace morpheus {

/// Aggregate counters the evaluation harness reports (Section 9 discusses
/// deduction time and prune rates).
struct DeduceStats {
  uint64_t Calls = 0;            ///< deduce() entries
  uint64_t Rejections = 0;       ///< verdicts that refuted the hypothesis
  uint64_t FastPathRejections = 0;
  uint64_t CacheHits = 0;        ///< per-engine verdict-cache hits
  uint64_t NativeDecisions = 0;  ///< queries the native decider settled
  uint64_t SolverChecks = 0;     ///< actual Z3 check() invocations
  uint64_t TemplateCompiles = 0; ///< spec formulas compiled to templates
  uint64_t TemplateHits = 0;     ///< template instantiations from cache
  uint64_t SessionBuilds = 0;    ///< shape scopes built from scratch
  uint64_t SessionHits = 0;      ///< calls that reused the open shape scope
  uint64_t StoreHits = 0;        ///< refutations served by the shared store
  uint64_t StoreInserts = 0;     ///< refutations published to the store
  uint64_t SolverPushes = 0;     ///< Z3 push() calls (shape + query scopes)
  uint64_t SolverPops = 0;       ///< Z3 pop() calls
  double SolverSeconds = 0;      ///< all of deduce()
  /// The Z3 fallback alone: lazy context build, session, push, check, pop.
  double Z3Seconds = 0;

  /// Queries actually decided, natively or by Z3: the solver work the
  /// verdict cache and the refutation store did not absorb.
  uint64_t decisions() const { return NativeDecisions + SolverChecks; }

  DeduceStats &operator+=(const DeduceStats &O) {
    Calls += O.Calls;
    Rejections += O.Rejections;
    FastPathRejections += O.FastPathRejections;
    CacheHits += O.CacheHits;
    NativeDecisions += O.NativeDecisions;
    SolverChecks += O.SolverChecks;
    TemplateCompiles += O.TemplateCompiles;
    TemplateHits += O.TemplateHits;
    SessionBuilds += O.SessionBuilds;
    SessionHits += O.SessionHits;
    StoreHits += O.StoreHits;
    StoreInserts += O.StoreInserts;
    SolverPushes += O.SolverPushes;
    SolverPops += O.SolverPops;
    SolverSeconds += O.SolverSeconds;
    Z3Seconds += O.Z3Seconds;
    return *this;
  }
};

/// Decides a Psi with Z3, for queries the native decider leaves open. Not
/// thread-safe (neither is its z3::context).
class Z3Decider {
public:
  explicit Z3Decider(const ExampleContext &Ex);
  ~Z3Decider();

  Z3Decider(const Z3Decider &) = delete;
  Z3Decider &operator=(const Z3Decider &) = delete;

  /// true iff ψ is satisfiable (or Z3 cannot tell). Counts session,
  /// push/pop, check and template work into \p Stats.
  bool decide(const Psi &Q, SpecLevel Level, DeduceStats &Stats);

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

/// Deduction engine. Not thread-safe; use one engine per search thread.
/// The ExampleContext and the RefutationStore it is wired to ARE shared
/// across engines.
class DeductionEngine {
public:
  /// Preferred constructor: \p Ex carries the example and its precomputed
  /// abstractions, shared across every engine solving the same example.
  explicit DeductionEngine(std::shared_ptr<const ExampleContext> Ex);
  /// Convenience: builds a private ExampleContext from the raw example.
  DeductionEngine(const std::vector<Table> &Inputs, const Table &Output);
  ~DeductionEngine();

  DeductionEngine(const DeductionEngine &) = delete;
  DeductionEngine &operator=(const DeductionEngine &) = delete;

  /// Algorithm 2. Returns false iff H provably cannot be unified with the
  /// example (⊥). \p UsePartialEval controls whether complete subtrees are
  /// evaluated and their abstractions conjoined.
  ///
  /// If partial evaluation discovers that a complete subtree fails to
  /// evaluate (a component rejects its arguments), the hypothesis is dead
  /// and false is returned as well.
  bool deduce(const HypPtr &H, SpecLevel Level, bool UsePartialEval);

  /// Memoized partial evaluation of a (sub)hypothesis against the example
  /// inputs. The cache is keyed on node identity — sound because trees are
  /// immutable and shared — and also serves the sketch-completion engine's
  /// candidate-universe computation.
  const std::optional<Table> &evaluateCached(const HypPtr &H);

  /// Drops the evaluation cache (called between sketches to bound memory).
  void clearEvalCache();

  /// Wires this engine to a shared refutation store: ⊥ verdicts of other
  /// engines over the SAME example short-circuit deduce here, and this
  /// engine's ⊥ verdicts are published back. The caller is responsible
  /// for scoping: a store must never be shared across different examples.
  void setRefutationStore(std::shared_ptr<RefutationStore> S);

  const std::shared_ptr<const ExampleContext> &exampleContext() const;

  const DeduceStats &stats() const { return Stats; }

private:
  struct Impl;
  std::unique_ptr<Impl> P;
  DeduceStats Stats;
};

} // namespace morpheus

#endif // MORPHEUS_SMT_DEDUCE_H
