//===- bench/bench_prune_rate.cpp - Section 9 prune-rate claim ----------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the Section 9 statistic: "when using partial evaluation,
/// MORPHEUS can prune 72% of the partial programs without having to fill
/// all holes in the sketch". Runs Spec 2 + partial evaluation over the 80
/// benchmarks and reports the fraction of partially filled sketches
/// rejected by deduction before completion, plus two shares of runtime:
/// all of deduce() (DeduceStats::SolverSeconds: partial evaluation, α,
/// key building, cache lookups and the decisions) and Z3 alone
/// (DeduceStats::Z3Seconds: the fallback for queries outside the native
/// decider's fragment), next to the number of native decisions.
///
/// Usage: bench_prune_rate [timeout_ms]
///
//===----------------------------------------------------------------------===//

#include "suite/Runner.h"

#include <cstdio>
#include <cstdlib>

using namespace morpheus;

int main(int argc, char **argv) {
  int TimeoutMs = argc > 1 ? std::atoi(argv[1]) : 3000;
  std::vector<TaskResult> Results = runSuite(
      morpheusSuite(), configSpec2(std::chrono::milliseconds(TimeoutMs)));

  uint64_t Tried = 0, Pruned = 0, Native = 0, Checks = 0;
  double Elapsed = 0, Deduce = 0, Z3 = 0;
  for (const TaskResult &R : Results) {
    Tried += R.Stats.PartialFillsTried;
    Pruned += R.Stats.PartialFillsPruned;
    Elapsed += R.Stats.ElapsedSeconds;
    Deduce += R.Stats.Deduce.SolverSeconds;
    Z3 += R.Stats.Deduce.Z3Seconds;
    Native += R.Stats.Deduce.NativeDecisions;
    Checks += R.Stats.Deduce.SolverChecks;
  }
  std::printf("partial fills tried:   %llu\n", (unsigned long long)Tried);
  std::printf("pruned before filling all holes: %llu (%.1f%%)\n",
              (unsigned long long)Pruned,
              Tried ? 100.0 * double(Pruned) / double(Tried) : 0.0);
  std::printf("deduction share of runtime: %.1f%% (%.1fs of %.1fs)\n",
              Elapsed ? 100.0 * Deduce / Elapsed : 0.0, Deduce, Elapsed);
  std::printf("z3 share of runtime: %.1f%% (%.2fs; %llu checks, %llu "
              "native decisions)\n",
              Elapsed ? 100.0 * Z3 / Elapsed : 0.0, Z3,
              (unsigned long long)Checks, (unsigned long long)Native);
  std::printf("\nPaper: 72%% of partial programs pruned without filling "
              "all holes; ~15%% of time in SMT (68%% was the R "
              "interpreter, which this reproduction replaces with native "
              "evaluation).\n");
  return 0;
}
