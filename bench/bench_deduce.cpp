//===- bench/bench_deduce.cpp - Deduction substrate microbenchmark ------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures what the verdict cache and the refutation store remove from
// the deduction hot path, on a slice of the morpheus suite:
//
//  1. sequential baseline: decisions (native and Z3) and how many deduce
//     calls the verdict cache absorbs;
//  2. sequential sharing ablation with a program-parity check: the
//     sequential search is deterministic (modulo wall-clock timeout
//     boundaries), so refutation sharing must reproduce the identical
//     program on every commonly solved task — cold and warm;
//  3. portfolio ablation: refutation sharing off vs per-solve vs
//     process-wide — total decisions summed across ALL portfolio
//     members (the winner's siblings burn solver time too, which is
//     exactly what the shared store removes), with a second process-wide
//     pass showing cross-solve reuse. No program parity here: the
//     portfolio's first-solution-wins race may legitimately return a
//     different (equally valid) program run to run, sharing or not.
//
//   ./bench_deduce [limit] [timeout_ms] [threads]
//     limit      suite tasks to run               (default 24)
//     timeout_ms engine budget per solve          (default 5000)
//     threads    portfolio pool size              (default hardware)
//
//===----------------------------------------------------------------------===//

#include "io/ProgramIO.h"
#include "suite/Runner.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace morpheus;

namespace {

struct ArmResult {
  std::string Label;
  size_t Solved = 0;
  double WallSeconds = 0;
  DeduceStats Deduce; ///< summed across tasks and ALL portfolio members
  std::vector<std::string> Programs; ///< per task; "" when unsolved
};

/// Runs every task of \p Suite under \p Opts, summing DeduceStats over
/// every portfolio member (Solution.Workers), not just the winner.
ArmResult runArm(const std::string &Label,
                 const std::vector<BenchmarkTask> &Suite,
                 const EngineOptions &Opts) {
  ArmResult Out;
  Out.Label = Label;
  for (const BenchmarkTask &T : Suite) {
    Engine E(libraryForTask(T), Opts);
    Solution S = E.solve(toProblem(T));
    Out.Solved += bool(S);
    Out.WallSeconds += S.Seconds;
    if (S.Workers.empty()) {
      Out.Deduce += S.Stats.Deduce;
    } else {
      for (const PortfolioWorkerResult &W : S.Workers)
        Out.Deduce += W.Stats.Deduce;
    }
    Out.Programs.push_back(S ? printSexp(S.Program) : std::string());
  }
  return Out;
}

void printArm(const ArmResult &A) {
  const DeduceStats &D = A.Deduce;
  std::printf("  %-22s %3zu solved %8.2fs  decisions %9llu (z3 %6llu)  "
              "cache %9llu  session %6llu  store %8llu/%llu\n",
              A.Label.c_str(), A.Solved, A.WallSeconds,
              (unsigned long long)D.decisions(),
              (unsigned long long)D.SolverChecks,
              (unsigned long long)D.CacheHits,
              (unsigned long long)D.SessionHits,
              (unsigned long long)D.StoreHits,
              (unsigned long long)D.StoreInserts);
}

/// Tasks solved by BOTH arms must synthesize the identical program; an
/// arm may solve strictly more only by outrunning the other's timeout.
bool paritize(const ArmResult &Base, const ArmResult &Arm) {
  bool Ok = true;
  for (size_t I = 0; I != Base.Programs.size(); ++I) {
    if (Base.Programs[I].empty() || Arm.Programs[I].empty())
      continue;
    if (Base.Programs[I] != Arm.Programs[I]) {
      std::printf("  PARITY VIOLATION task #%zu:\n    %s\n    %s\n", I,
                  Base.Programs[I].c_str(), Arm.Programs[I].c_str());
      Ok = false;
    }
  }
  return Ok;
}

} // namespace

int main(int argc, char **argv) {
  size_t Limit = argc > 1 ? size_t(std::atoi(argv[1])) : 24;
  int TimeoutMs = argc > 2 ? std::atoi(argv[2]) : 5000;
  unsigned Threads = argc > 3 ? unsigned(std::atoi(argv[3])) : 0;

  std::vector<BenchmarkTask> Suite = morpheusSuite();
  if (Suite.size() > Limit)
    Suite.resize(Limit);

  std::printf("bench_deduce: %zu task(s), timeout %d ms\n\n", Suite.size(),
              TimeoutMs);

  EngineOptions Seq;
  Seq.timeout(std::chrono::milliseconds(TimeoutMs));

  // ------------------------------------------------ 1. sequential baseline
  ArmResult SeqOff = runArm(
      "sequential/off", Suite,
      EngineOptions(Seq).refutationSharing(RefutationSharing::Off));
  std::printf("sequential baseline (verdict cache only):\n");
  printArm(SeqOff);
  {
    const DeduceStats &D = SeqOff.Deduce;
    std::printf("    %.1f%% of %llu deduce calls needed no decision; "
                "%llu of %llu decisions went to Z3 (%llu scope "
                "rebuilds, %llu push/pop)\n\n",
                D.Calls ? 100.0 * double(D.Calls - D.decisions()) /
                              double(D.Calls)
                        : 0.0,
                (unsigned long long)D.Calls,
                (unsigned long long)D.SolverChecks,
                (unsigned long long)D.decisions(),
                (unsigned long long)D.SessionBuilds,
                (unsigned long long)D.SolverPushes);
  }

  // -------------------------- 2. sequential sharing ablation, with parity
  RefutationStore::clearProcessScope();
  ArmResult SeqCold = runArm(
      "sequential/process #1", Suite,
      EngineOptions(Seq).refutationSharing(RefutationSharing::ProcessWide));
  ArmResult SeqWarm = runArm(
      "sequential/process #2", Suite,
      EngineOptions(Seq).refutationSharing(RefutationSharing::ProcessWide));
  std::printf("sequential sharing ablation:\n");
  printArm(SeqCold);
  printArm(SeqWarm);
  bool Ok = paritize(SeqOff, SeqCold) && paritize(SeqOff, SeqWarm);
  double SeqDrop =
      SeqOff.Deduce.decisions()
          ? 100.0 * (1.0 - double(SeqWarm.Deduce.decisions()) /
                               double(SeqOff.Deduce.decisions()))
          : 0.0;
  std::printf("  warm decisions %llu vs %llu baseline (-%.1f%%); parity "
              "(identical programs on commonly solved tasks): %s\n\n",
              (unsigned long long)SeqWarm.Deduce.decisions(),
              (unsigned long long)SeqOff.Deduce.decisions(), SeqDrop,
              Ok ? "OK" : "FAILED");

  // ---------------------------------------------- 3. portfolio sharing arms
  EngineOptions Par(Seq);
  Par.strategy(Strategy::Portfolio).threads(Threads);

  RefutationStore::clearProcessScope();
  ArmResult Off = runArm(
      "portfolio/off", Suite,
      EngineOptions(Par).refutationSharing(RefutationSharing::Off));
  ArmResult PerSolve = runArm(
      "portfolio/per-solve", Suite,
      EngineOptions(Par).refutationSharing(RefutationSharing::PerSolve));
  ArmResult Process = runArm(
      "portfolio/process #1", Suite,
      EngineOptions(Par).refutationSharing(RefutationSharing::ProcessWide));
  ArmResult Process2 = runArm(
      "portfolio/process #2", Suite,
      EngineOptions(Par).refutationSharing(RefutationSharing::ProcessWide));

  std::printf("portfolio ablation (deduce counters summed over ALL "
              "members):\n");
  printArm(Off);
  printArm(PerSolve);
  printArm(Process);
  printArm(Process2);

  double Drop1 = Off.Deduce.decisions()
                     ? 100.0 * (1.0 - double(PerSolve.Deduce.decisions()) /
                                          double(Off.Deduce.decisions()))
                     : 0.0;
  double Drop2 = Off.Deduce.decisions()
                     ? 100.0 * (1.0 - double(Process2.Deduce.decisions()) /
                                          double(Off.Deduce.decisions()))
                     : 0.0;
  std::printf("\n  decisions: %llu (off) -> %llu (per-solve, -%.1f%%) -> "
              "%llu (process-wide warm, -%.1f%%)\n",
              (unsigned long long)Off.Deduce.decisions(),
              (unsigned long long)PerSolve.Deduce.decisions(), Drop1,
              (unsigned long long)Process2.Deduce.decisions(), Drop2);
  std::printf("  (solved counts may differ by timeout-boundary tasks only; "
              "program identity is asserted on the deterministic\n   "
              "sequential arms above and by tests/DeduceParityTest)\n");
  RefutationStore::clearProcessScope();
  return Ok ? 0 : 1;
}
