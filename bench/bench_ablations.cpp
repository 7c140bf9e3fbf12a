//===- bench/bench_ablations.cpp - Design-choice ablations ---------------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The worklist-ordering ablation called out in DESIGN.md §3 (E8), on a
/// stratified sample of the suite (every 4th task) to stay fast: n-gram
/// ordering (Section 8) vs plain size ordering, plus the total deduction
/// time of the paper's arm.
///
/// Usage: bench_ablations [timeout_ms]
///
//===----------------------------------------------------------------------===//

#include "suite/Runner.h"

#include <cstdio>
#include <cstdlib>

using namespace morpheus;

namespace {

void report(const char *Name, const std::vector<TaskResult> &Results) {
  std::printf("  %-28s solved=%zu/%zu median=%.2fs\n", Name,
              solvedCount(Results), Results.size(),
              medianSolvedTime(Results));
}

} // namespace

int main(int argc, char **argv) {
  int TimeoutMs = argc > 1 ? std::atoi(argv[1]) : 3000;
  std::chrono::milliseconds Timeout(TimeoutMs);

  std::vector<BenchmarkTask> Sample;
  const auto &Suite = morpheusSuite();
  for (size_t I = 0; I < Suite.size(); I += 4)
    Sample.push_back(Suite[I]);

  std::printf("Ablations on a %zu-task stratified sample "
              "(timeout %d ms)\n\n",
              Sample.size(), TimeoutMs);

  std::printf("worklist ordering:\n");
  SynthesisConfig Cfg = configSpec2(Timeout);
  std::vector<TaskResult> Paper = runSuite(Sample, Cfg);
  report("2-gram + size (paper)", Paper);
  Cfg.UseNGram = false;
  report("size only", runSuite(Sample, Cfg));

  double Deduce = 0;
  for (const TaskResult &R : Paper)
    Deduce += R.Stats.Deduce.SolverSeconds;
  std::printf("\ntotal deduction time (paper arm): %.2fs across the "
              "sample\n",
              Deduce);
  return 0;
}
