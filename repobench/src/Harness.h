//===- Harness.h - Shared pieces of the three workloads ---------*- C++ -*-===//
//
// Every workload follows the same shape: set up (several times, reporting
// the median), run the timed phase, check every program it produced against
// the golden renders, and fill a Report with the end-to-end metrics (always
// measured untraced) or, in a traced run, the per-layer metrics.
//
//===----------------------------------------------------------------------===//

#ifndef REPOBENCH_HARNESS_H
#define REPOBENCH_HARNESS_H

#include "Golden.h"
#include "Stats.h"
#include "Trace.h"

#include "api/Engine.h"
#include "suite/Task.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace repobench {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Set up once, report the time taken and stop (see main.cpp).
  bool SetupOnly = false;
  std::string Golden = "tests/golden/suite_renders.txt";
  std::string OutDir = ".bench_build/repobench/out"; ///< trace + report files
};

/// What one timed phase measured, before it is turned into metrics.
struct Phase {
  /// The time ops_per_s is taken over: the wall-clock length of the phase,
  /// or on search the CPU time its solves took (see Search.cpp).
  double Seconds = 0;
  double WallSeconds = 0;
  /// Unwindowed phases: one latency per attempted operation.
  std::vector<double> LatencyMs;
  /// Windowed phases: the whole windows, each WindowS long (see summarize()).
  std::vector<Window> Windows;
  double WindowS = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;       ///< timeouts, exhausted, refused, mismatches
  uint64_t Mismatches = 0;   ///< golden-output mismatches (also in Failed)
  uint64_t Checked = 0;      ///< distinct programs re-evaluated and compared

  Summary summary() const {
    return Windows.empty() ? summarize(LatencyMs, Seconds)
                           : summarize(Windows, WindowS);
  }
};

struct Report {
  /// One per set-up: this process's own and its set-up-only children's,
  /// each from main() entry until the timed phase could begin.
  std::vector<double> SetupSeconds;
  Phase Untraced;
  bool HaveTraced = false;
  Phase Traced;                 ///< traced run only: the traced phase
  /// Traced run only: per-layer metric values by name (Catalogue.h gives
  /// their units; names a workload leaves out read 0).
  std::map<std::string, double> Layers;
  std::vector<std::string> Notes; ///< extra report lines
  /// Golden-output mismatches outside the timed phases (the traced
  /// serve-hot run's cluster probe).
  uint64_t ProbeMismatches = 0;
};

/// Process-wide inputs: the golden renders and the suite tasks by id.
struct Context {
  std::map<std::string, GoldenTask> Golden;
  std::map<std::string, const morpheus::BenchmarkTask *> Tasks;
  double ProcessStartNs = 0; ///< steady clock at main() entry
  const morpheus::BenchmarkTask &task(const std::string &Id) const;
};

/// The 68 morpheus-suite tasks the parent commit solves in under a second
/// (every task of the suite except the deep and the unsolved ones below).
std::vector<std::string> shortMorpheusTasks();
/// Deep tasks kept in the search workload: C2-04 (the paper's Example 2),
/// C4-12, C4-13, C4-14.
const std::vector<std::string> &deepTasks();
/// Tasks no workload draws: each needs 13-30+ s, three stay unsolved at
/// 30 s (C5-10, C5-11, C7-01, C8-01..04, C9-01).
const std::vector<std::string> &excludedTasks();

/// Engine options of the serving workloads: the paper's Spec 2 with
/// per-solve refutation sharing and a 30 s budget, as `morpheus serve`.
morpheus::EngineOptions servingOptions();

/// Re-evaluates \p Program on \p T's inputs and compares the result with
/// T's golden output. False when evaluation fails or the tables differ.
bool matchesGolden(const Context &Ctx, const morpheus::BenchmarkTask &T,
                   const morpheus::HypPtr &Program);

/// Traced runs: adds each layer's self time and the span count to
/// R.Layers and writes the kept spans to <out>/trace-<workload>.jsonl.
void recordSpans(const Args &A, const std::vector<const SpanLog *> &Logs,
                 Report &R);

double peakRssMb();
double processCpuSeconds();
/// Microseconds per call of \p Fn, timed over \p Reps calls.
template <typename F> double usPerCall(unsigned Reps, F &&Fn) {
  uint64_t T0 = nowNs();
  for (unsigned I = 0; I != Reps; ++I)
    Fn();
  return double(nowNs() - T0) / 1e3 / Reps;
}

/// splitmix64: the benchmark's only source of randomness, seeded by --seed.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  double uniform() { return double(next() >> 11) * 0x1.0p-53; }
  size_t below(size_t N) { return size_t(next() % N); }
};

void runSearch(const Args &A, const Context &Ctx, Report &R);
void runServeHot(const Args &A, const Context &Ctx, Report &R);
/// The cluster probe of serve-hot's traced run (ClusterChurn.cpp): adds
/// the service write-side, cluster, net and generator metrics to
/// R.Layers and returns its span logs, tagged from \p FirstTag on.
std::vector<std::unique_ptr<SpanLog>>
probeClusterChurn(const Args &A, const Context &Ctx, uint32_t FirstTag,
                  Report &R);

} // namespace repobench

#endif // REPOBENCH_HARNESS_H
