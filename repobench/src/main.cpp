//===- main.cpp - repobench entry point -----------------------------------===//
//
//   repobench --workload search|serve-hot --seed N
//             --seconds S --trace 0|1 [--golden FILE] [--out DIR]
//             [--setup-only 1]
//
// Prints a human-readable report and, as the last line of standard output,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics; traced runs (--trace 1) run the
// timed phase untraced and then traced, and report the per-layer metrics,
// each layer's self time and the tracing overhead.
//
//===----------------------------------------------------------------------===//

#include "Catalogue.h"
#include "Harness.h"

#include "suite/Runner.h"
#include "table/Table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>
#include <time.h>

using namespace morpheus;

namespace repobench {

const BenchmarkTask &Context::task(const std::string &Id) const {
  auto It = Tasks.find(Id);
  if (It == Tasks.end())
    throw std::runtime_error("unknown task " + Id);
  return *It->second;
}

const std::vector<std::string> &deepTasks() {
  static const std::vector<std::string> Ids = {"C2-04", "C4-12", "C4-13",
                                               "C4-14"};
  return Ids;
}

const std::vector<std::string> &excludedTasks() {
  static const std::vector<std::string> Ids = {
      "C5-10", "C5-11", "C7-01", "C8-01", "C8-02", "C8-03", "C8-04", "C9-01"};
  return Ids;
}

std::vector<std::string> shortMorpheusTasks() {
  std::vector<std::string> Out;
  auto In = [](const std::vector<std::string> &V, const std::string &Id) {
    return std::find(V.begin(), V.end(), Id) != V.end();
  };
  for (const BenchmarkTask &T : morpheusSuite())
    if (!In(deepTasks(), T.Id) && !In(excludedTasks(), T.Id))
      Out.push_back(T.Id);
  return Out;
}

EngineOptions servingOptions() {
  EngineOptions Opts;
  Opts.config(configSpec2(std::chrono::milliseconds(30000)))
      .refutationSharing(RefutationSharing::PerSolve);
  return Opts;
}

bool matchesGolden(const Context &Ctx, const BenchmarkTask &T,
                   const HypPtr &Program) {
  auto It = Ctx.Golden.find(T.Id);
  if (It == Ctx.Golden.end() || !Program)
    return false;
  std::optional<Table> Out = Program->evaluate(T.Inputs);
  if (!Out)
    return false;
  return sameTable(It->second.Output, parseRender(Out->toString()),
                   T.OrderedCompare);
}

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

double processCpuSeconds() {
  timespec Ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) + double(Ts.tv_nsec) / 1e9;
}

void recordSpans(const Args &A, const std::vector<const SpanLog *> &Logs,
                 Report &R) {
  std::array<double, kNumLayers> Self = selfSeconds(Logs);
  uint64_t Spans = 0;
  for (const SpanLog *Log : Logs)
    Spans += Log->recorded();
  for (size_t I = 0; I != kNumLayers; ++I)
    R.Layers[std::string("self_s.") + layerName(Layer(I))] = Self[I];
  R.Layers["trace.spans"] = double(Spans);
  std::ofstream Out(A.OutDir + "/trace-" + A.Workload + ".jsonl");
  writeSpans(Out, Logs);
}

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "error: %s\nusage: repobench --workload search|serve-hot "
               "--seed N --seconds S --trace 0|1 "
               "[--golden FILE] [--out DIR] [--setup-only 1]\n",
               Msg);
  return 2;
}

/// Prints a metric value with all its digits.
std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

std::string jsonMetric(const char *Name, double V, const char *Unit) {
  return std::string("\"") + Name + "\": {\"value\": " + num(V) +
         ", \"unit\": \"" + Unit + "\"}";
}

/// Mean time per operation, over every latency the phase kept.
double meanLatency(const Phase &P) {
  std::vector<double> All = P.LatencyMs;
  for (const Window &W : P.Windows)
    All.insert(All.end(), W.LatencyMs.begin(), W.LatencyMs.end());
  return mean(All);
}

/// Set-ups per run: this process's own plus this many set-up-only child
/// processes, run one after another before it. Each child starts a fresh
/// process, so one-time work (suite construction, static tables) is in
/// every sample, and setup_s reports their median. Search sets up in a few
/// milliseconds, which page faults and cold caches move by a third from one
/// process to the next, so it takes more samples; serve-hot's set-up solves
/// 68 tasks (about 4 s) and varies far less.
int setupChildren(const std::string &Workload) {
  return Workload == "search" ? 8 : 2;
}

std::string shellQuote(const std::string &S) {
  std::string Out = "'";
  for (char C : S)
    Out += C == '\'' ? std::string("'\\''") : std::string(1, C);
  return Out + "'";
}

/// Runs this binary with the same arguments plus --setup-only 1 and
/// returns the set-up seconds it reports; nullopt when it fails.
std::optional<double> childSetupSeconds(int Argc, char **Argv) {
  std::error_code Ec;
  std::string Cmd =
      shellQuote(std::filesystem::read_symlink("/proc/self/exe", Ec).string());
  if (Ec)
    return std::nullopt;
  for (int I = 1; I < Argc; ++I)
    Cmd += " " + shellQuote(Argv[I]);
  Cmd += " --setup-only 1";
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return std::nullopt;
  std::optional<double> Out;
  char Line[256];
  while (std::fgets(Line, sizeof Line, P)) {
    double V;
    if (std::sscanf(Line, "setup_seconds %lf", &V) == 1)
      Out = V;
  }
  if (pclose(P) != 0)
    return std::nullopt;
  return Out;
}

} // namespace
} // namespace repobench

using namespace repobench;

int main(int Argc, char **Argv) {
  Context Ctx;
  Ctx.ProcessStartNs = double(nowNs());
  Args A;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + K).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--golden")
      A.Golden = V;
    else if (K == "--out")
      A.OutDir = V;
    else if (K == "--setup-only")
      A.SetupOnly = V == "1";
    else
      return usage(("unknown option " + K).c_str());
    if (End && *End)
      return usage(("bad number for " + K).c_str());
  }
  if (A.Workload != "search" && A.Workload != "serve-hot")
    return usage("--workload must be search or serve-hot");
  if (!(A.Seconds > 0))
    return usage("--seconds must be positive");

  Report R;
  if (!A.SetupOnly) {
    for (int I = 0; I != setupChildren(A.Workload); ++I) {
      std::optional<double> S = childSetupSeconds(Argc, Argv);
      if (!S) {
        std::fprintf(stderr, "error: set-up-only child process failed\n");
        return 1;
      }
      R.SetupSeconds.push_back(*S);
    }
    // This process's own set-up starts once its children are done.
    Ctx.ProcessStartNs = double(nowNs());
  }

  std::ifstream GoldenIn(A.Golden);
  std::string Err;
  if (!GoldenIn || !parseGoldenRenders(GoldenIn, Ctx.Golden, &Err)) {
    std::fprintf(stderr, "error: cannot read golden renders %s: %s\n",
                 A.Golden.c_str(), Err.empty() ? "missing file" : Err.c_str());
    return 1;
  }
  for (const BenchmarkTask &T : morpheusSuite())
    Ctx.Tasks[T.Id] = &T;
  for (const BenchmarkTask &T : sqlSuite())
    Ctx.Tasks[T.Id] = &T;
  std::filesystem::create_directories(A.OutDir);

  try {
    if (A.Workload == "search")
      runSearch(A, Ctx, R);
    else
      runServeHot(A, Ctx, R);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return 1;
  }
  if (A.SetupOnly) {
    std::printf("setup_seconds %.17g\n", R.SetupSeconds.back());
    return 0;
  }

  const Phase &U = R.Untraced;
  Summary Sum = U.summary();
  const Tail &T = Sum.TailOfWindow;
  double OkShare = U.Attempted ? 1.0 - double(U.Failed) / double(U.Attempted) : 0;
  std::map<std::string, double> E2E = {
      {"setup_s", median(R.SetupSeconds)},
      {"ops_per_s", Sum.OpsPerS},
      {"latency_p50_ms", Sum.P50},
      {"latency_tail_ms", Sum.TailValue},
      {"ok_share", OkShare},
      {"peak_rss_mb", peakRssMb()},
  };

  std::printf("repobench workload=%s seed=%llu seconds=%g trace=%d\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, A.Seconds,
              int(A.Trace));
  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());
  std::printf("set-ups (s, children first):");
  for (double S : R.SetupSeconds)
    std::printf(" %.4f", S);
  std::printf("\n");
  std::printf("attempted=%llu failed=%llu mismatches=%llu checked=%llu "
              "fail_share=%.6f ratio\n",
              (unsigned long long)U.Attempted, (unsigned long long)U.Failed,
              (unsigned long long)U.Mismatches, (unsigned long long)U.Checked,
              U.Attempted ? double(U.Failed) / double(U.Attempted) : 0.0);
  if (Sum.Windows > 1) {
    std::vector<double> Rates;
    for (const Window &W : U.Windows)
      Rates.push_back(double(W.Ops) / U.WindowS);
    std::sort(Rates.begin(), Rates.end());
    std::printf("statistics: medians over %zu windows of %g s; window rates "
                "min %.0f p25 %.0f p50 %.0f p75 %.0f max %.0f\n",
                Sum.Windows, U.WindowS, Rates.front(),
                percentileSorted(Rates, 25), percentileSorted(Rates, 50),
                percentileSorted(Rates, 75), Rates.back());
  }
  std::printf("timed phase: %.3f s wall\n", U.WallSeconds);
  std::printf("latency tail = p%g over %zu samples, %zu beyond%s\n",
              T.Percentile, T.Samples, T.Beyond,
              Sum.Windows > 1 ? " (first window)" : "");
  for (const MetricDef &M : kEndToEnd)
    std::printf("  %-18s %14.6f %s\n", M.Name, E2E[M.Name], M.Unit);

  if (R.HaveTraced) {
    double Base = meanLatency(U), Traced = meanLatency(R.Traced);
    R.Layers["trace.overhead_pct"] = Base > 0 ? 100.0 * (Traced / Base - 1) : 0;
    Summary TS = R.Traced.summary();
    std::printf("traced phase: ops_per_s=%.6f latency_p50_ms=%.6f "
                "attempted=%llu failed=%llu mismatches=%llu\n",
                TS.OpsPerS, TS.P50,
                (unsigned long long)R.Traced.Attempted,
                (unsigned long long)R.Traced.Failed,
                (unsigned long long)R.Traced.Mismatches);
    std::printf("tracing overhead (mean time per op, traced vs untraced): "
                "%+.2f%%\n",
                R.Layers["trace.overhead_pct"]);
    std::printf("self time by layer (s):");
    for (size_t I = 0; I != kNumLayers; ++I)
      std::printf(" %s=%.4f", layerName(Layer(I)),
                  R.Layers[std::string("self_s.") + layerName(Layer(I))]);
    std::printf("\n");
    for (const MetricDef &M : kPerLayer)
      std::printf("  %-26s %18.6f %s\n", M.Name, R.Layers[M.Name], M.Unit);
  }

  bool Correct = U.Mismatches == 0 && R.Traced.Mismatches == 0 &&
                 R.ProbeMismatches == 0;
  std::ostringstream J;
  J << "{\"correct\": " << (Correct ? "true" : "false")
    << ", \"attempted\": " << U.Attempted << ", \"failed\": " << U.Failed
    << ", \"metrics\": {";
  bool First = true;
  auto Emit = [&](const MetricDef &M, double V) {
    J << (First ? "" : ", ") << jsonMetric(M.Name, V, M.Unit);
    First = false;
  };
  if (A.Trace)
    for (const MetricDef &M : kPerLayer)
      Emit(M, R.Layers[M.Name]);
  else
    for (const MetricDef &M : kEndToEnd)
      Emit(M, E2E[M.Name]);
  J << "}}";
  std::printf("%s\n", J.str().c_str());
  return 0;
}
