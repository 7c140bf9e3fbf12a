//===- ClusterChurn.cpp - The cluster probe of serve-hot's traced run -----===//
//
// Cluster churn, run for a fixed ten seconds inside serve-hot's traced run
// to give the per-layer metrics of the service's write side, the cluster
// and the wire codec. It is not a workload of its own: its end-to-end
// latencies, timed through loopback TCP and thread hand-offs and split
// between cache hits and re-solves, spread far wider from run to run on a
// shared VM than any bound a regression check could use.
//
// Two in-process WorkerNodes on loopback TCP behind a ClusterClient. Each
// worker has one solve thread and a ResultCache smaller than its shard of
// the working set, so misses, inserts, LRU evictions, re-solves,
// coalescing and queue wait go on for the whole probe instead of only during
// warm-up. One generator thread submits at a fixed rate below capacity
// (open loop) from a seeded, Zipf-skewed stream over the 68 short morpheus
// tasks (fixed per-task counts, seeded order). Each request's latency is
// timed from the moment it was due, so a stall also charges the requests
// it delays.
//
// Collector threads stamp completions. ClusterJob offers no completion
// callback, so a collector waits on one job for at most one poll interval
// and, when it is still running, moves it to a queue of slow jobs that the
// collectors cycle through. One collector takes only fresh jobs, so a fast
// cache hit never waits for a slow re-solve submitted before it. A job
// found already finished is counted as a "late stamp", with how long it
// may have waited since a collector last saw it running.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "cluster/ClusterClient.h"
#include "cluster/WorkerNode.h"
#include "interp/Components.h"
#include "io/ProblemIO.h"
#include "io/ProgramIO.h"
#include "net/Wire.h"
#include "suite/Runner.h"

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

using namespace morpheus;

namespace repobench {
namespace {

constexpr unsigned kWorkers = 2;
/// Each shard owns about 34 of the 68 tasks. 12 cache entries and
/// Zipf(1.4) popularity give about 84% hits: the median request is a hit,
/// and the p90 tail falls among the many short re-solves rather than on
/// the few slow ones, which would make it swing with the request order.
constexpr size_t kCachePerWorker = 12;
constexpr double kZipf = 1.4;
/// Requests per second. The busier shard's one solve thread is then busy
/// about a third of the time on a 4-core x86 box: well below capacity,
/// so queues drain between bursts.
constexpr double kRate = 30;
/// The length of the probe's open loop (300 requests).
constexpr double kProbeSeconds = 10;
/// The generator plus three collectors: four client threads.
constexpr unsigned kCollectors = 3;
/// How long a collector waits on one job before trying another (the
/// finest wait ClusterJob offers).
constexpr std::chrono::milliseconds kPoll{1};

struct Setup {
  std::vector<const BenchmarkTask *> Tasks;
  std::vector<Problem> Problems;
  std::vector<std::unique_ptr<WorkerNode>> Workers;
  std::unique_ptr<ClusterClient> Client; // destroyed before the workers
};

/// Task indices from most to least popular. The ranking is fixed (a hash
/// of the task id), so the seed changes the draws and their order but not
/// which tasks are hot.
std::vector<size_t> popularityOrder(const std::vector<const BenchmarkTask *> &Tasks) {
  std::vector<std::pair<uint64_t, size_t>> Keyed;
  for (size_t I = 0; I != Tasks.size(); ++I) {
    uint64_t H = 1469598103934665603ull; // FNV-1a
    for (char C : Tasks[I]->Id)
      H = (H ^ uint8_t(C)) * 1099511628211ull;
    Keyed.push_back({H, I});
  }
  std::sort(Keyed.begin(), Keyed.end());
  std::vector<size_t> Order;
  for (const auto &KI : Keyed)
    Order.push_back(KI.second);
  return Order;
}

Setup setUp(const Context &Ctx) {
  Setup S;
  for (const std::string &Id : shortMorpheusTasks()) {
    const BenchmarkTask &T = Ctx.task(Id);
    S.Tasks.push_back(&T);
    S.Problems.push_back(toProblem(T));
  }
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  ClusterOptions COpts;
  for (unsigned I = 0; I != kWorkers; ++I) {
    S.Workers.push_back(std::make_unique<WorkerNode>(
        Lib, servingOptions(),
        ServiceOptions().workers(1).cacheCapacity(kCachePerWorker)));
    std::string Err;
    if (!S.Workers.back()->start(&Err))
      throw std::runtime_error("worker failed to start: " + Err);
    COpts.Workers.push_back({"127.0.0.1", S.Workers.back()->port()});
  }
  S.Client = std::make_unique<ClusterClient>(
      Lib, servingOptions(), ServiceOptions().workers(1), COpts);
  if (!S.Client->waitForWorkers(kWorkers, std::chrono::seconds(10)))
    throw std::runtime_error("cluster links did not come up");
  // Warm-up: every task once, least popular first, so each shard ends up
  // with refutation scopes for all its tasks and its most popular tasks in
  // cache: timing starts near the steady state instead of a cold start.
  // (Warming only the cached tasks leaves first solves of the rest in the
  // timed phase, and the p90 tail then spread twice as wide over seeds.)
  // Submitted all at once: each shard solves its share in submission
  // order on its one solve thread, so its cache ends in that order too.
  std::vector<size_t> Order = popularityOrder(S.Tasks);
  std::vector<ClusterJob> Warm;
  for (auto It = Order.rbegin(); It != Order.rend(); ++It)
    Warm.push_back(S.Client->submit(S.Problems[*It]));
  for (const ClusterJob &J : Warm)
    J.get();
  return S;
}

/// The request stream: N task indices whose counts follow Zipf(kZipf)
/// over the popularity order (largest-remainder rounding, so every seed
/// sends each task equally often). A task's k requests are spread evenly
/// over the stream, one at a seeded random point in each k-th of it: the
/// seed changes the order, but no seed bunches one task's requests, so
/// which requests miss the cache varies little from seed to seed.
std::vector<size_t> requestStream(const Setup &S, size_t N, uint64_t Seed) {
  std::vector<size_t> Order = popularityOrder(S.Tasks);
  std::vector<double> Weight(Order.size());
  double Sum = 0;
  for (size_t Rank = 0; Rank != Order.size(); ++Rank)
    Sum += Weight[Rank] = 1.0 / std::pow(double(Rank + 1), kZipf);
  std::vector<size_t> Count(Order.size());
  std::vector<std::pair<double, size_t>> Remainder;
  size_t Given = 0;
  for (size_t Rank = 0; Rank != Order.size(); ++Rank) {
    double Exact = double(N) * Weight[Rank] / Sum;
    Count[Rank] = size_t(Exact);
    Given += Count[Rank];
    Remainder.push_back({Exact - double(Count[Rank]), Rank});
  }
  std::sort(Remainder.rbegin(), Remainder.rend());
  for (size_t I = 0; Given < N; ++I, ++Given)
    ++Count[Remainder[I].second];
  Rng R(Seed);
  std::vector<std::pair<double, size_t>> Placed; // (position in [0,1), task)
  for (size_t Rank = 0; Rank != Order.size(); ++Rank)
    for (size_t J = 0; J != Count[Rank]; ++J)
      Placed.push_back({(double(J) + R.uniform()) / double(Count[Rank]),
                        Order[Rank]});
  std::sort(Placed.begin(), Placed.end());
  std::vector<size_t> Stream;
  for (const auto &PT : Placed)
    Stream.push_back(PT.second);
  return Stream;
}

struct Pending {
  ClusterJob Job;
  size_t Task = 0;
  uint64_t Req = 0;
  uint64_t DueNs = 0, SubmitNs = 0, SubmittedNs = 0;
  uint64_t LastSeenNs = 0; ///< last time a collector saw it still running
  uint64_t RootId = 0;
};

struct Done {
  size_t Task = 0;
  double LatencyMs = 0, QueueMs = 0, SolveMs = 0, OverheadMs = 0;
  uint64_t EndNs = 0;
  std::string Source;
  int Attempts = 0;
  bool Solved = false;
  std::string Sexp;
  /// Completed while no collector was waiting on it: its stamp may be late
  /// by up to StampErrMs (time since a collector last saw it running).
  bool LateStamp = false;
  double StampErrMs = 0;
};

struct Collector {
  std::vector<Done> Out;
  std::unique_ptr<SpanLog> Log;
};

/// The generator-to-collector hand-off. Fresh jobs (just submitted) and
/// slow ones (seen still running) wait in separate queues, and fresh ones
/// are taken first: a cache hit is picked up at once instead of waiting
/// behind re-solves that collectors keep cycling through. Busy counts the
/// jobs a collector holds, so no collector leaves while one may still be
/// put back.
struct Inbox {
  std::mutex M;
  std::condition_variable CV;
  std::deque<Pending> Fresh, Slow;
  size_t Busy = 0;
  bool Closed = false;

  void push(Pending P) {
    {
      std::lock_guard<std::mutex> L(M);
      Fresh.push_back(std::move(P));
    }
    CV.notify_all();
  }
  /// Takes a job, fresh ones first; \p FreshOnly marks the collector
  /// reserved for fresh jobs. False once no job is left to take.
  bool pop(Pending &P, bool FreshOnly) {
    std::unique_lock<std::mutex> L(M);
    auto Ready = [&] { return !Fresh.empty() || (!FreshOnly && !Slow.empty()); };
    auto Over = [&] {
      return Closed && Fresh.empty() && (FreshOnly || (Slow.empty() && !Busy));
    };
    CV.wait(L, [&] { return Ready() || Over(); });
    if (!Ready())
      return false;
    std::deque<Pending> &Q = Fresh.empty() ? Slow : Fresh;
    P = std::move(Q.front());
    Q.pop_front();
    ++Busy;
    return true;
  }
  /// Hands back a job that is still running.
  void requeue(Pending P) {
    {
      std::lock_guard<std::mutex> L(M);
      Slow.push_back(std::move(P));
      --Busy;
    }
    CV.notify_all();
  }
  void finished() {
    {
      std::lock_guard<std::mutex> L(M);
      --Busy;
    }
    CV.notify_all();
  }
  void close() {
    {
      std::lock_guard<std::mutex> L(M);
      Closed = true;
    }
    CV.notify_all();
  }
};

void collectLoop(Inbox &In, Collector &C, bool FreshOnly) {
  SpanLog *Log = C.Log.get();
  for (Pending P; In.pop(P, FreshOnly);) {
    bool WasDone = P.Job.waitFor(std::chrono::milliseconds(0));
    if (!WasDone && !P.Job.waitFor(kPoll)) {
      P.LastSeenNs = nowNs();
      In.requeue(std::move(P)); // still running: other jobs first
      continue;
    }
    uint64_t End = nowNs();
    const Solution &Sol = P.Job.get();
    Done D;
    D.Task = P.Task;
    D.LateStamp = WasDone;
    if (WasDone)
      D.StampErrMs = double(End - P.LastSeenNs) / 1e6;
    D.LatencyMs = double(End - P.DueNs) / 1e6;
    D.EndNs = End;
    D.QueueMs = std::max(0.0, P.Job.queueMs());
    D.SolveMs = std::max(0.0, P.Job.solveMs());
    D.OverheadMs = double(End - P.SubmitNs) / 1e6 - D.QueueMs - D.SolveMs;
    D.Source = P.Job.source();
    D.Attempts = P.Job.attempts();
    D.Solved = Sol.Result == Outcome::Solved;
    if (D.Solved)
      D.Sexp = printSexp(Sol.Program);
    if (Log) {
      // The request's root span runs from its due time to its completion;
      // the wait inside it is split, from the job's own queue/solve
      // times, into service spans and the rest (wire and routing).
      Span Root{"churn.request", Layer::Harness, P.DueNs, End, P.RootId, 0,
                P.Req};
      Log->add(Root, Layer::Harness);
      Span Wait{"cluster.wait", Layer::Cluster, P.SubmittedNs, End, 0,
                P.RootId, P.Req};
      Wait.Id = Log->newId();
      Log->add(Wait, Layer::Harness);
      uint64_t WaitNs = End - P.SubmittedNs;
      uint64_t QNs = std::min<uint64_t>(WaitNs, uint64_t(D.QueueMs * 1e6));
      uint64_t SNs =
          std::min<uint64_t>(WaitNs - QNs, uint64_t(D.SolveMs * 1e6));
      Log->add({"service.queue", Layer::Service, P.SubmittedNs,
                P.SubmittedNs + QNs, 0, Wait.Id, P.Req},
               Layer::Cluster);
      Log->add({"service.solve", Layer::Service, P.SubmittedNs + QNs,
                P.SubmittedNs + QNs + SNs, 0, Wait.Id, P.Req},
               Layer::Cluster);
    }
    C.Out.push_back(std::move(D));
    In.finished();
  }
}

struct PhaseOut {
  Phase Ph;
  std::vector<Done> Results;
  std::vector<double> LateMs;
  ClusterStats CBefore, CAfter;
  std::vector<ServiceStats> WBefore, WAfter;
  std::unique_ptr<SpanLog> GenLog;
  std::vector<std::unique_ptr<Collector>> Collectors;
};

std::vector<ServiceStats> workerStats(Setup &S) {
  std::vector<ServiceStats> Out;
  for (auto &W : S.Workers)
    Out.push_back(W->service().stats());
  return Out;
}

PhaseOut runPhase(const Args &A, const Context &Ctx, Setup &S,
                  uint32_t FirstTag) {
  PhaseOut P;
  P.GenLog = std::make_unique<SpanLog>(FirstTag);
  for (unsigned I = 0; I != kCollectors; ++I) {
    P.Collectors.push_back(std::make_unique<Collector>());
    P.Collectors.back()->Log = std::make_unique<SpanLog>(FirstTag + 1 + I);
  }
  std::vector<size_t> Stream =
      requestStream(S, size_t(kRate * kProbeSeconds), A.Seed);

  P.CBefore = S.Client->stats();
  P.WBefore = workerStats(S);
  Inbox In;
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != kCollectors; ++I)
    Threads.emplace_back(collectLoop, std::ref(In), std::ref(*P.Collectors[I]),
                         I == 0);

  uint64_t T0 = nowNs();
  for (size_t I = 0; I != Stream.size(); ++I) {
    Pending Pd;
    Pd.Req = I + 1;
    Pd.Task = Stream[I];
    Pd.DueNs = T0 + uint64_t(double(I) / kRate * 1e9);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(Pd.DueNs)));
    Pd.SubmitNs = nowNs();
    P.LateMs.push_back(double(Pd.SubmitNs - Pd.DueNs) / 1e6);
    Pd.Job = S.Client->submit(S.Problems[Pd.Task]);
    Pd.SubmittedNs = Pd.LastSeenNs = nowNs();
    if (P.GenLog) {
      Pd.RootId = P.GenLog->newId();
      P.GenLog->add({"cluster.submit", Layer::Cluster, Pd.SubmitNs,
                     Pd.SubmittedNs, 0, Pd.RootId, Pd.Req},
                    Layer::Harness);
    }
    In.push(std::move(Pd));
  }
  In.close();
  for (std::thread &T : Threads)
    T.join();
  P.Ph.WallSeconds = P.Ph.Seconds = double(nowNs() - T0) / 1e9;
  P.CAfter = S.Client->stats();
  P.WAfter = workerStats(S);

  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  std::map<std::pair<size_t, std::string>, bool> Verdict;
  // Every submitted request must come back through a collector; one that
  // did not is a failure, never a silent gap.
  size_t Collected = 0;
  for (const auto &C : P.Collectors)
    Collected += C->Out.size();
  P.Ph.Attempted = P.Ph.Failed = Stream.size() - Collected;
  for (auto &C : P.Collectors)
    for (const Done &D : C->Out) {
      P.Results.push_back(D);
      ++P.Ph.Attempted;
      P.Ph.LatencyMs.push_back(D.LatencyMs);
      if (!D.Solved) {
        ++P.Ph.Failed;
        continue;
      }
      auto Key = std::make_pair(D.Task, D.Sexp);
      auto It = Verdict.find(Key);
      if (It == Verdict.end()) {
        ++P.Ph.Checked;
        // Read the program back through ProgramIO, as a client would.
        It = Verdict.emplace(Key, matchesGolden(Ctx, *S.Tasks[D.Task],
                                                parseSexp(D.Sexp, Lib)))
                 .first;
      }
      if (!It->second) {
        ++P.Ph.Failed;
        ++P.Ph.Mismatches;
      }
    }
  return P;
}

/// Probe: the wire codec on this workload's own messages — a Solve frame
/// carrying each task's problem and a Result frame carrying its program.
void probeWire(const Setup &S, SpanLog &Log, std::map<std::string, double> &L) {
  constexpr unsigned Reps = 20;
  ScopedSpan Root(&Log, "probe", Layer::Harness, 0);
  std::vector<double> Enc, Dec;
  for (size_t I = 0; I != S.Tasks.size(); ++I) {
    WireMessage Solve;
    Solve.Type = MsgType::Solve;
    Solve.ReqId = I + 1;
    Solve.ProblemJson = problemToJson(S.Problems[I]).dump();
    WireMessage Result;
    Result.Type = MsgType::Result;
    Result.ReqId = I + 1;
    Result.Source = "cache-hit";
    Result.Program = printSexp(S.Tasks[I]->GroundTruth);
    for (const WireMessage *M : {&Solve, &Result}) {
      std::string Payload;
      {
        ScopedSpan Sp(&Log, "net.encode", Layer::Net, 0);
        Enc.push_back(usPerCall(Reps, [&] { Payload = encodeMessage(*M); }));
      }
      ScopedSpan Sp(&Log, "net.decode", Layer::Net, 0);
      Dec.push_back(usPerCall(Reps, [&] { (void)decodeMessage(Payload); }));
    }
  }
  L["net.encode_us"] = median(Enc);
  L["net.decode_us"] = median(Dec);
}

void churnLayers(const PhaseOut &P, std::map<std::string, double> &L) {
  std::vector<double> Queue, Solve, Overhead;
  double Attempts = 0;
  for (const Done &D : P.Results) {
    if (D.Source != "cache-hit") {
      Queue.push_back(D.QueueMs);
      Solve.push_back(D.SolveMs);
    }
    Overhead.push_back(D.OverheadMs);
    Attempts += D.Attempts;
  }
  L["service.queue_ms_p50"] = median(Queue);
  L["service.queue_ms_tail"] = tailOf(Queue).Value;
  L["service.solve_ms_p50"] = median(Solve);
  L["service.solve_ms_tail"] = tailOf(Solve).Value;
  uint64_t Ins = 0, Ev = 0, Co = 0, Runs = 0;
  size_t MaxDepth = 0;
  for (size_t W = 0; W != P.WAfter.size(); ++W) {
    const ServiceStats &B = P.WBefore[W], &E = P.WAfter[W];
    Ins += E.Cache.Insertions - B.Cache.Insertions;
    Ev += E.Cache.Evictions - B.Cache.Evictions;
    Co += E.Cache.Coalesced - B.Cache.Coalesced;
    Runs += E.SolvesRun - B.SolvesRun;
    MaxDepth = std::max(MaxDepth, E.MaxQueueDepth);
  }
  L["service.insertions"] = double(Ins);
  L["service.evictions"] = double(Ev);
  L["service.coalesced"] = double(Co);
  L["service.solves_run"] = double(Runs);
  L["service.max_queue_depth"] = double(MaxDepth);

  const ClusterStats &B = P.CBefore, &E = P.CAfter;
  L["cluster.overhead_ms_p50"] = median(Overhead);
  L["cluster.overhead_ms_tail"] = tailOf(Overhead).Value;
  L["cluster.forwarded"] = double(E.Forwarded - B.Forwarded);
  L["cluster.remote_completed"] = double(E.RemoteCompleted - B.RemoteCompleted);
  L["cluster.local_solves"] = double(E.LocalSolves - B.LocalSolves);
  L["cluster.failovers"] = double(E.Failovers - B.Failovers);
  L["cluster.remote_errors"] = double(E.RemoteErrors - B.RemoteErrors);
  L["cluster.attempts_mean"] =
      P.Results.empty() ? 0 : Attempts / double(P.Results.size());
  double Max = 0, Sum = 0;
  for (size_t W = 0; W != E.PerWorkerForwarded.size(); ++W) {
    double F = double(E.PerWorkerForwarded[W] -
                      (W < B.PerWorkerForwarded.size() ? B.PerWorkerForwarded[W]
                                                       : 0));
    Max = std::max(Max, F);
    Sum += F;
  }
  L["cluster.shard_skew"] =
      Sum > 0 ? Max / (Sum / double(E.PerWorkerForwarded.size())) : 0;
  std::vector<double> Late = P.LateMs;
  L["gen.late_ms_p50"] = median(Late);
  L["gen.late_ms_max"] = Late.empty() ? 0 : *std::max_element(Late.begin(), Late.end());
}

std::string phaseNote(const PhaseOut &P) {
  size_t LateStamps = 0, Hits = 0;
  double MaxErr = 0;
  for (const Done &D : P.Results) {
    LateStamps += D.LateStamp;
    MaxErr = std::max(MaxErr, D.StampErrMs);
    Hits += D.Source == "cache-hit";
  }
  std::vector<double> Late = P.LateMs;
  return "churn: requests=" + std::to_string(P.Ph.Attempted) +
         " cache_hits=" + std::to_string(Hits) +
         " late_stamps=" + std::to_string(LateStamps) +
         " stamp_error_ms_max=" + std::to_string(MaxErr) +
         " generator_late_ms_max=" +
         std::to_string(Late.empty() ? 0.0
                                     : *std::max_element(Late.begin(), Late.end()));
}

} // namespace

std::vector<std::unique_ptr<SpanLog>>
probeClusterChurn(const Args &A, const Context &Ctx, uint32_t FirstTag,
                  Report &R) {
  Setup S = setUp(Ctx);
  PhaseOut P = runPhase(A, Ctx, S, FirstTag);
  R.ProbeMismatches += P.Ph.Mismatches;
  Summary Sum = P.Ph.summary();
  R.Notes.push_back("cluster probe " + phaseNote(P) + " failed=" +
                    std::to_string(P.Ph.Failed) + " mismatches=" +
                    std::to_string(P.Ph.Mismatches) + " latency_p50_ms=" +
                    std::to_string(Sum.P50) + " latency_tail_ms=" +
                    std::to_string(Sum.TailValue));
  churnLayers(P, R.Layers);
  auto Probe = std::make_unique<SpanLog>(FirstTag + 1 + kCollectors);
  probeWire(S, *Probe, R.Layers);
  std::vector<std::unique_ptr<SpanLog>> Logs;
  Logs.push_back(std::move(P.GenLog));
  for (auto &C : P.Collectors)
    Logs.push_back(std::move(C->Log));
  Logs.push_back(std::move(Probe));
  return Logs;
}

} // namespace repobench
