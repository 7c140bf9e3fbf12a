//===- ServeHot.cpp - The serve-hot workload ------------------------------===//
//
// An in-process SynthService whose ResultCache is filled, during set-up,
// with the 68 short morpheus tasks. Two closed-loop clients then replay
// pre-generated JSON request lines in a seeded order, each request taking
// the per-request path of `morpheus serve`: parseServeRequest -> submit ->
// get -> serveResponseLine. Every request should be a cache hit, so the
// service and io layers do all the work and search does none.
//
// Two clients, not one per vCPU: both still contend for the service's
// lock, and the other vCPUs stay free for the kernel and the harness, so a
// client is not descheduled behind them in the middle of a request.
//
// Latencies are kept as a fixed-size uniform sample per client and
// one-second window, allocated during set-up, so the process's memory
// does not grow with the number of requests a run completes.
//
// The traced run adds the cluster probe (ClusterChurn.cpp).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "io/ProblemIO.h"
#include "io/ProgramIO.h"
#include "net/Protocol.h"
#include "service/Fingerprint.h"
#include "service/SynthService.h"
#include "suite/Runner.h"

#include <cmath>
#include <memory>
#include <thread>

using namespace morpheus;

namespace repobench {
namespace {

constexpr unsigned kClients = 2;
/// Service threads: they fill the cache during set-up and are idle after,
/// since every timed request is a hit, served on the client's thread.
constexpr unsigned kServiceWorkers = 4;
/// Statistics are medians over one-second windows (see summarize()): a
/// stall of a few seconds, such as the host taking a vCPU away, shows in
/// a few windows instead of in every statistic of the run.
constexpr double kWindowS = 1;
/// Latencies kept per client and window: a window's sample then has up to
/// 2 x 4096, enough for a p99 tail with 80 samples beyond it.
constexpr size_t kSamplesPerWindow = 4096;
/// Longest traced phase (s).
constexpr double kTracedSeconds = 15;

struct Setup {
  std::vector<const BenchmarkTask *> Tasks;
  std::vector<std::string> Lines; ///< one request line per task
  std::unique_ptr<SynthService> Svc;
};

Setup setUp(const Context &Ctx) {
  Setup S;
  for (const std::string &Id : shortMorpheusTasks()) {
    const BenchmarkTask &T = Ctx.task(Id);
    JsonValue Req = JsonValue::object();
    Req.set("id", JsonValue::string(T.Id));
    Req.set("problem", problemToJson(toProblem(T)));
    S.Tasks.push_back(&T);
    S.Lines.push_back(Req.dump());
  }
  S.Svc = std::make_unique<SynthService>(
      Engine::standard(servingOptions()),
      ServiceOptions().workers(kServiceWorkers).cacheCapacity(512));
  // The cache-filling pass: every task solved once, through the same
  // request lines the clients will send.
  std::vector<JobHandle> Fill;
  for (size_t I = 0; I != S.Lines.size(); ++I) {
    ServeRequest SR = parseServeRequest(S.Lines[I], I + 1);
    if (!SR.Prob)
      throw std::runtime_error("request line does not parse: " + SR.Error);
    Fill.push_back(S.Svc->submit(std::move(*SR.Prob)));
  }
  for (const JobHandle &H : Fill)
    H.get();
  return S;
}

/// A distinct program one client saw for one task, with how many
/// responses carried it and the first such response line.
struct Seen {
  std::string Sexp;
  std::string Line;
  uint64_t Responses = 0;
};

struct Client {
  /// One per started window of the phase, plus one for a request that
  /// ends just after it.
  std::vector<Reservoir> Windows;
  uint64_t Requests = 0;
  uint64_t NotSolved = 0;
  std::vector<std::vector<Seen>> ByTask;
  std::unique_ptr<SpanLog> Log;

  explicit Client(double Seconds) {
    Windows.assign(size_t(std::ceil(Seconds / kWindowS)) + 1,
                   Reservoir(kSamplesPerWindow));
  }
};

void clientLoop(const Setup &S, uint64_t Seed, unsigned Index,
                uint64_t StartNs, uint64_t EndNs, Client &C) {
  Rng R(Seed * kClients + Index + 1);
  Rng Sampling(~(Seed * kClients + Index));
  C.ByTask.resize(S.Lines.size());
  auto Record = [&](uint64_t T0) {
    uint64_t Now = nowNs();
    size_t W = std::min(C.Windows.size() - 1,
                        size_t(double(Now - StartNs) / 1e9 / kWindowS));
    C.Windows[W].offer(double(Now - T0) / 1e6, Sampling.next());
    ++C.Requests;
  };
  SpanLog *Log = C.Log.get();
  uint64_t Req = 0;
  while (nowNs() < EndNs) {
    size_t K = R.below(S.Lines.size());
    ++Req;
    uint64_t T0 = nowNs();
    ScopedSpan Root(Log, "serve.request", Layer::Harness, Req);
    ServeRequest SR;
    {
      ScopedSpan Sp(Log, "io.parse", Layer::Io, Req);
      SR = parseServeRequest(S.Lines[K], Req);
    }
    if (!SR.Prob) {
      Record(T0);
      ++C.NotSolved;
      continue;
    }
    JobRequest JR;
    JR.priority(SR.Priority);
    if (SR.Deadline.count() > 0)
      JR.deadline(SR.Deadline);
    std::string Name = SR.Prob->Name;
    std::vector<std::string> InputNames = SR.Prob->inputNames();
    JobHandle H;
    {
      ScopedSpan Sp(Log, "service.submit", Layer::Service, Req);
      H = S.Svc->submit(std::move(*SR.Prob), JR);
    }
    const Solution *Sol;
    {
      ScopedSpan Sp(Log, "service.get", Layer::Service, Req);
      Sol = &H.get();
    }
    ServeResponse Resp;
    std::string Line;
    {
      ScopedSpan Sp(Log, "io.emit", Layer::Io, Req);
      Resp = makeServeResponse(SR.Id, Name, InputNames, *Sol,
                               resultSourceName(H.source()));
      Resp.QueueMs = H.queueMs();
      Resp.SolveMs = H.solveMs();
      Line = serveResponseLine(Resp);
    }
    Record(T0);
    if (Sol->Result != Outcome::Solved) {
      ++C.NotSolved;
      continue;
    }
    std::vector<Seen> &V = C.ByTask[K];
    auto It = std::find_if(V.begin(), V.end(), [&](const Seen &X) {
      return X.Sexp == Resp.ProgramSexp;
    });
    if (It == V.end())
      It = V.insert(V.end(), Seen{Resp.ProgramSexp, Line, 0});
    ++It->Responses;
  }
}

/// Reads one response line back the way a client would — JSON, then the
/// program's s-expression through ProgramIO — and checks its output.
bool responseMatches(const Context &Ctx, const BenchmarkTask &T,
                     const Seen &X, const ComponentLibrary &Lib) {
  std::optional<JsonValue> Doc = parseJson(X.Line);
  if (!Doc)
    return false;
  const JsonValue *Outcome = Doc->find("outcome");
  const JsonValue *Prog = Doc->find("program");
  const JsonValue *Sexp = Prog ? Prog->find("sexp") : nullptr;
  if (!Outcome || Outcome->Str != "solved" || !Sexp || Sexp->Str != X.Sexp)
    return false;
  return matchesGolden(Ctx, T, parseSexp(Sexp->Str, Lib));
}

struct PhaseOut {
  Phase Ph;
  ServiceStats Before, After;
  double CpuSeconds = 0;
  std::vector<std::unique_ptr<Client>> Clients;
};

std::vector<std::unique_ptr<Client>> makeClients(double Seconds,
                                                 bool Traced) {
  std::vector<std::unique_ptr<Client>> Out;
  for (unsigned I = 0; I != kClients; ++I) {
    Out.push_back(std::make_unique<Client>(Seconds));
    if (Traced)
      Out.back()->Log = std::make_unique<SpanLog>(I + 1);
  }
  return Out;
}

PhaseOut runPhase(const Args &A, const Context &Ctx, const Setup &S,
                  double Seconds, std::vector<std::unique_ptr<Client>> Clients) {
  PhaseOut P;
  P.Clients = std::move(Clients);
  P.Before = S.Svc->stats();
  double Cpu0 = processCpuSeconds();
  uint64_t T0 = nowNs();
  uint64_t End = T0 + uint64_t(Seconds * 1e9);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != kClients; ++I)
    Threads.emplace_back(clientLoop, std::cref(S), A.Seed, I, T0, End,
                         std::ref(*P.Clients[I]));
  for (std::thread &T : Threads)
    T.join();
  P.Ph.WallSeconds = P.Ph.Seconds = double(nowNs() - T0) / 1e9;
  P.CpuSeconds = processCpuSeconds() - Cpu0;
  P.After = S.Svc->stats();

  // Whole windows only: the requests that ended after the last one are
  // counted as attempted but left out of the statistics.
  P.Ph.WindowS = kWindowS;
  P.Ph.Windows.resize(std::max<size_t>(1, size_t(Seconds / kWindowS)));
  for (size_t W = 0; W != P.Ph.Windows.size(); ++W)
    for (const auto &C : P.Clients) {
      Window &Out = P.Ph.Windows[W];
      Out.Ops += C->Windows[W].seen();
      std::vector<double> Sample = C->Windows[W].sample();
      Out.LatencyMs.insert(Out.LatencyMs.end(), Sample.begin(), Sample.end());
    }

  ComponentLibrary Lib = S.Svc->engine().library();
  for (const auto &C : P.Clients) {
    P.Ph.Attempted += C->Requests;
    P.Ph.Failed += C->NotSolved;
    for (size_t K = 0; K != C->ByTask.size(); ++K)
      for (const Seen &X : C->ByTask[K]) {
        ++P.Ph.Checked;
        if (!responseMatches(Ctx, *S.Tasks[K], X, Lib)) {
          P.Ph.Failed += X.Responses;
          P.Ph.Mismatches += X.Responses;
        }
      }
  }
  return P;
}

/// Probe: the service's problem fingerprint, timed on freshly parsed
/// problems (a parsed request's tables carry no cached fingerprint yet).
double probeFingerprint(const Setup &S, SpanLog &Log) {
  constexpr unsigned Reps = 10;
  ScopedSpan Root(&Log, "probe", Layer::Harness, 0);
  EngineOptions Opts = servingOptions();
  std::vector<double> Us;
  for (const std::string &Line : S.Lines) {
    std::vector<Problem> Fresh;
    for (unsigned I = 0; I != Reps; ++I)
      Fresh.push_back(*parseServeRequest(Line, 1).Prob);
    ScopedSpan Sp(&Log, "service.fingerprint", Layer::Service, 0);
    size_t I = 0;
    Us.push_back(usPerCall(Reps, [&] {
      (void)problemFingerprint(Fresh[I++], Opts);
    }));
  }
  return median(Us);
}

} // namespace

void runServeHot(const Args &A, const Context &Ctx, Report &R) {
  Setup S = setUp(Ctx);
  // The sample buffers are allocated, and their pages touched, in set-up.
  std::vector<std::unique_ptr<Client>> Clients = makeClients(A.Seconds, false);
  R.SetupSeconds.push_back((double(nowNs()) - Ctx.ProcessStartNs) / 1e9);
  if (A.SetupOnly)
    return;

  PhaseOut U = runPhase(A, Ctx, S, A.Seconds, std::move(Clients));
  R.Notes.push_back(
      "service: hits=" +
      std::to_string(U.After.Cache.Hits - U.Before.Cache.Hits) +
      " misses=" +
      std::to_string(U.After.Cache.Misses - U.Before.Cache.Misses) +
      " cpu_per_op_us=" +
      std::to_string(U.Ph.Attempted ? U.CpuSeconds * 1e6 / U.Ph.Attempted : 0));
  R.Untraced = std::move(U.Ph);
  if (!A.Trace)
    return;

  // The traced phase only feeds per-layer metrics and the overhead figure,
  // so it is shorter than the untraced one to leave time for the probe.
  double TracedS = std::min(A.Seconds, kTracedSeconds);
  PhaseOut T = runPhase(A, Ctx, S, TracedS, makeClients(TracedS, true));
  R.HaveTraced = true;
  R.Traced = std::move(T.Ph);
  std::vector<const SpanLog *> Logs;
  for (const auto &C : T.Clients)
    Logs.push_back(C->Log.get());
  std::map<std::string, double> &L = R.Layers;
  L["io.parse_us"] = meanSpanUs(Logs, "io.parse");
  L["io.emit_us"] = meanSpanUs(Logs, "io.emit");
  L["service.submit_us"] = meanSpanUs(Logs, "service.submit");
  L["service.get_us"] = meanSpanUs(Logs, "service.get");
  double Hits = double(T.After.Cache.Hits - T.Before.Cache.Hits);
  double Misses = double(T.After.Cache.Misses - T.Before.Cache.Misses);
  L["service.hits"] = Hits;
  L["service.misses"] = Misses;
  L["service.hit_ratio"] = Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
  L["proc.cpu_per_op_us"] = R.Traced.Attempted
                                ? T.CpuSeconds * 1e6 / double(R.Traced.Attempted)
                                : 0;

  SpanLog Probe(kClients + 1);
  L["service.fingerprint_us"] = probeFingerprint(S, Probe);
  Logs.push_back(&Probe);
  std::vector<std::unique_ptr<SpanLog>> Cluster =
      probeClusterChurn(A, Ctx, kClients + 2, R);
  for (const auto &Log : Cluster)
    Logs.push_back(Log.get());
  recordSpans(A, Logs, R);
}

} // namespace repobench
