//===- bench/bench_service.cpp - SynthService throughput benchmark ------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures what the serving layer adds on top of raw Engine::solve:
//
//  1. per-request latency at concurrency 1 on never-seen problems — the
//     scheduler + fingerprint overhead; the acceptance bar is >= 0.9x of
//     direct solves (i.e. at most ~11% overhead);
//  2. effective throughput on a 90%-repeated workload at 1/4/16 concurrent
//     clients, service (fingerprint cache + single flight) vs direct
//     solves. The single-pass speedup is bounded by 1/(1-repeat_rate)
//     (= 10x at 90%) on one core; a second pass over the same traffic
//     ("sustained") runs fully warm and shows the steady-state ceiling.
//
//   ./bench_service [unique] [repeats] [timeout_ms]
//     unique     distinct problems in the workload        (default 20)
//     repeats    requests per distinct problem            (default 10,
//                i.e. 90% of requests repeat an earlier one)
//     timeout_ms engine budget per solve                  (default 10000)
//
//===----------------------------------------------------------------------===//

#include "bus/EventBus.h"
#include "cluster/ClusterClient.h"
#include "cluster/WorkerNode.h"
#include "interp/Components.h"
#include "service/SynthService.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>
#include <vector>

using namespace morpheus;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// The ApiTest filter/select problem with every age shifted by \p Offset:
/// same program shape and solve cost for each variant, but distinct
/// tables, so each variant fingerprints (and solves) independently.
Problem variantProblem(unsigned Offset) {
  double O = double(Offset);
  Table In = makeTable({{"id", CellType::Num},
                        {"name", CellType::Str},
                        {"age", CellType::Num},
                        {"GPA", CellType::Num}},
                       {{num(1), str("Alice"), num(8 + O), num(4.0)},
                        {num(2), str("Bob"), num(18 + O), num(3.2)},
                        {num(3), str("Tom"), num(12 + O), num(3.0)}});
  Table Out = makeTable({{"name", CellType::Str}, {"age", CellType::Num}},
                        {{str("Bob"), num(18 + O)}, {str("Tom"), num(12 + O)}});
  Problem P = Problem::fromTables({In}, Out);
  P.Name = "variant" + std::to_string(Offset);
  return P;
}

/// Deterministic 90%-repeat request schedule: Unique * Repeats requests,
/// shuffled by a fixed-seed LCG so repeats interleave like real traffic.
std::vector<size_t> makeSchedule(size_t Unique, size_t Repeats) {
  std::vector<size_t> Schedule;
  Schedule.reserve(Unique * Repeats);
  for (size_t R = 0; R != Repeats; ++R)
    for (size_t U = 0; U != Unique; ++U)
      Schedule.push_back(U);
  uint64_t Lcg = 0x9e3779b97f4a7c15ULL;
  for (size_t I = Schedule.size(); I > 1; --I) {
    Lcg = Lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    std::swap(Schedule[I - 1], Schedule[(Lcg >> 33) % I]);
  }
  return Schedule;
}

/// Splits the schedule across \p Clients threads, each running \p Fn on
/// its slice; returns the wall-clock seconds of the whole fan-out.
double runClients(const std::vector<size_t> &Schedule, unsigned Clients,
                  const std::function<void(size_t)> &Fn) {
  auto Start = Clock::now();
  std::vector<std::thread> Threads;
  Threads.reserve(Clients);
  for (unsigned C = 0; C != Clients; ++C)
    Threads.emplace_back([&, C] {
      for (size_t I = C; I < Schedule.size(); I += Clients)
        Fn(Schedule[I]);
    });
  for (std::thread &T : Threads)
    T.join();
  return secondsSince(Start);
}

} // namespace

int main(int argc, char **argv) {
  size_t Unique = argc > 1 ? size_t(std::atoi(argv[1])) : 20;
  size_t Repeats = argc > 2 ? size_t(std::atoi(argv[2])) : 10;
  int TimeoutMs = argc > 3 ? std::atoi(argv[3]) : 10000;
  if (Unique == 0 || Repeats == 0) {
    std::fprintf(stderr, "usage: bench_service [unique] [repeats] "
                         "[timeout_ms]\n");
    return 2;
  }

  EngineOptions Opts;
  Opts.timeout(std::chrono::milliseconds(TimeoutMs));
  Engine E = Engine::standard(Opts);

  std::vector<Problem> Problems;
  Problems.reserve(Unique);
  for (size_t U = 0; U != Unique; ++U)
    Problems.push_back(variantProblem(unsigned(U)));

  std::printf("bench_service: %zu unique problem(s) x %zu request(s) each "
              "(%.0f%% repeats), timeout %d ms\n\n",
              Unique, Repeats, 100.0 * double(Repeats - 1) / double(Repeats),
              TimeoutMs);

  // ------------------------------------------------ 1. latency, concurrency 1
  auto Start = Clock::now();
  size_t DirectSolved = 0;
  for (const Problem &P : Problems)
    DirectSolved += bool(E.solve(P));
  double DirectSec = secondsSince(Start);

  double ServiceSec;
  {
    SynthService Svc(E, ServiceOptions().workers(1).cacheCapacity(0));
    Start = Clock::now();
    for (const Problem &P : Problems)
      Svc.submit(P).get();
    ServiceSec = secondsSince(Start);
  }
  std::printf("latency @1 client, %zu cold solves (%zu solved):\n"
              "  direct  %7.2f ms/req\n"
              "  service %7.2f ms/req   (cache off; scheduler+fingerprint "
              "overhead)\n"
              "  ratio   %7.2fx  (>= 0.90x wanted)\n\n",
              Unique, DirectSolved, 1e3 * DirectSec / double(Unique),
              1e3 * ServiceSec / double(Unique),
              ServiceSec > 0 ? DirectSec / ServiceSec : 0.0);

  // --------------------------------------- 2. throughput, repeated workload
  std::vector<size_t> Schedule = makeSchedule(Unique, Repeats);
  double DirectReqPerSec =
      double(Schedule.size()) /
      runClients(Schedule, 1, [&](size_t U) { (void)E.solve(Problems[U]); });

  std::printf("throughput on %zu requests (direct baseline %.1f req/s):\n",
              Schedule.size(), DirectReqPerSec);
  std::printf("  %-24s %12s %12s %10s\n", "configuration", "wall s",
              "req/s", "speedup");
  for (unsigned Clients : {1u, 4u, 16u}) {
    SynthService Svc(E, ServiceOptions()
                            .workers(Clients)
                            .queueCapacity(Schedule.size())
                            .cacheCapacity(Unique * 2));
    double ColdSec = runClients(Schedule, Clients, [&](size_t U) {
      Svc.submit(Problems[U]).get();
    });
    double ColdRate = double(Schedule.size()) / ColdSec;
    std::printf("  service cold  %2u client%s %10.3f %12.1f %9.1fx\n",
                Clients, Clients == 1 ? ", " : "s,", ColdSec, ColdRate,
                ColdRate / DirectReqPerSec);

    // Same traffic again, cache warm: the sustained steady state.
    double WarmSec = runClients(Schedule, Clients, [&](size_t U) {
      Svc.submit(Problems[U]).get();
    });
    double WarmRate = double(Schedule.size()) / WarmSec;
    std::printf("  service warm  %2u client%s %10.3f %12.1f %9.1fx\n",
                Clients, Clients == 1 ? ", " : "s,", WarmSec, WarmRate,
                WarmRate / DirectReqPerSec);

    ServiceStats S = Svc.stats();
    std::printf("      (solves %llu, hits %llu, coalesced %llu)\n",
                (unsigned long long)S.SolvesRun,
                (unsigned long long)S.Cache.Hits,
                (unsigned long long)S.Cache.Coalesced);
  }

  // ---------------------- 3. refutation reuse across jobs (result cache off)
  // The service scopes RefutationStores by example fingerprint alongside
  // the ResultCache. With the result cache disabled, a repeated job must
  // re-run the engine — but the second run starts with every refutation
  // the first one derived, so its search reaches the program with fewer
  // decisions.
  {
    SynthService Svc(E, ServiceOptions().workers(1).cacheCapacity(0));
    Problem P = variantProblem(unsigned(Unique + 1)); // never seen above
    Solution Cold = Svc.submit(P).get();
    Solution Warm = Svc.submit(P).get();
    const DeduceStats &C = Cold.Stats.Deduce;
    const DeduceStats &W = Warm.Stats.Deduce;
    std::printf("\nrefutation-store reuse (result cache off, same example "
                "twice):\n"
                "  cold solve %7.2f ms, %6llu decisions, %6llu store "
                "inserts\n"
                "  warm solve %7.2f ms, %6llu decisions, %6llu store hits "
                "(scopes held: %zu)\n",
                1e3 * Cold.Seconds, (unsigned long long)C.decisions(),
                (unsigned long long)C.StoreInserts, 1e3 * Warm.Seconds,
                (unsigned long long)W.decisions(),
                (unsigned long long)W.StoreHits,
                Svc.stats().RefutationScopes);
  }

  // ------------------------------------------------- 4. event-bus overhead
  // Three arms over identical cold solves, interleaved so machine drift
  // hits all arms equally: no bus at all, a bus with zero subscribers
  // (every publish site short-circuits on one relaxed mask load — the
  // configuration production hot paths run in when nobody is listening;
  // target < 2% overhead), and a bus with an everything-subscriber (the
  // full publish -> ring -> drain -> callback pipeline).
  {
    std::shared_ptr<EventBus> IdleBus = EventBus::create();
    std::shared_ptr<EventBus> BusySub = EventBus::create();
    std::atomic<uint64_t> EventsSeen{0};
    Subscription Sub;
    Sub.Name = "bench-counter";
    Sub.OnBatch = [&](const std::vector<Event> &Batch) {
      EventsSeen.fetch_add(Batch.size(), std::memory_order_relaxed);
    };
    BusySub->subscribe(Sub);

    Engine Plain = Engine::standard(Opts);
    Engine NoSub = Engine::standard(EngineOptions(Opts).eventBus(IdleBus));
    Engine WithSub = Engine::standard(EngineOptions(Opts).eventBus(BusySub));

    constexpr int Passes = 3;
    double PlainSec = 0, NoSubSec = 0, WithSubSec = 0;
    size_t Solves = 0;
    for (int Pass = 0; Pass != Passes; ++Pass)
      for (const Problem &P : Problems) {
        ++Solves;
        auto T0 = Clock::now();
        (void)Plain.solve(P);
        PlainSec += secondsSince(T0);
        T0 = Clock::now();
        (void)NoSub.solve(P);
        NoSubSec += secondsSince(T0);
        T0 = Clock::now();
        (void)WithSub.solve(P);
        WithSubSec += secondsSince(T0);
      }
    BusySub->flush();
    std::printf("\nevent-bus overhead (%zu cold solves per arm):\n"
                "  no bus            %7.2f ms/req\n"
                "  bus, 0 subscribers%7.2f ms/req  (%+.2f%%; < 2%% wanted)\n"
                "  bus, subscriber   %7.2f ms/req  (%+.2f%%; %llu events "
                "delivered)\n",
                Solves, 1e3 * PlainSec / double(Solves),
                1e3 * NoSubSec / double(Solves),
                100.0 * (NoSubSec / PlainSec - 1.0),
                1e3 * WithSubSec / double(Solves),
                100.0 * (WithSubSec / PlainSec - 1.0),
                (unsigned long long)EventsSeen.load());
  }

  // ------------------------- 5. durable warm state: cold vs warm restart
  // Two service lifetimes over the same --state-dir: the first solves the
  // workload cold and checkpoints on shutdown; the second boots from the
  // published state files and must answer the identical workload from the
  // restored cache without running the engine at all.
  {
    std::string Dir = "bench_service.state";
    ::mkdir(Dir.c_str(), 0777);
    std::remove((Dir + "/results.mstate").c_str());
    std::remove((Dir + "/refutations.mstate").c_str());
    Engine PE = Engine::standard(EngineOptions(Opts).stateDir(Dir));

    double ColdSec = 0, WarmSec = 0;
    size_t ColdSolved = 0, WarmSolved = 0;
    uint64_t ColdDecisions = 0, WarmDecisions = 0;
    WarmStateStats Loaded;
    uint64_t WarmHits = 0;
    {
      SynthService Svc(PE,
                       ServiceOptions().workers(1).cacheCapacity(Unique * 2));
      auto T0 = Clock::now();
      for (const Problem &P : Problems) {
        const Solution &S = Svc.submit(P).get();
        ColdSolved += bool(S);
        ColdDecisions += S.Stats.Deduce.decisions();
      }
      ColdSec = secondsSince(T0);
    } // ~SynthService publishes the final checkpoint
    {
      SynthService Svc(PE,
                       ServiceOptions().workers(1).cacheCapacity(Unique * 2));
      auto T0 = Clock::now();
      for (const Problem &P : Problems) {
        const Solution &S = Svc.submit(P).get();
        WarmSolved += bool(S);
        WarmDecisions += S.Stats.Deduce.decisions();
      }
      WarmSec = secondsSince(T0);
      ServiceStats S = Svc.stats();
      Loaded = S.Warm;
      WarmHits = S.Cache.Hits;
    }
    std::printf("\ndurable warm state (state dir, restart between passes):\n"
                "  cold process %8.2f ms total, %zu solved, %llu decisions "
                "run\n"
                "  warm restart %8.2f ms total, %zu solved, %llu cache hits "
                "(0 decisions run)\n"
                "  restored: %llu results, %llu refutation keys across %llu "
                "scopes\n",
                1e3 * ColdSec, ColdSolved, (unsigned long long)ColdDecisions,
                1e3 * WarmSec, WarmSolved, (unsigned long long)WarmHits,
                (unsigned long long)Loaded.ResultsLoaded,
                (unsigned long long)Loaded.RefutationKeysLoaded,
                (unsigned long long)Loaded.RefutationScopesLoaded);
    (void)WarmDecisions; // restored rows carry the cold run's stats verbatim
  }

  // ------------------------------ 6. cluster tier: 1 vs 2 loopback workers
  // The multi-node scaling arm: the same 90%-repeat schedule pushed
  // through a coordinator sharding by fingerprint across in-process
  // WorkerNodes on loopback (port 0 — no fixed ports, no external
  // processes). Two questions: how cold throughput scales with a second
  // shard, and whether fingerprint affinity preserves the warm-hit rate —
  // every repeat must land on the shard that already cached its answer,
  // so the cluster-wide hit rate should match a single process's.
  {
    ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
    std::vector<size_t> Schedule = makeSchedule(Unique, Repeats);

    // Single-process comparator for the warm-hit rate, over the same
    // cold-then-warm double pass the cluster arms run below.
    double SingleHitRate;
    {
      SynthService Svc(E, ServiceOptions()
                              .workers(1)
                              .queueCapacity(Schedule.size())
                              .cacheCapacity(Unique * 2));
      for (int Pass = 0; Pass != 2; ++Pass)
        runClients(Schedule, 4,
                   [&](size_t U) { Svc.submit(Problems[U]).get(); });
      ServiceStats S = Svc.stats();
      SingleHitRate = double(S.Cache.Hits + S.Cache.Coalesced) /
                      double(S.Submitted);
    }

    std::printf("\ncluster tier on %zu requests (4 clients, loopback "
                "workers):\n", Schedule.size());
    std::printf("  %-10s %12s %12s %12s %14s\n", "nodes", "cold s",
                "cold req/s", "warm req/s", "warm-hit rate");
    double OneNodeColdRate = 0;
    for (unsigned Nodes : {1u, 2u}) {
      std::vector<std::unique_ptr<WorkerNode>> Workers;
      ClusterOptions COpts;
      for (unsigned N = 0; N != Nodes; ++N) {
        Workers.push_back(std::make_unique<WorkerNode>(
            Lib, Opts, ServiceOptions()
                           .workers(1)
                           .queueCapacity(Schedule.size())
                           .cacheCapacity(Unique * 2)));
        std::string Err;
        if (!Workers.back()->start(&Err)) {
          std::fprintf(stderr, "cluster bench: %s\n", Err.c_str());
          return 1;
        }
        COpts.Workers.push_back({"127.0.0.1", Workers.back()->port()});
      }
      ClusterClient C(Lib, Opts, ServiceOptions().workers(1), COpts);
      if (!C.waitForWorkers(Nodes, std::chrono::seconds(10))) {
        std::fprintf(stderr, "cluster bench: workers did not come up\n");
        return 1;
      }

      double ColdSec = runClients(Schedule, 4, [&](size_t U) {
        C.submit(Problems[U]).get();
      });
      double WarmSec = runClients(Schedule, 4, [&](size_t U) {
        C.submit(Problems[U]).get();
      });

      uint64_t Hits = 0, Requests = 0;
      for (auto &W : Workers) {
        ServiceStats S = W->service().stats();
        Hits += S.Cache.Hits + S.Cache.Coalesced;
        Requests += S.Submitted;
      }
      double HitRate = Requests ? double(Hits) / double(Requests) : 0.0;
      double ColdRate = double(Schedule.size()) / ColdSec;
      if (Nodes == 1)
        OneNodeColdRate = ColdRate;
      std::printf("  %-10u %12.3f %12.1f %12.1f %13.1f%%\n", Nodes, ColdSec,
                  ColdRate, double(Schedule.size()) / WarmSec,
                  100.0 * HitRate);
      if (Nodes == 2) {
        ClusterStats CS = C.stats();
        std::printf("      (2-node cold scaling %.2fx vs 1 node; shard "
                    "split %llu/%llu; %llu local fallbacks)\n"
                    "      (single-process warm-hit rate %.1f%% — affinity "
                    "target: within 5%%)\n",
                    OneNodeColdRate > 0 ? ColdRate / OneNodeColdRate : 0.0,
                    (unsigned long long)CS.PerWorkerForwarded[0],
                    (unsigned long long)CS.PerWorkerForwarded[1],
                    (unsigned long long)CS.LocalSolves,
                    100.0 * SingleHitRate);
      }
      for (auto &W : Workers)
        W->stop();
    }
  }

  std::printf("\nnote: single-pass speedup is bounded by 1/(1-repeat rate) "
              "(= %.0fx here) on one core;\nthe warm rows show the "
              "steady-state ceiling once the working set is cached.\n",
              double(Repeats));
  return 0;
}
