//===- tests/ClusterTest.cpp - Distributed-vs-local result parity -------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cluster tier's central promise mirrors the deduction layer's
/// (DeduceParityTest): distribution changes WHERE a problem is solved,
/// never WHAT the answer is. A coordinator sharding the full 108-task
/// suite across two loopback workers must produce the identical solved
/// set and byte-identical program s-expressions as a single-node Engine
/// under the same configuration — the problems round-trip through
/// ProblemIO JSON and the programs through s-expressions on the way, so
/// this is also the end-to-end serialization parity check.
///
/// A recording test closes the record/replay loop through the cluster:
/// traffic served by two workers replays single-node identically.
///
/// The scheduling tests cover the fault model: a worker killed mid-run
/// loses no jobs (failover to the surviving shard or the local service),
/// an incompatible worker is refused and routed around, in-flight caps
/// backlog rather than drop, and deadlines propagate to remote solves.
///
/// Timing discipline: no assertion depends on a tight wall-clock window;
/// comfortable-task filtering (half the budget) keeps boundary tasks out
/// of the parity set, as in DeduceParityTest.
///
//===----------------------------------------------------------------------===//

#include "cluster/ClusterClient.h"

#include "bus/Replay.h"
#include "cluster/WorkerNode.h"
#include "interp/Components.h"
#include "io/ProgramIO.h"
#include "suite/Runner.h"
#include "TestBudget.h"

#include <gtest/gtest.h>

#include <thread>

using namespace morpheus;

namespace {

const int TimeoutMs = int(test_budget::scaledBudget(1500).count());
const double ComfortableSeconds = 0.5 * TimeoutMs / 1000.0;

/// The engine configuration both sides of every comparison run: the
/// paper's Spec 2 deduction, sequential strategy for deterministic
/// programs.
EngineOptions parityOptions() {
  return EngineOptions()
      .config(configSpec2(std::chrono::milliseconds(TimeoutMs)))
      .strategy(Strategy::Sequential);
}

struct ArmRow {
  bool Solved = false;
  double Seconds = 0;
  std::string Sexp;
};

/// Single-node baseline: plain Engine::solve per task, the exact loop
/// DeduceParityTest uses.
std::vector<ArmRow> runLocalArm(const std::vector<BenchmarkTask> &Suite,
                                const ComponentLibrary &Lib) {
  std::vector<ArmRow> Out;
  Out.reserve(Suite.size());
  for (const BenchmarkTask &T : Suite) {
    Engine E(Lib, parityOptions());
    Solution S = E.solve(toProblem(T));
    ArmRow Row;
    Row.Solved = bool(S);
    Row.Seconds = S.Seconds;
    if (S)
      Row.Sexp = printSexp(S.Program);
    Out.push_back(std::move(Row));
  }
  return Out;
}

/// Cluster arm: \p NWorkers loopback WorkerNodes plus a coordinator,
/// every task submitted through ClusterClient. \p StatsOut receives the
/// coordinator's counters at the end (before teardown).
std::vector<ArmRow> runClusterArm(const std::vector<BenchmarkTask> &Suite,
                                  const ComponentLibrary &Lib,
                                  unsigned NWorkers,
                                  ClusterStats *StatsOut = nullptr) {
  std::vector<std::unique_ptr<WorkerNode>> Workers;
  ClusterOptions COpts;
  for (unsigned I = 0; I != NWorkers; ++I) {
    Workers.push_back(std::make_unique<WorkerNode>(
        Lib, parityOptions(), ServiceOptions().workers(1)));
    std::string Err;
    EXPECT_TRUE(Workers.back()->start(&Err)) << Err;
    COpts.Workers.push_back({"127.0.0.1", Workers.back()->port()});
  }

  ClusterClient C(Lib, parityOptions(), ServiceOptions().workers(1), COpts);
  EXPECT_TRUE(C.waitForWorkers(NWorkers, std::chrono::seconds(10)))
      << "cluster links did not come up";

  std::vector<ArmRow> Out;
  Out.reserve(Suite.size());
  for (const BenchmarkTask &T : Suite) {
    ClusterJob J = C.submit(toProblem(T));
    const Solution &S = J.get();
    ArmRow Row;
    Row.Solved = bool(S);
    Row.Seconds = S.Seconds;
    if (S)
      Row.Sexp = printSexp(S.Program);
    Out.push_back(std::move(Row));
  }
  if (StatsOut)
    *StatsOut = C.stats();
  for (auto &W : Workers)
    W->stop();
  return Out;
}

void expectParity(const std::vector<BenchmarkTask> &Suite,
                  const std::vector<ArmRow> &Base,
                  const std::vector<ArmRow> &Arm, const char *ArmName) {
  for (size_t I = 0; I != Suite.size(); ++I) {
    if (!Base[I].Solved || Base[I].Seconds > ComfortableSeconds)
      continue;
    EXPECT_TRUE(Arm[I].Solved)
        << Suite[I].Id << " solved locally in " << Base[I].Seconds
        << "s but unsolved under " << ArmName;
    if (Arm[I].Solved)
      EXPECT_EQ(Base[I].Sexp, Arm[I].Sexp)
          << Suite[I].Id << " program diverged under " << ArmName;
  }
}

//===----------------------------------------------------------------------===//
// Distributed parity across the full 108-task suite
//===----------------------------------------------------------------------===//

// One parity test per suite because a cluster shares one component
// library: morpheus tasks use tidyr/dplyr, SQL tasks the SQL-relevant
// eight — mixing them in one cluster would need per-task libraries,
// which the handshake (rightly) forbids.

TEST(ClusterParity, MorpheusSuiteTwoWorkersMatchesSingleNode) {
  std::vector<BenchmarkTask> Suite = morpheusSuite();
  ASSERT_EQ(Suite.size(), 80u);
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();

  std::vector<ArmRow> Base = runLocalArm(Suite, Lib);
  size_t Comfortable = 0;
  for (const ArmRow &R : Base)
    Comfortable += R.Solved && R.Seconds <= ComfortableSeconds;
  EXPECT_GE(Comfortable, 65u) << "baseline too slow; parity set vacuous";

  ClusterStats CS;
  std::vector<ArmRow> Cluster = runClusterArm(Suite, Lib, 2, &CS);
  expectParity(Suite, Base, Cluster, "2-worker cluster");

  // Everything went remote (both links healthy throughout; no two suite
  // tasks share a fingerprint, so the coordinator's cache answers none),
  // and the ring actually sharded: each worker saw a nontrivial share.
  EXPECT_EQ(CS.Submitted, Suite.size());
  EXPECT_EQ(CS.LocalSolves, 0u);
  EXPECT_EQ(CS.RemoteCompleted, Suite.size());
  ASSERT_EQ(CS.PerWorkerForwarded.size(), 2u);
  EXPECT_GT(CS.PerWorkerForwarded[0], 0u);
  EXPECT_GT(CS.PerWorkerForwarded[1], 0u);
}

TEST(ClusterParity, SqlSuiteTwoWorkersMatchesSingleNode) {
  std::vector<BenchmarkTask> Suite = sqlSuite();
  ASSERT_EQ(Suite.size(), 28u);
  ComponentLibrary Lib = StandardComponents::get().sqlRelevant();

  std::vector<ArmRow> Base = runLocalArm(Suite, Lib);
  ClusterStats CS;
  std::vector<ArmRow> Cluster = runClusterArm(Suite, Lib, 2, &CS);
  expectParity(Suite, Base, Cluster, "2-worker cluster (sql)");
  EXPECT_EQ(CS.RemoteCompleted, Suite.size());
  EXPECT_EQ(CS.LocalSolves, 0u);
}

//===----------------------------------------------------------------------===//
// Scheduling and fault tolerance
//===----------------------------------------------------------------------===//

/// First \p N morpheus tasks — cheap, distinct-fingerprint work items for
/// the scheduling tests.
std::vector<Problem> cheapProblems(size_t N) {
  std::vector<BenchmarkTask> Suite = morpheusSuite();
  std::vector<Problem> Out;
  for (size_t I = 0; I != N && I != Suite.size(); ++I)
    Out.push_back(toProblem(Suite[I]));
  return Out;
}

/// Trivially solvable problems (output == input, a size-0 program) with
/// distinct fingerprints: solve in ~a millisecond, so even a heavily
/// contended 1-core runner cannot push them over an engine budget —
/// "every job solved" stays deterministic for the fault tests.
std::vector<Problem> identityProblems(size_t N) {
  std::vector<Problem> Out;
  for (size_t I = 0; I != N; ++I) {
    Table T = makeTable({{"v", CellType::Num}},
                        {{num(double(I))}, {num(double(I) + 0.5)}});
    Problem P = Problem::fromTables({T}, T);
    P.Name = "id" + std::to_string(I);
    Out.push_back(std::move(P));
  }
  return Out;
}

TEST(ClusterFaultTolerance, WorkerKilledMidRunLosesNoJobs) {
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  std::vector<std::unique_ptr<WorkerNode>> Workers;
  ClusterOptions COpts;
  for (int I = 0; I != 2; ++I) {
    Workers.push_back(std::make_unique<WorkerNode>(
        Lib, parityOptions(), ServiceOptions().workers(1)));
    std::string Err;
    ASSERT_TRUE(Workers.back()->start(&Err)) << Err;
    COpts.Workers.push_back({"127.0.0.1", Workers.back()->port()});
  }
  // No reconnect honeymoon: once worker 0 dies it stays dead, so routing
  // must move on immediately rather than wait out a backoff.
  COpts.ReconnectBackoffMs = 50;

  ClusterClient C(Lib, parityOptions(), ServiceOptions().workers(1), COpts);
  ASSERT_TRUE(C.waitForWorkers(2, std::chrono::seconds(10)));

  std::vector<Problem> Probs = identityProblems(12);
  std::vector<ClusterJob> Jobs;
  for (Problem &P : Probs)
    Jobs.push_back(C.submit(std::move(P)));

  // Kill worker 0 while the batch is in flight. Any job outstanding or
  // backlogged there must be rerouted — to worker 1 or the local service
  // — and still complete with the right answer.
  Workers[0]->stop();

  size_t Solved = 0;
  for (ClusterJob &J : Jobs) {
    ASSERT_TRUE(J.waitFor(std::chrono::seconds(120)))
        << "job lost after worker death";
    Solved += bool(J.get());
  }
  // Identity problems cannot plausibly time out; the kill must not
  // change any answer.
  EXPECT_EQ(Solved, Jobs.size());

  ClusterStats CS = C.stats();
  EXPECT_EQ(CS.Submitted, Jobs.size());
  EXPECT_EQ(CS.RemoteCompleted + CS.LocalSolves, Jobs.size());
  Workers[1]->stop();
}

TEST(ClusterFaultTolerance, AllWorkersDownFallsBackToLocalSolving) {
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  ClusterOptions COpts;
  COpts.Workers.push_back({"127.0.0.1", 1}); // nothing listens here
  COpts.ConnectTimeoutMs = 250;

  ClusterClient C(Lib, parityOptions(), ServiceOptions().workers(1), COpts);
  std::vector<Problem> Probs = cheapProblems(3);
  std::vector<ClusterJob> Jobs;
  for (Problem &P : Probs)
    Jobs.push_back(C.submit(std::move(P)));
  for (ClusterJob &J : Jobs) {
    ASSERT_TRUE(J.waitFor(std::chrono::seconds(120)));
    EXPECT_TRUE(bool(J.get()));
    EXPECT_EQ(J.worker(), -1) << "no worker existed to solve this";
  }
  ClusterStats CS = C.stats();
  EXPECT_EQ(CS.LocalSolves, Jobs.size());
  EXPECT_EQ(CS.RemoteCompleted, 0u);
}

TEST(ClusterFaultTolerance, IncompatibleWorkerIsRefusedAndRoutedAround) {
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  // The worker runs a different spec level: its cache entries would not
  // be valid answers for the coordinator's fingerprints.
  EngineOptions WorkerOpts =
      EngineOptions()
          .config(configSpec1(std::chrono::milliseconds(TimeoutMs)))
          .strategy(Strategy::Sequential);
  WorkerNode W(Lib, WorkerOpts, ServiceOptions().workers(1));
  std::string Err;
  ASSERT_TRUE(W.start(&Err)) << Err;

  ClusterOptions COpts;
  COpts.Workers.push_back({"127.0.0.1", W.port()});
  ClusterClient C(Lib, parityOptions(), ServiceOptions().workers(1), COpts);

  // The link must never come Up.
  EXPECT_FALSE(C.waitForWorkers(1, std::chrono::seconds(2)));

  ClusterJob J = C.submit(cheapProblems(1)[0]);
  ASSERT_TRUE(J.waitFor(std::chrono::seconds(120)));
  EXPECT_TRUE(bool(J.get()));
  EXPECT_EQ(J.worker(), -1);

  WorkerNodeStats WS = W.stats();
  EXPECT_GE(WS.HandshakesRefused, 1u);
  EXPECT_EQ(WS.JobsAccepted, 0u);
  W.stop();
}

TEST(ClusterScheduling, InflightCapBacklogsWithoutDroppingJobs) {
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  WorkerNode W(Lib, parityOptions(), ServiceOptions().workers(1));
  std::string Err;
  ASSERT_TRUE(W.start(&Err)) << Err;

  ClusterOptions COpts;
  COpts.Workers.push_back({"127.0.0.1", W.port()});
  COpts.MaxInflightPerWorker = 1; // everything beyond one job backlogs

  ClusterClient C(Lib, parityOptions(), ServiceOptions().workers(1), COpts);
  ASSERT_TRUE(C.waitForWorkers(1, std::chrono::seconds(10)));

  std::vector<Problem> Probs = cheapProblems(6);
  std::vector<ClusterJob> Jobs;
  for (Problem &P : Probs)
    Jobs.push_back(C.submit(std::move(P)));
  for (ClusterJob &J : Jobs) {
    ASSERT_TRUE(J.waitFor(std::chrono::seconds(120)));
    EXPECT_TRUE(bool(J.get()));
    EXPECT_EQ(J.worker(), 0) << "cap must delay, not divert";
  }
  ClusterStats CS = C.stats();
  EXPECT_EQ(CS.RemoteCompleted, Jobs.size());
  EXPECT_EQ(CS.LocalSolves, 0u);
  W.stop();
}

TEST(ClusterScheduling, DeadlinePropagatesToRemoteSolves) {
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  // Long engine budget: only the job deadline can stop this solve.
  EngineOptions EOpts =
      EngineOptions()
          .config(configSpec2(std::chrono::seconds(120)))
          .strategy(Strategy::Sequential);
  WorkerNode W(Lib, EOpts, ServiceOptions().workers(1));
  std::string Err;
  ASSERT_TRUE(W.start(&Err)) << Err;

  ClusterOptions COpts;
  COpts.Workers.push_back({"127.0.0.1", W.port()});
  ClusterClient C(Lib, EOpts, ServiceOptions().workers(1), COpts);
  ASSERT_TRUE(C.waitForWorkers(1, std::chrono::seconds(10)));

  // An unsolvable problem (no component invents the string "nope") under
  // a short deadline: the worker's reaper must bound it — the engine
  // budget alone would run two minutes.
  Table In = makeTable({{"a", CellType::Num}}, {{num(1)}, {num(2)}});
  Table Out = makeTable({{"ghost", CellType::Str}}, {{str("nope")}});
  Problem P = Problem::fromTables({In}, Out);
  P.Name = "ghost";

  ClusterJob J =
      C.submit(std::move(P),
               JobRequest().deadline(std::chrono::milliseconds(300)));
  ASSERT_TRUE(J.waitFor(std::chrono::seconds(30)))
      << "deadline did not propagate; remote solve ran unbounded";
  EXPECT_FALSE(bool(J.get()));

  // The coordinator's own reaper answers J at 300 ms whether or not the
  // deadline reached the shard, and sends no Cancel once that deadline
  // has passed. So only a propagated deadline ends the shard's solve well
  // inside its 120 s budget, and as a deadline timeout.
  ServiceStats WS;
  for (int I = 0; I != 300; ++I) { // up to 30 s
    WS = W.service().stats();
    if (WS.Completed != 0)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(WS.Completed, 1u) << "the shard's solve ran on past 30 s";
  EXPECT_EQ(WS.QueueDeadlineExpired + WS.RiderDeadlineExpired +
                WS.SolveDeadlineExpired,
            1u)
      << "the shard's solve did not end at its deadline";
  W.stop();
}

//===----------------------------------------------------------------------===//
// Recording through the cluster
//===----------------------------------------------------------------------===//

/// Filter + select over a three-row table (a real program, solved in tens
/// of milliseconds); \p Tag shifts the data so tags fingerprint apart.
Problem filterProblem(unsigned Tag) {
  double O = double(Tag);
  Table In = makeTable({{"id", CellType::Num},
                        {"name", CellType::Str},
                        {"age", CellType::Num}},
                       {{num(1), str("Alice"), num(8 + O)},
                        {num(2), str("Bob"), num(18 + O)},
                        {num(3), str("Tom"), num(12 + O)}});
  Table Out = makeTable({{"name", CellType::Str}, {"age", CellType::Num}},
                        {{str("Bob"), num(18 + O)}, {str("Tom"), num(12 + O)}});
  Problem P = Problem::fromTables({In}, Out);
  P.Name = "filter" + std::to_string(Tag);
  return P;
}

TEST(ClusterRecording, ClusterTrafficReplaysSingleNode) {
  ComponentLibrary Lib = StandardComponents::get().tidyDplyr();
  std::vector<std::unique_ptr<WorkerNode>> Workers;
  ClusterOptions COpts;
  for (int I = 0; I != 2; ++I) {
    Workers.push_back(std::make_unique<WorkerNode>(
        Lib, parityOptions(), ServiceOptions().workers(1)));
    std::string Err;
    ASSERT_TRUE(Workers.back()->start(&Err)) << Err;
    COpts.Workers.push_back({"127.0.0.1", Workers.back()->port()});
  }

  // Record the way `serve --cluster --record` does: stamp each request at
  // submission, complete the record from the finished ClusterJob.
  std::vector<std::string> Lines;
  {
    ClusterClient C(Lib, parityOptions(), ServiceOptions().workers(1), COpts);
    ASSERT_TRUE(C.waitForWorkers(2, std::chrono::seconds(10)));
    std::vector<Problem> Probs = identityProblems(2);
    for (unsigned Tag : {1u, 2u, 1u}) // one repeat
      Probs.push_back(filterProblem(Tag));
    const auto Epoch = std::chrono::steady_clock::now();
    std::vector<std::pair<TrafficRecord, ClusterJob>> Jobs;
    for (Problem &P : Probs) {
      JobRequest R;
      TrafficRecord Rec =
          trafficArrival(Jobs.size() + 1, Epoch, P, parityOptions(), R);
      Jobs.emplace_back(std::move(Rec), C.submit(std::move(P), R));
    }
    for (auto &[Rec, J] : Jobs) {
      ASSERT_TRUE(J.waitFor(std::chrono::seconds(120)));
      EXPECT_GE(J.worker(), 0) << "a shard, not the fail-back, answered";
      finishTrafficRecord(Rec, J.get(), J.source(), J.queueMs(), J.solveMs());
      Lines.push_back(trafficRecordToLine(Rec));
    }
  }
  for (auto &W : Workers)
    W->stop();

  std::vector<TrafficRecord> Records;
  for (const std::string &Line : Lines) {
    std::string Err;
    std::optional<TrafficRecord> R = parseTrafficRecord(Line, &Err);
    ASSERT_TRUE(R) << Err;
    EXPECT_EQ(R->Outcome, "solved");
    EXPECT_FALSE(R->Program.empty());
    Records.push_back(std::move(*R));
  }
  ASSERT_EQ(Records.size(), 5u);

  SynthService Single(Engine(Lib, parityOptions()), ServiceOptions());
  ReplayReport Report = replayTraffic(Records, Single);
  EXPECT_TRUE(Report.ok()) << Report.Diffs.size() << " divergence(s)";
  EXPECT_EQ(Report.OutcomeMatches, Records.size());
  EXPECT_EQ(Report.ProgramMatches, Records.size());
}

} // namespace
