//===- tests/ReplayRegressionTest.cpp - Traffic record/replay determinism -----==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The record -> replay loop as a regression gate. Three layers:
///
///  - tests/traffic/smoke.jsonl is a checked-in capture (made with
///    `morpheus serve --record` under the serve defaults: 30 s engine
///    budget, sequential strategy, Spec 2, tidy library) that replaying
///    against a freshly built service must reproduce exactly — outcome
///    AND synthesized program per job. The sequential search is
///    deterministic (cost-ordered worklist), so any divergence here is a
///    real behaviour change in the engine, the deduction substrate or
///    the serving layer, which is precisely what this test exists to
///    catch. Regenerate the capture ONLY for an intentional change:
///        build/morpheus serve --record tests/traffic/smoke.jsonl \
///            < <(requests)   # see tools/replay.sh
///  - a live in-process round trip (record fresh traffic from finished
///    handles, replay it immediately) proves the loop is closed without
///    depending on any checked-in bytes;
///  - tampered records must be *detected* — a replay harness that cannot
///    fail would gate nothing.
///
//===----------------------------------------------------------------------===//

#include "bus/Replay.h"
#include "service/SynthService.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <sstream>

using namespace morpheus;

namespace {

std::string smokeLogPath() {
  return (std::filesystem::path(__FILE__).parent_path() / "traffic" /
          "smoke.jsonl")
      .string();
}

/// The engine shape `morpheus serve` uses when no flags are given — the
/// shape the checked-in capture was recorded under.
EngineOptions serveDefaultOptions() {
  return EngineOptions().timeout(std::chrono::milliseconds(30000));
}

/// Mirrors ServiceTest::fastProblem: quickly solvable, Tag-fingerprinted.
Problem fastProblem(unsigned Tag = 0) {
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
  P.Name = "fast" + std::to_string(Tag);
  return P;
}

TEST(ReplayRegression, CheckedInSmokeLogReproduces) {
  std::string Err;
  std::optional<std::vector<TrafficRecord>> Log =
      readTrafficLog(smokeLogPath(), &Err);
  ASSERT_TRUE(Log) << Err;
  ASSERT_GE(Log->size(), 4u);

  // The capture must stay interesting: all solved, and at least one
  // repeated fingerprint so the replay crosses the cache/coalesce paths.
  std::set<uint64_t> Fps;
  for (const TrafficRecord &R : *Log) {
    EXPECT_EQ(R.Outcome, "solved") << "job " << R.Job;
    EXPECT_FALSE(R.Program.empty()) << "job " << R.Job;
    ASSERT_TRUE(R.Prob) << "job " << R.Job;
    Fps.insert(R.Fp);
  }
  EXPECT_LT(Fps.size(), Log->size()) << "no duplicate submission captured";

  Engine E = Engine::standard(serveDefaultOptions());
  SynthService Svc(E, ServiceOptions());
  ReplayReport Report = replayTraffic(*Log, Svc); // fast timing
  EXPECT_EQ(Report.Jobs, Log->size());
  EXPECT_EQ(Report.OutcomeMatches, Log->size());
  EXPECT_EQ(Report.ProgramMatches, Log->size());
  EXPECT_TRUE(Report.ok()) << Report.Diffs.size() << " divergence(s), first: "
                           << (Report.Diffs.empty()
                                   ? ""
                                   : Report.Diffs[0].Field + " of job " +
                                         std::to_string(Report.Diffs[0].Job));
}

TEST(ReplayRegression, RecordedTimingAlsoReproduces) {
  std::string Err;
  std::optional<std::vector<TrafficRecord>> Log =
      readTrafficLog(smokeLogPath(), &Err);
  ASSERT_TRUE(Log) << Err;

  Engine E = Engine::standard(serveDefaultOptions());
  SynthService Svc(E, ServiceOptions());
  ReplayOptions Opts;
  Opts.TimeScale = 1.0; // honour the recorded inter-arrival gaps
  ReplayReport Report = replayTraffic(*Log, Svc, Opts);
  EXPECT_TRUE(Report.ok());
  EXPECT_EQ(Report.OutcomeMatches, Log->size());
}

TEST(ReplayRegression, LiveRecordRoundTripReproduces) {
  // Record: a service serves four jobs, one of them a repeat (a cache hit
  // in the recording). Each line is built the way `serve --record` builds
  // it: stamped at submission, completed from the finished handle.
  const EngineOptions Opts = serveDefaultOptions();
  std::ostringstream Captured;
  {
    SynthService Svc(Engine::standard(Opts), ServiceOptions().workers(2));
    const auto Epoch = std::chrono::steady_clock::now();
    std::vector<std::pair<TrafficRecord, JobHandle>> Jobs;
    auto Submit = [&](Problem P) {
      JobRequest R;
      TrafficRecord Rec = trafficArrival(Jobs.size() + 1, Epoch, P, Opts, R);
      Jobs.emplace_back(std::move(Rec), Svc.submit(std::move(P), R));
    };
    for (unsigned Tag : {1u, 2u, 3u})
      Submit(fastProblem(Tag));
    for (auto &Job : Jobs)
      EXPECT_EQ(Job.second.get().Result, Outcome::Solved);
    Submit(fastProblem(1));
    EXPECT_EQ(Jobs.back().second.get().Result, Outcome::Solved);
    EXPECT_EQ(Jobs.back().second.source(), ResultSource::CacheHit);

    for (auto &[Rec, H] : Jobs) {
      finishTrafficRecord(Rec, H.get(), resultSourceName(H.source()),
                          H.queueMs(), H.solveMs());
      EXPECT_GE(Rec.CompletedNs, Rec.ArrivalNs);
      Captured << trafficRecordToLine(Rec) << '\n';
    }
  }

  // Parse the capture back.
  std::vector<TrafficRecord> Records;
  std::istringstream In(Captured.str());
  std::string Line, Err;
  while (std::getline(In, Line)) {
    std::optional<TrafficRecord> R = parseTrafficRecord(Line, &Err);
    ASSERT_TRUE(R) << Err << "\nline: " << Line;
    Records.push_back(std::move(*R));
  }
  ASSERT_EQ(Records.size(), 4u);

  // Replay against a fresh service: everything reproduces.
  Engine Fresh = Engine::standard(serveDefaultOptions());
  SynthService Svc(Fresh, ServiceOptions().workers(2));
  ReplayReport Report = replayTraffic(Records, Svc);
  EXPECT_TRUE(Report.ok());
  EXPECT_EQ(Report.OutcomeMatches, 4u);
  EXPECT_EQ(Report.ProgramMatches, 4u);
}

TEST(ReplayRegression, TamperedRecordsAreDetected) {
  std::string Err;
  std::optional<std::vector<TrafficRecord>> Log =
      readTrafficLog(smokeLogPath(), &Err);
  ASSERT_TRUE(Log) << Err;
  ASSERT_FALSE(Log->empty());

  // Claim the first job timed out and the last synthesized a different
  // program: the harness must flag exactly those fields.
  Log->front().Outcome = "timeout";
  Log->back().Program = "(head x0 2)";

  Engine E = Engine::standard(serveDefaultOptions());
  SynthService Svc(E, ServiceOptions());
  ReplayReport Report = replayTraffic(*Log, Svc);
  EXPECT_FALSE(Report.ok());
  ASSERT_EQ(Report.Diffs.size(), 2u);
  EXPECT_EQ(Report.Diffs[0].Field, "outcome");
  EXPECT_EQ(Report.Diffs[0].Recorded, "timeout");
  EXPECT_EQ(Report.Diffs[0].Replayed, "solved");
  EXPECT_EQ(Report.Diffs[1].Field, "program");
}

TEST(ReplayRegression, RecordSerializationRoundTrips) {
  TrafficRecord R;
  R.Job = 17;
  R.Fp = 0xdeadbeefcafef00dULL; // needs all 64 bits (hex-string encoding)
  R.ExFp = 0xffffffffffffffffULL;
  R.ArrivalNs = 123456789;
  R.CompletedNs = 987654321;
  R.Priority = -3;
  R.DeadlineMs = 2500;
  R.Outcome = "solved";
  R.Source = "cache-hit";
  R.Program = "(select (filter x0 (> age 10)) name age)";
  R.Prob = std::make_shared<const Problem>(fastProblem(5));

  std::string Err;
  std::optional<TrafficRecord> Back =
      parseTrafficRecord(trafficRecordToLine(R), &Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->Job, R.Job);
  EXPECT_EQ(Back->Fp, R.Fp);
  EXPECT_EQ(Back->ExFp, R.ExFp);
  EXPECT_EQ(Back->ArrivalNs, R.ArrivalNs);
  EXPECT_EQ(Back->CompletedNs, R.CompletedNs);
  EXPECT_EQ(Back->Priority, R.Priority);
  EXPECT_EQ(Back->DeadlineMs, R.DeadlineMs);
  EXPECT_EQ(Back->Outcome, R.Outcome);
  EXPECT_EQ(Back->Source, R.Source);
  EXPECT_EQ(Back->Program, R.Program);
  ASSERT_TRUE(Back->Prob);
  // The problem snapshot survives: same tables, same comparison mode.
  ASSERT_EQ(Back->Prob->Inputs.size(), R.Prob->Inputs.size());
  EXPECT_TRUE(Back->Prob->Inputs[0].equalsOrdered(R.Prob->Inputs[0]));
  EXPECT_TRUE(Back->Prob->Output.equalsOrdered(R.Prob->Output));
  EXPECT_EQ(Back->Prob->OrderedCompare, R.Prob->OrderedCompare);
}

/// Regression: u64 fields arrive as strings, and the parser once used
/// strtoull(..., 0), which reads a leading-zero decimal like "010" as
/// OCTAL 8 — silently corrupting a replayed timestamp or fingerprint.
/// Only an explicit "0x" prefix may select base 16; everything else is
/// decimal.
TEST(ReplayRegression, LeadingZeroU64FieldsParseAsDecimal) {
  TrafficRecord R;
  R.Job = 1;
  R.Fp = 42;
  R.ExFp = 7;
  R.ArrivalNs = 86420135; // unique sentinel, patched below
  R.CompletedNs = 20;
  R.DeadlineMs = 0;
  R.Outcome = "solved";
  R.Source = "solve";
  R.Prob = std::make_shared<const Problem>(fastProblem(5));
  std::string Line = trafficRecordToLine(R);

  auto patched = [&](const std::string &Replacement) {
    std::string Out = Line;
    size_t At = Out.find("\"86420135\"");
    EXPECT_NE(At, std::string::npos);
    Out.replace(At, std::string("\"86420135\"").size(), Replacement);
    return Out;
  };

  std::string Err;
  // "010" is decimal ten, not octal eight.
  std::optional<TrafficRecord> Back = parseTrafficRecord(patched("\"010\""), &Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->ArrivalNs, 10u);

  // "08" is decimal eight (base 0 would have rejected the '8' digit).
  Back = parseTrafficRecord(patched("\"08\""), &Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->ArrivalNs, 8u);

  // Explicit 0x still selects hex.
  Back = parseTrafficRecord(patched("\"0x1f\""), &Err);
  ASSERT_TRUE(Back) << Err;
  EXPECT_EQ(Back->ArrivalNs, 31u);

  // Bare hex digits without the prefix are malformed, not silently hex.
  EXPECT_FALSE(parseTrafficRecord(patched("\"1f\""), &Err));
  // So is a prefix with no digits behind it.
  EXPECT_FALSE(parseTrafficRecord(patched("\"0x\""), &Err));
}

TEST(ReplayRegression, MissingLogFileReportsError) {
  std::string Err;
  EXPECT_FALSE(readTrafficLog("/nonexistent/morpheus_traffic.jsonl", &Err));
  EXPECT_FALSE(Err.empty());
}

} // namespace
