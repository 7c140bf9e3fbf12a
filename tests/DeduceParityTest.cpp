//===- tests/DeduceParityTest.cpp - Sharing-mode soundness parity -------------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deduction substrate's central promise: refutation sharing changes
/// how FAST verdicts are reached, never WHICH verdicts — so the solved
/// task set and the synthesized programs must be identical with the store
/// off, per-solve, and process-wide (including a warm process-wide pass,
/// where stored refutations actually short-circuit the solver).
///
/// Method: run all 108 tasks (80 morpheus + 28 SQL) sequentially under
/// each mode. Wall-clock timeouts make tasks near the budget boundary
/// nondeterministic regardless of sharing, so program/solved parity is
/// asserted for the tasks the baseline solves comfortably inside the
/// budget; sharing arms may additionally solve boundary tasks (they only
/// ever get faster), which the test allows but never requires.
///
//===----------------------------------------------------------------------===//

#include "io/ProgramIO.h"
#include "suite/Runner.h"
#include "TestBudget.h"

#include <gtest/gtest.h>

using namespace morpheus;

namespace {

const int TimeoutMs = int(test_budget::scaledBudget(1500).count());
/// "Comfortable": solved using at most half the budget — far enough from
/// the wall-clock boundary that a rerun cannot plausibly time out.
const double ComfortableSeconds = 0.5 * TimeoutMs / 1000.0;

struct ArmRow {
  bool Solved = false;
  double Seconds = 0;
  std::string Sexp;
  DeduceStats Deduce;
};

std::vector<BenchmarkTask> allTasks() {
  std::vector<BenchmarkTask> Suite = morpheusSuite();
  std::vector<BenchmarkTask> Sql = sqlSuite();
  Suite.insert(Suite.end(), Sql.begin(), Sql.end());
  return Suite;
}

std::vector<ArmRow> runArm(const std::vector<BenchmarkTask> &Suite,
                           RefutationSharing Sharing) {
  std::vector<ArmRow> Out;
  Out.reserve(Suite.size());
  for (const BenchmarkTask &T : Suite) {
    SynthesisConfig Cfg = configSpec2(std::chrono::milliseconds(TimeoutMs));
    Cfg.Sharing = Sharing;
    Engine E(libraryForTask(T),
             EngineOptions().config(Cfg).strategy(Strategy::Sequential));
    Solution S = E.solve(toProblem(T));
    ArmRow Row;
    Row.Solved = bool(S);
    Row.Seconds = S.Seconds;
    if (S)
      Row.Sexp = printSexp(S.Program);
    Row.Deduce = S.Stats.Deduce;
    Out.push_back(std::move(Row));
  }
  return Out;
}

void expectParity(const std::vector<BenchmarkTask> &Suite,
                  const std::vector<ArmRow> &Base,
                  const std::vector<ArmRow> &Arm, const char *ArmName) {
  for (size_t I = 0; I != Suite.size(); ++I) {
    if (!Base[I].Solved || Base[I].Seconds > ComfortableSeconds)
      continue;
    EXPECT_TRUE(Arm[I].Solved)
        << Suite[I].Id << " solved by baseline in " << Base[I].Seconds
        << "s but unsolved under " << ArmName;
    if (Arm[I].Solved)
      EXPECT_EQ(Base[I].Sexp, Arm[I].Sexp)
          << Suite[I].Id << " program diverged under " << ArmName;
  }
}

TEST(DeduceParity, GoldenSuiteAcrossSharingModes) {
  std::vector<BenchmarkTask> Suite = allTasks();
  ASSERT_EQ(Suite.size(), 108u);

  RefutationStore::clearProcessScope();
  std::vector<ArmRow> Off = runArm(Suite, RefutationSharing::Off);
  size_t Comfortable = 0;
  for (const ArmRow &R : Off)
    Comfortable += R.Solved && R.Seconds <= ComfortableSeconds;
  // The suite must be substantially solved well inside the budget, or the
  // parity assertions below would be vacuous.
  EXPECT_GE(Comfortable, 90u);

  std::vector<ArmRow> PerSolve = runArm(Suite, RefutationSharing::PerSolve);
  expectParity(Suite, Off, PerSolve, "per-solve");

  std::vector<ArmRow> ProcessCold =
      runArm(Suite, RefutationSharing::ProcessWide);
  expectParity(Suite, Off, ProcessCold, "process-wide (cold)");

  // The warm pass is the one that exercises sharing for real: every
  // refutation of the cold pass short-circuits the solver here, and the
  // answers still must not move.
  std::vector<ArmRow> ProcessWarm =
      runArm(Suite, RefutationSharing::ProcessWide);
  expectParity(Suite, Off, ProcessWarm, "process-wide (warm)");

  // Decisions, native and Z3 alike: the solver work a shared refutation
  // saves.
  uint64_t WarmStoreHits = 0, WarmDecisions = 0, ColdDecisions = 0;
  for (size_t I = 0; I != Suite.size(); ++I) {
    const DeduceStats &W = ProcessWarm[I].Deduce, &C = ProcessCold[I].Deduce;
    WarmStoreHits += W.StoreHits;
    WarmDecisions += W.decisions();
    ColdDecisions += C.decisions();
  }
  EXPECT_GT(WarmStoreHits, 0u) << "warm pass never consulted the store";
  EXPECT_LT(WarmDecisions, ColdDecisions)
      << "shared refutations did not reduce solver decisions";

  RefutationStore::clearProcessScope();
}

} // namespace
