//===- Search.cpp - The search workload -----------------------------------===//
//
// Cold, sequential Engine::solve calls, one task at a time (closed loop, one
// client), under the paper's Spec 2 configuration with per-solve refutation
// sharing. A pass solves every task of the list once, in an order drawn from
// the seed; the timed phase runs whole passes (see passes()), so every run
// with the same --seconds measures the same work.
//
// The list is the 96 tasks the parent commit solves in under a second (68
// morpheus + 28 SQL) plus four deep tasks that hold most of the time and
// most of the candidates: every second is search (synth, smt, interp,
// table, spec) and serving is bypassed.
//
// A solve is timed on the process's CPU clock. Engine::solve computes on
// the calling thread and never waits for anything, so on a machine of its
// own its CPU time is its wall time; on a shared VM the CPU clock leaves
// out the time the host takes the vCPU away (steal), which the wall clock
// charges to whichever solve it hits. The process clock, not the thread
// clock, so that work a solve hands to other threads is still counted.
// The report prints the wall-clock figures beside the CPU ones.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "bus/EventBus.h"
#include "spec/Abstraction.h"
#include "suite/Runner.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

using namespace morpheus;

namespace repobench {
namespace {

/// Generous enough that all four deep tasks (4-9 s each on a 4-core x86
/// box) finish with room to spare; a timeout still counts as a failure.
constexpr std::chrono::milliseconds kBudget{60000};

/// One pass takes 25-35 s on a 4-core x86 box. The timed phase runs one
/// pass per whole 40 s of --seconds (at least one), so the work a run
/// measures depends only on --seconds, never on how fast the machine is.
size_t passes(double Seconds) {
  return std::max<size_t>(1, size_t(Seconds / 40.0));
}

struct Job {
  const BenchmarkTask *T = nullptr;
  Problem P;
  const Engine *E = nullptr;
};

struct Setup {
  std::unique_ptr<Engine> Tidy, Sql;
  std::vector<Job> Jobs;
};

Setup setUp(const Context &Ctx, std::shared_ptr<EventBus> Bus) {
  EngineOptions Opts;
  Opts.config(configSpec2(kBudget))
      .refutationSharing(RefutationSharing::PerSolve)
      .eventBus(std::move(Bus));
  Setup S;
  S.Tidy = std::make_unique<Engine>(Engine::standard(Opts));
  S.Sql = std::make_unique<Engine>(Engine::sql(Opts));
  std::vector<std::string> Ids = shortMorpheusTasks();
  for (const BenchmarkTask &T : sqlSuite())
    Ids.push_back(T.Id);
  for (const std::string &Id : deepTasks())
    Ids.push_back(Id);
  for (const std::string &Id : Ids) {
    const BenchmarkTask &T = Ctx.task(Id);
    S.Jobs.push_back({&T, toProblem(T), T.Category == "SQL" ? S.Sql.get()
                                                            : S.Tidy.get()});
  }
  return S;
}

struct TaskRun {
  const BenchmarkTask *T = nullptr;
  Solution Sol;
  double Ms = 0;     ///< process CPU time of the solve
  double WallMs = 0;
};

/// The work counters of one solve, as a line of the determinism report.
std::string counterLine(const TaskRun &R) {
  const SynthesisStats &S = R.Sol.Stats;
  std::ostringstream OS;
  OS << R.T->Id << '\t' << outcomeName(R.Sol.Result)
     << "\thypotheses=" << S.HypothesesExplored
     << "\tsketches=" << S.SketchesGenerated
     << "\trefuted=" << S.SketchesRefuted
     << "\tfills=" << S.PartialFillsTried
     << "\tpruned=" << S.PartialFillsPruned
     << "\tcandidates=" << S.CandidatesChecked
     << "\tdeduce=" << S.Deduce.Calls
     << "\tz3=" << S.Deduce.SolverChecks;
  return OS.str();
}

using CounterTable = std::map<std::string, std::string>; // id -> line

CounterTable counterTable(const std::vector<TaskRun> &Runs) {
  CounterTable Out;
  for (const TaskRun &R : Runs)
    Out[R.T->Id] = counterLine(R);
  return Out;
}

/// Appends one note per task whose outcome or counters differ between
/// \p Ref and \p Now; returns how many differ. Never filtered: a task that
/// flips between solved and timeout is exactly what this report is for.
size_t diffCounters(const CounterTable &Ref, const CounterTable &Now,
                    const std::string &What, Report &R) {
  size_t Differ = 0;
  for (const auto &[Id, Line] : Now) {
    auto It = Ref.find(Id);
    if (It == Ref.end() || It->second == Line)
      continue;
    ++Differ;
    R.Notes.push_back("determinism: " + Id + " differs from " + What +
                      ":\n    was " + It->second + "\n    now " + Line);
  }
  R.Notes.push_back("determinism: " + std::to_string(Differ) + " of " +
                    std::to_string(Now.size()) + " tasks differ from " + What);
  return Differ;
}

/// Per-sketch spans rebuilt from the bus: SketchGenerated opens one,
/// SketchRefuted or HoleFillBatch (the completion ran) closes it.
struct SketchTracer {
  SpanLog Log{2};
  std::atomic<uint64_t> SolveSpan{0}; ///< parent of the sketches now
  std::atomic<uint64_t> SolveReq{0};
  uint64_t BusToSteady = 0;           ///< add to Event::TimeNs
  uint64_t OpenAt = 0;
  bool HaveOpen = false;
  std::vector<double> CompletedMs;    ///< sketches that reached completion
  uint64_t Events = 0;

  void onBatch(const std::vector<Event> &Batch) {
    for (const Event &E : Batch) {
      ++Events;
      uint64_t T = E.TimeNs + BusToSteady;
      if (E.Kind == EventKind::SketchGenerated) {
        OpenAt = T;
        HaveOpen = true;
        continue;
      }
      if (!HaveOpen)
        continue;
      HaveOpen = false;
      bool Completed = E.Kind == EventKind::HoleFillBatch;
      Span S;
      S.Name = Completed ? "synth.sketch" : "synth.sketch_refuted";
      S.L = Layer::Synth;
      S.StartNs = OpenAt;
      S.EndNs = T;
      S.Parent = SolveSpan.load(std::memory_order_relaxed);
      S.Req = SolveReq.load(std::memory_order_relaxed);
      Log.add(S, Layer::Api);
      if (Completed)
        CompletedMs.push_back(double(T - OpenAt) / 1e6);
    }
  }
};

struct PassResult {
  Phase Ph;
  std::vector<TaskRun> Runs;
};

PassResult runPasses(const Args &A, const Context &Ctx, Setup &S,
                     SpanLog *Log, EventBus *Bus, SketchTracer *Sk) {
  PassResult Out;
  Rng R(A.Seed);
  uint64_t T0 = nowNs();
  uint64_t Req = 0;
  for (size_t Pass = 0; Pass != passes(A.Seconds); ++Pass) {
    std::vector<size_t> Order(S.Jobs.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[R.below(I)]);
    for (size_t I : Order) {
      Job &J = S.Jobs[I];
      ++Req;
      ScopedSpan Root(Log, "search.task", Layer::Harness, Req);
      TaskRun Run;
      Run.T = J.T;
      uint64_t Start = nowNs();
      double Cpu0 = processCpuSeconds();
      {
        ScopedSpan Solve(Log, "api.solve", Layer::Api, Req);
        if (Sk) {
          Sk->SolveSpan.store(Log->current(), std::memory_order_relaxed);
          Sk->SolveReq.store(Req, std::memory_order_relaxed);
        }
        Run.Sol = J.E->solve(J.P);
      }
      Run.Ms = (processCpuSeconds() - Cpu0) * 1e3;
      Run.WallMs = double(nowNs() - Start) / 1e6;
      if (Bus) {
        ScopedSpan Flush(Log, "bus.flush", Layer::Bus, Req);
        Bus->flush();
      }
      Out.Ph.LatencyMs.push_back(Run.Ms);
      Out.Ph.Seconds += Run.Ms / 1e3;
      Out.Runs.push_back(std::move(Run));
    }
  }
  Out.Ph.WallSeconds = double(nowNs() - T0) / 1e9;

  // Output check, outside the timed phase.
  for (const TaskRun &Run : Out.Runs) {
    ++Out.Ph.Attempted;
    if (Run.Sol.Result != Outcome::Solved) {
      ++Out.Ph.Failed;
      continue;
    }
    ++Out.Ph.Checked;
    if (!matchesGolden(Ctx, *Run.T, Run.Sol.Program)) {
      ++Out.Ph.Failed;
      ++Out.Ph.Mismatches;
    }
  }
  return Out;
}

/// A fresh table over the same columns: no cached fingerprint or sort.
Table freshCopy(const Table &T) {
  std::vector<ColumnPtr> Cols;
  for (size_t C = 0; C != T.numCols(); ++C)
    Cols.push_back(T.colHandle(C));
  Table Out(T.schema(), std::move(Cols), T.numRows());
  Out.setGroupCols(T.groupCols());
  return Out;
}

/// Probe calls on the workload's own data: the program evaluation and
/// table work of candidate checking, and α, timed per call.
void probeLayers(const std::vector<TaskRun> &Runs, SpanLog &Log,
                 std::map<std::string, double> &L) {
  constexpr unsigned Reps = 20;
  std::vector<double> Eval, Fp, Cmp, Alpha;
  ScopedSpan Root(&Log, "probe", Layer::Harness, 0);
  std::map<std::string, bool> Seen;
  for (const TaskRun &Run : Runs) {
    const BenchmarkTask &T = *Run.T;
    if (Run.Sol.Result != Outcome::Solved || Seen[T.Id])
      continue;
    Seen[T.Id] = true;
    std::optional<Table> Out;
    {
      ScopedSpan S(&Log, "interp.evaluate", Layer::Interp, 0);
      Eval.push_back(usPerCall(Reps, [&] { Out = Run.Sol.Program->evaluate(T.Inputs); }));
    }
    if (!Out)
      continue;
    {
      ScopedSpan S(&Log, "table.fingerprint", Layer::Table, 0);
      Fp.push_back(usPerCall(Reps, [&] { (void)freshCopy(*Out).fingerprint(); }));
    }
    {
      ScopedSpan S(&Log, "table.compare", Layer::Table, 0);
      Cmp.push_back(usPerCall(Reps, [&] {
        Table A = freshCopy(*Out), B = freshCopy(T.Output);
        (void)(T.OrderedCompare ? A.equalsOrdered(B) : A.equalsUnordered(B));
      }));
    }
    {
      ScopedSpan S(&Log, "spec.alpha", Layer::Spec, 0);
      ExampleBase Base = ExampleBase::fromInputs(T.Inputs);
      std::vector<const Table *> Tables;
      for (const Table &In : T.Inputs)
        Tables.push_back(&In);
      Tables.push_back(&T.Output);
      for (const Table *Tb : Tables)
        Alpha.push_back(usPerCall(Reps, [&] { (void)abstractTable(*Tb, Base); }));
    }
  }
  L["interp.eval_us"] = median(Eval);
  L["table.fingerprint_us"] = median(Fp);
  L["table.compare_us"] = median(Cmp);
  L["spec.alpha_us"] = median(Alpha);
}

void searchCounters(const PassResult &P, const SketchTracer &Sk,
                    std::map<std::string, double> &L) {
  SynthesisStats Sum;
  double SolveS = 0;
  for (const TaskRun &R : P.Runs) {
    Sum += R.Sol.Stats;
    SolveS += R.WallMs / 1e3; // the program times deduce() on the wall clock
  }
  const DeduceStats &D = Sum.Deduce;
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  L["smt.deduce_calls"] = double(D.Calls);
  L["smt.deduce_s"] = D.SolverSeconds;
  L["smt.deduce_share"] = Ratio(D.SolverSeconds, SolveS);
  L["smt.us_per_deduce"] = Ratio(D.SolverSeconds * 1e6, double(D.Calls));
  L["smt.z3_checks"] = double(D.SolverChecks);
  L["smt.z3_checks_per_s"] = Ratio(double(D.SolverChecks), SolveS);
  L["smt.verdict_cache_hits"] = double(D.CacheHits);
  L["smt.verdict_hit_ratio"] = Ratio(double(D.CacheHits), double(D.Calls));
  L["smt.rejections"] = double(D.Rejections);
  L["smt.fastpath_rejections"] = double(D.FastPathRejections);
  L["smt.template_compiles"] = double(D.TemplateCompiles);
  L["smt.template_hits"] = double(D.TemplateHits);
  L["smt.session_builds"] = double(D.SessionBuilds);
  L["smt.session_hits"] = double(D.SessionHits);
  L["smt.store_hits"] = double(D.StoreHits);
  L["smt.pushes"] = double(D.SolverPushes);
  L["smt.pops"] = double(D.SolverPops);
  L["synth.hypotheses"] = double(Sum.HypothesesExplored);
  L["synth.sketches"] = double(Sum.SketchesGenerated);
  L["synth.sketches_refuted"] = double(Sum.SketchesRefuted);
  L["synth.fills_tried"] = double(Sum.PartialFillsTried);
  L["synth.fills_pruned"] = double(Sum.PartialFillsPruned);
  L["synth.prune_ratio"] =
      Ratio(double(Sum.PartialFillsPruned), double(Sum.PartialFillsTried));
  L["synth.candidates"] = double(Sum.CandidatesChecked);
  L["synth.candidates_per_s"] = Ratio(double(Sum.CandidatesChecked), SolveS);
  L["synth.nondeduce_s"] = SolveS - D.SolverSeconds;
  std::vector<double> Sketch = Sk.CompletedMs;
  L["synth.sketch_ms_p50"] = median(Sketch);
  L["synth.sketch_ms_tail"] = tailOf(Sketch).Value;
}

} // namespace

void runSearch(const Args &A, const Context &Ctx, Report &R) {
  Setup S = setUp(Ctx, nullptr);
  R.SetupSeconds.push_back((double(nowNs()) - Ctx.ProcessStartNs) / 1e9);
  if (A.SetupOnly)
    return;

  PassResult Untraced = runPasses(A, Ctx, S, nullptr, nullptr, nullptr);
  R.Untraced = Untraced.Ph;
  std::vector<double> WallMs;
  for (const TaskRun &Run : Untraced.Runs)
    WallMs.push_back(Run.WallMs);
  Summary Wall = summarize(WallMs, Untraced.Ph.WallSeconds);
  char Buf[160];
  std::snprintf(Buf, sizeof Buf,
                "wall clock: ops_per_s=%.6f latency_p50_ms=%.6f "
                "latency_tail_ms=%.6f (p%g)",
                Wall.OpsPerS, Wall.P50, Wall.TailValue,
                Wall.TailOfWindow.Percentile);
  R.Notes.push_back(Buf);

  // Determinism: against the previous run in this checkout, then (traced
  // runs) between this run's two phases.
  CounterTable Now = counterTable(Untraced.Runs);
  std::string RefPath = A.OutDir + "/search_counters.tsv";
  {
    std::ifstream In(RefPath);
    CounterTable Prev;
    for (std::string Line; std::getline(In, Line);)
      Prev[Line.substr(0, Line.find('\t'))] = Line;
    if (!Prev.empty())
      diffCounters(Prev, Now, "the previous run", R);
    else
      R.Notes.push_back("determinism: no previous run to compare with");
  }
  {
    std::ofstream Out(RefPath);
    for (const auto &[Id, Line] : Now)
      Out << Line << '\n';
  }
  for (const auto &[Id, Line] : Now)
    R.Notes.push_back("task " + Line);

  if (!A.Trace)
    return;

  EventBus::Options BO;
  BO.Policy = DropPolicy::Block;
  std::shared_ptr<EventBus> Bus = EventBus::create(BO);
  SketchTracer Sk;
  Sk.BusToSteady = nowNs() - Bus->nowNs();
  Subscription Sub;
  Sub.Name = "repobench-sketches";
  Sub.KindMask = eventKindBit(EventKind::SketchGenerated) |
                 eventKindBit(EventKind::SketchRefuted) |
                 eventKindBit(EventKind::HoleFillBatch);
  Sub.OnBatch = [&Sk](const std::vector<Event> &B) { Sk.onBatch(B); };
  uint64_t SubId = Bus->subscribe(std::move(Sub));

  Setup TS = setUp(Ctx, Bus);
  SpanLog Log(1);
  PassResult Traced = runPasses(A, Ctx, TS, &Log, Bus.get(), &Sk);
  Bus->flush();
  Bus->unsubscribe(SubId);
  R.HaveTraced = true;
  R.Traced = Traced.Ph;
  diffCounters(Now, counterTable(Traced.Runs), "the untraced phase", R);

  std::map<std::string, double> &L = R.Layers;
  searchCounters(Traced, Sk, L);
  probeLayers(Traced.Runs, Log, L);
  BusStats BS = Bus->stats();
  L["bus.events"] = double(Sk.Events);
  L["bus.dropped"] = double(BS.Dropped);
  recordSpans(A, {&Log, &Sk.Log}, R);
}

} // namespace repobench
