//===- selftest.cpp - Tests of the harness's own arithmetic ---------------===//
//
//   repobench_selftest [REPO_ROOT]
//
// Checks the tail-percentile choice, the windowed medians, the latency
// reservoir, the golden render parser, the order-insensitive table comparison and, given the
// repository root, that the real golden file parses and that
// BENCHMARK.json names exactly the metrics the harness prints. Exits
// non-zero on any failure.
//
//===----------------------------------------------------------------------===//

#include "Catalogue.h"
#include "Golden.h"
#include "Stats.h"

#include "io/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace repobench;

namespace {

int Failures = 0;

#define CHECK(Cond)                                                            \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__,   \
                   #Cond);                                                     \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = N; I != 0; --I) // descending: tailOf must sort
    V.push_back(double(I));
  return V;
}

void testTailPercentile() {
  // 100 samples: p99 leaves 1 beyond, p90 leaves exactly 10.
  Tail T = tailOf(iota(100));
  CHECK(T.Percentile == 90 && T.Beyond == 10 && T.Value == 90 &&
        T.Samples == 100);
  // 1000 samples: p99 leaves 10.
  T = tailOf(iota(1000));
  CHECK(T.Percentile == 99 && T.Beyond == 10 && T.Value == 990);
  // 999 samples: p99 is rank 990, leaving 9 — not enough, so p90.
  T = tailOf(iota(999));
  CHECK(T.Percentile == 90 && T.Beyond == 99);
  // The ladder stops at p99, however many samples there are.
  T = tailOf(iota(10000));
  CHECK(T.Percentile == 99 && T.Beyond == 100 && T.Value == 9900);
  // 20 samples: only the median leaves 10 beyond.
  T = tailOf(iota(20));
  CHECK(T.Percentile == 50 && T.Beyond == 10 && T.Value == 10);
  // Too few samples for any candidate: the maximum, with nothing beyond.
  T = tailOf(iota(15));
  CHECK(T.Percentile == 100 && T.Beyond == 0 && T.Value == 15);
  T = tailOf({});
  CHECK(T.Samples == 0 && T.Value == 0);
  CHECK(median(iota(5)) == 3);
  CHECK(median(iota(4)) == 2.5); // even count: the mean of the middle two
  CHECK(median({}) == 0 && median({7}) == 7);
  // Harrell-Davis: the centre of a symmetric sample, a weighted mean in
  // general, and smooth where the plain median jumps.
  CHECK(std::fabs(hdMedian(iota(5)) - 3) < 1e-9);
  CHECK(std::fabs(hdMedian(iota(100)) - 50.5) < 1e-9);
  CHECK(hdMedian({}) == 0 && hdMedian({4}) == 4);
  std::vector<double> Gap = {1, 2, 3, 10, 11, 12};
  double H = hdMedian(Gap);
  CHECK(H > 3 && H < 10);
  Gap[2] = 9.9; // moves the plain median by 3.45, the estimate by less
  CHECK(median(Gap) - 6.5 > 3.4 && hdMedian(Gap) - H < 3.4);
  CHECK(nearestRank(90, 100) == 90 && nearestRank(50, 1) == 1);
}

void testWindows() {
  // Four 1 s windows; the third stalls: 10 slow operations instead of 100
  // fast ones.
  std::vector<Window> Ws(4);
  std::vector<double> All;
  for (int W = 0; W != 4; ++W) {
    int N = W == 2 ? 10 : 100;
    Ws[W].Ops = uint64_t(N);
    for (int I = 0; I != N; ++I) {
      Ws[W].LatencyMs.push_back(W == 2 ? 50.0 : 1.0 + I / 1000.0);
      All.push_back(Ws[W].LatencyMs.back());
    }
  }
  Summary S = summarize(Ws, 1.0);
  CHECK(S.Windows == 4);
  CHECK(S.OpsPerS == 100);         // the stalled window does not move it
  CHECK(S.P50 > 1.0 && S.P50 < 1.1);
  CHECK(S.TailValue > 1.0 && S.TailValue < 1.1);
  CHECK(S.TailOfWindow.Percentile == 90 && S.TailOfWindow.Samples == 100);
  // Windows counting more operations than they sampled: the rate follows
  // the counts, the latencies the samples.
  std::vector<Window> Sampled = Ws;
  for (Window &W : Sampled)
    W.Ops *= 10;
  CHECK(summarize(Sampled, 1.0).OpsPerS == 1000);
  CHECK(summarize(Sampled, 1.0).P50 == S.P50);
  // No windows: the whole phase, the stall included.
  Summary Whole = summarize(All, 4.0);
  CHECK(Whole.Windows == 1 && Whole.OpsPerS == double(All.size()) / 4.0);
  CHECK(Whole.OpsPerS < 80); // the stall drags the whole-phase rate down
  CHECK(summarize(std::vector<Window>{}, 1.0).Windows == 0);
}

void testReservoir() {
  // Below capacity it keeps everything, in order.
  Reservoir Small(8);
  for (int I = 0; I != 5; ++I)
    Small.offer(double(I), uint64_t(I) * 7919);
  CHECK(Small.seen() == 5 &&
        (Small.sample() == std::vector<double>{0, 1, 2, 3, 4}));
  // Beyond it, it keeps Cap values out of all offered, and a uniform
  // sample of 0..9999 has its median near the middle.
  Reservoir R(1000);
  uint64_t X = 42;
  for (int I = 0; I != 10000; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    R.offer(double(I), X >> 11);
  }
  std::vector<double> Kept = R.sample();
  CHECK(R.seen() == 10000 && Kept.size() == 1000);
  double M = median(Kept);
  CHECK(M > 4000 && M < 6000);
  CHECK(*std::max_element(Kept.begin(), Kept.end()) > 9000);
}

void testGoldenParse() {
  std::istringstream In("== T-1\n"
                        "k  v    \n"
                        "1  abc  \n"
                        "2       \n"
                        "-- in0\n"
                        "x  \n"
                        "7  \n"
                        "-- in1\n"
                        "y  \n"
                        "== T-2\n"
                        "a      b  \n"
                        "two w  1  \n");
  std::map<std::string, GoldenTask> G;
  std::string Err;
  CHECK(parseGoldenRenders(In, G, &Err));
  CHECK(G.size() == 2);
  const GoldenTask &T1 = G["T-1"];
  CHECK((T1.Output.Header == std::vector<std::string>{"k", "v"}));
  CHECK(T1.Output.Rows.size() == 2);
  // The empty cell survives: columns are cut at the header's offsets.
  CHECK((T1.Output.Rows[1] == std::vector<std::string>{"2", ""}));
  CHECK(T1.Inputs.size() == 2 && T1.Inputs[0].Rows.size() == 1 &&
        T1.Inputs[1].Rows.empty());
  // A value with a single inner space stays one cell.
  CHECK((G["T-2"].Output.Rows[0] == std::vector<std::string>{"two w", "1"}));

  std::map<std::string, GoldenTask> Bad;
  std::istringstream Dup("== A\nk  \n== A\nk  \n");
  CHECK(!parseGoldenRenders(Dup, Bad, &Err));
  std::istringstream Orphan("k  \n1  \n");
  CHECK(!parseGoldenRenders(Orphan, Bad, &Err));
  std::istringstream Skip("== A\nk  \n-- in1\nk  \n");
  CHECK(!parseGoldenRenders(Skip, Bad, &Err));

  RenderedTable Grouped = parseRender("g  n  \na  1  \n# groups: g\n");
  CHECK(Grouped.Rows.size() == 1 &&
        (Grouped.Groups == std::vector<std::string>{"g"}));
}

void testTableCompare() {
  RenderedTable A = parseRender("k  v  \n1  x  \n2  y  \n2  y  \n");
  RenderedTable Permuted = parseRender("k  v  \n2  y  \n1  x  \n2  y  \n");
  RenderedTable Fewer = parseRender("k  v  \n1  x  \n2  y  \n1  x  \n");
  RenderedTable Renamed = parseRender("k  w  \n1  x  \n2  y  \n2  y  \n");
  RenderedTable Swapped = parseRender("v  k  \nx  1  \ny  2  \ny  2  \n");
  // Wider padding (another render width) must not matter.
  RenderedTable Wide = parseRender("k    v  \n2    y  \n1    x  \n2    y  \n");
  CHECK(sameTable(A, Permuted, false));
  CHECK(!sameTable(A, Permuted, true));
  CHECK(sameTable(A, A, true));
  CHECK(!sameTable(A, Fewer, false)); // multiset, not set
  CHECK(!sameTable(A, Renamed, false));
  CHECK(!sameTable(A, Swapped, false)); // column order matters
  CHECK(sameTable(A, Wide, false));
}

void testRepository(const std::string &Root) {
  std::ifstream In(Root + "/tests/golden/suite_renders.txt");
  std::map<std::string, GoldenTask> G;
  std::string Err;
  CHECK(In && parseGoldenRenders(In, G, &Err));
  CHECK(G.size() == 108);
  CHECK((G["C1-01"].Output.Header ==
         std::vector<std::string>{"student", "bio", "math"}));
  CHECK(G["C1-01"].Output.Rows.size() == 4 && G["C1-01"].Inputs.size() == 1);

  std::ifstream B(Root + "/BENCHMARK.json");
  std::stringstream SS;
  SS << B.rdbuf();
  std::optional<morpheus::JsonValue> Doc = morpheus::parseJson(SS.str(), &Err);
  CHECK(Doc.has_value());
  if (!Doc)
    return;
  auto Same = [&](const char *Key, const MetricDef *Defs, size_t N) {
    const morpheus::JsonValue *List = Doc->find(Key);
    CHECK(List && List->isArray() && List->Arr.size() == N);
    if (!List)
      return;
    for (const morpheus::JsonValue &M : List->Arr) {
      const morpheus::JsonValue *Name = M.find("name");
      const morpheus::JsonValue *Unit = M.find("unit");
      const morpheus::JsonValue *Better = M.find("better");
      bool Found = false;
      for (size_t I = 0; I != N && Name; ++I)
        if (Name->Str == Defs[I].Name) {
          Found = true;
          CHECK(Unit && Unit->Str == Defs[I].Unit);
          CHECK(Better && Better->Str == Defs[I].Better);
        }
      if (!Found)
        std::fprintf(stderr, "BENCHMARK.json names unknown metric %s\n",
                     Name ? Name->Str.c_str() : "?");
      CHECK(Found);
    }
  };
  Same("end_to_end", kEndToEnd, std::size(kEndToEnd));
  Same("per_layer", kPerLayer, std::size(kPerLayer));
}

} // namespace

int main(int Argc, char **Argv) {
  testTailPercentile();
  testWindows();
  testReservoir();
  testGoldenParse();
  testTableCompare();
  if (Argc > 1)
    testRepository(Argv[1]);
  if (Failures)
    std::fprintf(stderr, "%d check(s) failed\n", Failures);
  else
    std::printf("repobench selftest: all checks passed\n");
  return Failures ? 1 : 0;
}
