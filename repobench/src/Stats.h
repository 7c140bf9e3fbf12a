//===- Stats.h - Order statistics the benchmark reports ---------*- C++ -*-===//
//
// Percentiles use the nearest-rank definition: the p-th percentile of n
// sorted samples is the sample at 1-based rank ceil(p/100 * n), and the
// samples "beyond" it are the n - rank samples after it.
//
// The tail percentile is the highest of kTailCandidates that leaves at
// least kMinBeyond samples beyond it, so every reported tail rests on at
// least ten observations. A fixed ladder (instead of rank n-10) keeps the
// reported percentile the same from run to run while the sample count
// wobbles. The ladder stops at p99: on a shared 4-vCPU VM, p99.9 of a
// 40-microsecond request measured the host preempting a client thread,
// not the program (it swung 4x between otherwise equal runs).
//
//===----------------------------------------------------------------------===//

#ifndef REPOBENCH_STATS_H
#define REPOBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace repobench {

constexpr size_t kMinBeyond = 10;
constexpr double kTailCandidates[] = {99.0, 90.0, 75.0, 50.0};

/// 1-based nearest rank of percentile \p P among \p N samples (N >= 1).
inline size_t nearestRank(double P, size_t N) {
  double R = std::ceil(P / 100.0 * double(N) - 1e-9);
  return std::min(N, std::max<size_t>(1, size_t(R)));
}

/// Nearest-rank percentile of already sorted samples; 0 when empty.
inline double percentileSorted(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  return Sorted[nearestRank(P, Sorted.size()) - 1];
}

/// The median: the middle sample, or the mean of the two middle samples
/// when there is an even number of them (0 when empty).
inline double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  if (V.size() % 2)
    return V[Mid];
  return (V[Mid] + *std::max_element(V.begin(), V.begin() + Mid)) / 2;
}

/// The Harrell-Davis estimate of the median: a weighted mean of all the
/// sorted samples, the i-th of n weighted by the Beta((n+1)/2, (n+1)/2)
/// probability of [(i-1)/n, i/n]. The weights fall off smoothly away from
/// the middle, so, unlike the middle sample, it does not jump when samples
/// of nearly equal value swap places around the middle. A search pass has
/// 100 solves whose costs have gaps near the middle (27 then 30 ms), and
/// the plain median jumped across such a gap from run to run.
inline double hdMedian(std::vector<double> V) {
  if (V.size() < 2)
    return V.empty() ? 0 : V[0];
  std::sort(V.begin(), V.end());
  double N = double(V.size()), A = (N + 1) / 2;
  double LogNorm = 2 * std::lgamma(A) - std::lgamma(2 * A);
  auto Pdf = [&](double T) {
    if (T <= 0 || T >= 1)
      return 0.0;
    return std::exp((A - 1) * (std::log(T) + std::log1p(-T)) - LogNorm);
  };
  // Simpson's rule over each sample's interval; the weights are
  // normalized by their sum, which absorbs the small integration error.
  double Sum = 0, WSum = 0;
  for (size_t I = 0; I != V.size(); ++I) {
    double Lo = double(I) / N, Hi = double(I + 1) / N;
    double W = (Pdf(Lo) + 4 * Pdf((Lo + Hi) / 2) + Pdf(Hi)) * (Hi - Lo) / 6;
    Sum += W * V[I];
    WSum += W;
  }
  return WSum > 0 ? Sum / WSum : median(std::move(V));
}

/// The tail statistic: which percentile was chosen, its value, how many
/// samples lie beyond it and how many samples there were.
struct Tail {
  double Percentile = 0;
  double Value = 0;
  size_t Beyond = 0;
  size_t Samples = 0;
};

/// Picks the highest candidate percentile with at least kMinBeyond samples
/// beyond it. With fewer than 20 samples no candidate qualifies; the
/// maximum is reported then (Percentile 100, Beyond 0) so a short run shows
/// as such instead of silently reporting a thin tail.
inline Tail tailOf(std::vector<double> Samples) {
  Tail T;
  T.Samples = Samples.size();
  if (Samples.empty())
    return T;
  std::sort(Samples.begin(), Samples.end());
  for (double P : kTailCandidates) {
    size_t Rank = nearestRank(P, Samples.size());
    if (Samples.size() - Rank >= kMinBeyond) {
      T.Percentile = P;
      T.Value = Samples[Rank - 1];
      T.Beyond = Samples.size() - Rank;
      return T;
    }
  }
  T.Percentile = 100;
  T.Value = Samples.back();
  return T;
}

/// The end-to-end statistics of one timed phase.
struct Summary {
  double OpsPerS = 0;
  double P50 = 0;
  double TailValue = 0;
  Tail TailOfWindow; ///< the first window's tail choice, for the report
  size_t Windows = 0;
};

/// One window of a windowed phase: how many operations completed in it,
/// and a uniform sample of their latencies (all of them when few).
struct Window {
  uint64_t Ops = 0;
  std::vector<double> LatencyMs;
};

/// Summarizes a phase that is one window: \p LatencyMs holds one sample
/// per operation and \p Seconds is the time the rate is taken over.
inline Summary summarize(const std::vector<double> &LatencyMs,
                         double Seconds) {
  Summary S;
  S.Windows = 1;
  S.OpsPerS = Seconds > 0 ? double(LatencyMs.size()) / Seconds : 0;
  S.P50 = hdMedian(LatencyMs);
  S.TailOfWindow = tailOf(LatencyMs);
  S.TailValue = S.TailOfWindow.Value;
  return S;
}

/// Summarizes a phase cut into windows of \p WindowS seconds each: every
/// statistic is the median of its per-window values, so a stall that
/// covers fewer than half the windows does not move it.
inline Summary summarize(const std::vector<Window> &Windows, double WindowS) {
  Summary S;
  if (Windows.empty() || !(WindowS > 0))
    return S;
  std::vector<double> Ops, P50, TailV;
  for (const Window &W : Windows) {
    Ops.push_back(double(W.Ops) / WindowS);
    P50.push_back(hdMedian(W.LatencyMs));
    TailV.push_back(tailOf(W.LatencyMs).Value);
  }
  S.Windows = Windows.size();
  S.OpsPerS = median(Ops);
  S.P50 = median(P50);
  S.TailValue = median(TailV);
  S.TailOfWindow = tailOf(Windows[0].LatencyMs);
  return S;
}

/// Keeps a uniform sample of at most Cap values out of a stream of unknown
/// length (Vitter's algorithm R). Its storage is allocated and touched up
/// front, so memory does not grow with the number of values offered.
class Reservoir {
public:
  explicit Reservoir(size_t Cap) : Buf(Cap) {}
  /// Offers \p V; \p Rand is a fresh uniform 64-bit random number.
  void offer(double V, uint64_t Rand) {
    if (Seen < Buf.size())
      Buf[Seen] = V;
    else if (uint64_t J = Rand % (Seen + 1); J < Buf.size())
      Buf[J] = V;
    ++Seen;
  }
  uint64_t seen() const { return Seen; }
  /// The kept values (all of them while fewer than Cap were offered).
  std::vector<double> sample() const {
    return {Buf.begin(), Buf.begin() + std::min<uint64_t>(Seen, Buf.size())};
  }

private:
  std::vector<double> Buf;
  uint64_t Seen = 0;
};

inline double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / double(V.size());
}

} // namespace repobench

#endif // REPOBENCH_STATS_H
