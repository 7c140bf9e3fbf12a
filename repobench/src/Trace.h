//===- Trace.h - In-memory spans around the harness's calls -----*- C++ -*-===//
//
// A traced run records one span around every public call the harness makes
// into the program, plus per-sketch spans rebuilt from the program's event
// bus. A span has a name, the layer (src/ module) it is charged to, start
// and end on the steady clock, its own id, its parent's id and the id of
// the request it belongs to. Spans stay in memory and are written out once,
// when the run ends.
//
// Each thread owns one SpanLog, so recording takes no lock. Self time is
// accumulated as spans end: a span adds its duration to its own layer and
// subtracts it from its parent's layer, so a layer's self time is the time
// its spans cover minus the time their children cover. Every log keeps the
// self-time sums for all of its spans but stores at most a fixed number of
// spans for the output file.
//
//===----------------------------------------------------------------------===//

#ifndef REPOBENCH_TRACE_H
#define REPOBENCH_TRACE_H

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace repobench {

/// The layers a span can be charged to: the src/ modules the benchmark
/// measures, plus the harness itself (request loops, generators, checks).
enum class Layer : uint8_t {
  Harness, Api, Synth, Smt, Spec, Interp, Table, Service, Io, Net, Cluster,
  Bus
};
constexpr size_t kNumLayers = size_t(Layer::Bus) + 1;
const char *layerName(Layer L);

inline uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

struct Span {
  const char *Name = "";
  Layer L = Layer::Harness;
  uint64_t StartNs = 0, EndNs = 0;
  uint64_t Id = 0, Parent = 0, Req = 0;
};

class SpanLog {
public:
  /// \p Tag makes ids unique across logs; \p KeepCap bounds stored spans.
  explicit SpanLog(uint32_t Tag, size_t KeepCap = 20000)
      : Tag(Tag), KeepCap(KeepCap) {}

  /// A fresh span id (for spans whose start and end are recorded apart).
  uint64_t newId() { return (uint64_t(Tag) << 40) | ++Seq; }

  /// Opens a span nested in the innermost open span of this log.
  void begin(const char *Name, Layer L, uint64_t Req);
  /// Closes the innermost open span.
  void end();
  /// Records a finished span whose parent (charged to \p ParentLayer) may
  /// live in another log. A zero Id is assigned from this log.
  void add(Span S, Layer ParentLayer);

  /// Id of the innermost open span, 0 when none.
  uint64_t current() const { return Open.empty() ? 0 : Open.back().Id; }

  const std::array<double, kNumLayers> &selfNs() const { return SelfNs; }
  uint64_t recorded() const { return Recorded; }
  const std::vector<Span> &kept() const { return Kept; }
  /// Total duration (ns) and count of every span, by span name (keyed by
  /// the name literal's address: one map probe per span, no allocation).
  const std::map<const char *, std::pair<double, uint64_t>> &byName() const {
    return ByName;
  }

private:
  void finish(const Span &S, const Layer *ParentLayer);

  uint32_t Tag;
  size_t KeepCap;
  uint64_t Seq = 0;
  uint64_t Recorded = 0;
  std::vector<Span> Open;
  std::vector<Span> Kept;
  std::array<double, kNumLayers> SelfNs{};
  std::map<const char *, std::pair<double, uint64_t>> ByName;
};

/// Opens a span for the lifetime of the scope when \p Log is non-null.
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const char *Name, Layer L, uint64_t Req)
      : Log(Log) {
    if (Log)
      Log->begin(Name, L, Req);
  }
  ~ScopedSpan() {
    if (Log)
      Log->end();
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog *Log;
};

/// Sums the self time of several logs, per layer, in seconds.
std::array<double, kNumLayers> selfSeconds(const std::vector<const SpanLog *> &Logs);

/// Mean duration in microseconds of the spans named \p Name across
/// \p Logs; 0 when there are none.
double meanSpanUs(const std::vector<const SpanLog *> &Logs, const std::string &Name);

/// Writes every kept span of \p Logs as one JSON object per line.
void writeSpans(std::ostream &OS, const std::vector<const SpanLog *> &Logs);

} // namespace repobench

#endif // REPOBENCH_TRACE_H
