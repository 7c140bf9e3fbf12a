//===- bus/Event.h - Typed synthesis events ---------------------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event taxonomy of the synthesis event bus (bus/EventBus.h): the
/// per-sketch view of a search and the service job lifecycle — the only
/// events something outside the tests subscribes to. Counters the search,
/// the deduction engine and the service already keep in-band
/// (SynthesisStats, DeduceStats, ServiceStats, ...) are not re-published
/// here. Events are cheap to construct and copy — five scalars plus two
/// usually-null shared_ptr payload slots — so hot paths publish them by
/// value and the drain thread fans them out to subscribers in batches.
///
/// Frequency classes (what keeps the bus off the hot path):
///  - per-occurrence events fire at most a few thousand times per solve
///    (sketches, job lifecycle);
///  - the truly hot sites — hole fills and candidate checks, which run
///    millions of times — are BATCHED: one HoleFillBatch event per sketch
///    completion carries the tried/pruned/checked deltas.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_BUS_EVENT_H
#define MORPHEUS_BUS_EVENT_H

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace morpheus {

struct Problem; // api/Engine.h

/// What happened. Every kind documents its payload-field meaning; fields
/// not mentioned are zero/null.
enum class EventKind : uint8_t {
  // --- search engine (one per occurrence; the per-sketch tracer) ---
  SketchGenerated, ///< A = sketch size (number of components)
  SketchRefuted,   ///< A = sketch size; deduction proved it dead
  // --- search engine (batched: millions of fills collapse to one) ---
  HoleFillBatch,   ///< per completed sketch: A = partial fills tried,
                   ///< B = fills pruned by deduction, C = complete
                   ///< candidates checked against the example
  // --- service job lifecycle (TrafficRecorder, cluster pumps) ---
  JobSubmitted,    ///< A = job id, B = problem fp, C = priority (int64),
                   ///< D = deadline ms (0 none), Prob = problem snapshot
  JobStarted,      ///< A = job id, B = fp; a worker picked the job up
                   ///< (queue wait ended). Cache hits never fire this.
  JobCompleted,    ///< A = job id, B = problem fp, C = Outcome,
                   ///< D = ResultSource, Text = program sexp if solved
};

constexpr unsigned NumEventKinds = unsigned(EventKind::JobCompleted) + 1;

/// Bit of \p K inside a subscription's kind mask.
constexpr uint64_t eventKindBit(EventKind K) {
  return uint64_t(1) << unsigned(K);
}

/// Mask accepting every kind.
constexpr uint64_t AllEventKinds = (uint64_t(1) << NumEventKinds) - 1;

/// Printable name ("sketch-generated", "job-submitted", ...) of \p K.
std::string_view eventKindName(EventKind K);

/// One bus event. TimeNs is stamped by EventBus::publish (nanoseconds
/// since the bus's construction, steady clock); ExampleFp scopes the
/// event to the input/output example it concerns (0 when not applicable).
struct Event {
  EventKind Kind = EventKind::SketchGenerated;
  uint64_t TimeNs = 0;
  uint64_t ExampleFp = 0;
  uint64_t A = 0, B = 0, C = 0, D = 0; ///< kind-specific (see EventKind)
  /// Heavy payloads ride shared_ptrs so publishing stays allocation-free
  /// for the common scalar-only kinds.
  std::shared_ptr<const Problem> Prob;     ///< JobSubmitted
  std::shared_ptr<const std::string> Text; ///< program s-expression

  Event() = default;
  Event(EventKind K, uint64_t Fp, uint64_t A = 0, uint64_t B = 0,
        uint64_t C = 0, uint64_t D = 0)
      : Kind(K), ExampleFp(Fp), A(A), B(B), C(C), D(D) {}
};

} // namespace morpheus

#endif // MORPHEUS_BUS_EVENT_H
