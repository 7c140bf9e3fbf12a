//===- bus/Event.h - Typed synthesis events ---------------------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event taxonomy of the synthesis event bus (bus/EventBus.h): the
/// per-sketch view of a search, which the per-sketch tracer of the
/// benchmark harness subscribes to. Counters the search, the deduction
/// engine and the service already keep in-band (SynthesisStats,
/// DeduceStats, ServiceStats, ...) are not re-published here, and job
/// completion is not an event either: front doors register
/// JobHandle::onDone. An event is a kind tag and six integers, so hot paths
/// publish it by value and the drain thread fans it out to subscribers in batches.
///
/// Frequency classes (what keeps the bus off the hot path):
///  - per-occurrence events fire at most a few thousand times per solve
///    (one per sketch generated or refuted);
///  - the truly hot sites — hole fills and candidate checks, which run
///    millions of times — are BATCHED: one HoleFillBatch event per sketch
///    completion carries the tried/pruned/checked deltas.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_BUS_EVENT_H
#define MORPHEUS_BUS_EVENT_H

#include <cstdint>
#include <string_view>

namespace morpheus {

/// What happened. Every kind documents its payload-field meaning; fields
/// not mentioned are zero.
enum class EventKind : uint8_t {
  // --- search engine (one per occurrence; the per-sketch tracer) ---
  SketchGenerated, ///< A = sketch size (number of components)
  SketchRefuted,   ///< A = sketch size; deduction proved it dead
  // --- search engine (batched: millions of fills collapse to one) ---
  HoleFillBatch,   ///< per completed sketch: A = partial fills tried,
                   ///< B = fills pruned by deduction, C = complete
                   ///< candidates checked against the example
};

constexpr unsigned NumEventKinds = unsigned(EventKind::HoleFillBatch) + 1;

/// Bit of \p K inside a subscription's kind mask.
constexpr uint64_t eventKindBit(EventKind K) {
  return uint64_t(1) << unsigned(K);
}

/// Mask accepting every kind.
constexpr uint64_t AllEventKinds = (uint64_t(1) << NumEventKinds) - 1;

/// Printable name ("sketch-generated", "hole-fill-batch", ...) of \p K.
std::string_view eventKindName(EventKind K);

/// One bus event. TimeNs is stamped by EventBus::publish (nanoseconds
/// since the bus's construction, steady clock); ExampleFp scopes the
/// event to the input/output example it concerns (0 when not applicable).
struct Event {
  EventKind Kind = EventKind::SketchGenerated;
  uint64_t TimeNs = 0;
  uint64_t ExampleFp = 0;
  uint64_t A = 0, B = 0, C = 0, D = 0; ///< kind-specific (see EventKind)

  Event() = default;
  Event(EventKind K, uint64_t Fp, uint64_t A = 0, uint64_t B = 0,
        uint64_t C = 0, uint64_t D = 0)
      : Kind(K), ExampleFp(Fp), A(A), B(B), C(C), D(D) {}
};

} // namespace morpheus

#endif // MORPHEUS_BUS_EVENT_H
