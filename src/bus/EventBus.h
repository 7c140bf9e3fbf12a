//===- bus/EventBus.h - Off-hot-path synthesis event bus --------*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pub/sub bus that extends the synthesizer horizontally without
/// touching its fast path (the FDMI idea: plugins subscribe to a filtered
/// event stream instead of being compiled into the core).
///
///   std::shared_ptr<EventBus> Bus = EventBus::create();
///   Bus->subscribe({"sketch-tracer",
///                   eventKindBit(EventKind::SketchGenerated) |
///                       eventKindBit(EventKind::HoleFillBatch),
///                   [](const std::vector<Event> &Batch) { ... }});
///   Engine E = Engine::standard(EngineOptions().eventBus(Bus));
///
/// The bus carries search telemetry only. It is not a completion channel:
/// code that must act when a service job finishes registers
/// JobHandle::onDone (service/SynthService.h).
///
/// Architecture:
///  - producers (search threads) publish() into one bounded
///    multi-producer ring; a publish is a mask test, a CAS-claimed slot
///    write and a release store — no locks, no allocation, and a
///    no-subscriber publish is just the mask test (a single relaxed load);
///  - one dedicated drain thread pops events in batches (up to
///    Options::MaxBatch) and delivers each batch to every subscriber
///    whose kind mask accepts it. Subscriber callbacks run on
///    the drain thread only, one at a time: a subscriber needs no locking
///    of its own state;
///  - buffering is bounded with an explicit DropPolicy: DropNewest (the
///    default; a full ring refuses the event and counts it — hot paths
///    never wait on telemetry) or Block (the publisher spins until space
///    frees — lossless capture for tracers);
///  - flush() is acked: it returns only after every event published
///    before the call has been delivered to subscribers, and the
///    destructor performs the same drain before joining the thread, so
///    shutdown never truncates a recording.
///
/// Memory-order audit (the "don't sit on the fence" checklist for the
/// ring; tests/BusTest.cpp stresses it under the TSan CI job):
///  - each slot carries a sequence atomic; producers claim a slot with a
///    relaxed CAS on the enqueue cursor, write the event, then
///    store(seq+1, release) — the consumer's load(acquire) of the same
///    sequence is what orders the event write before the read;
///  - the enqueue cursor itself is only a ticket dispenser (relaxed is
///    enough: slot sequences carry all the data ordering);
///  - DeliveredCount is published with release by the drain thread and
///    read with acquire by flush(), ordering subscriber side effects
///    before flush() returns.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_BUS_EVENTBUS_H
#define MORPHEUS_BUS_EVENTBUS_H

#include "bus/Event.h"
#include "support/Sync.h"

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <vector>

namespace morpheus {

/// What happens to a publish that finds the ring full.
enum class DropPolicy {
  DropNewest, ///< refuse the event, count it in Stats::Dropped (default)
  Block       ///< spin/yield until a slot frees; publish never fails
};

/// One subscriber: a name (diagnostics), the kinds it wants, and the batch
/// callback. OnBatch runs on the bus's drain thread; batches are non-empty
/// and arrive in publish order as observed by the ring.
struct Subscription {
  std::string Name;
  uint64_t KindMask = AllEventKinds;
  std::function<void(const std::vector<Event> &)> OnBatch;
};

/// Monotonic bus counters (since construction).
struct BusStats {
  uint64_t Published = 0; ///< events accepted into the ring
  uint64_t Dropped = 0;   ///< refused by a full ring (DropNewest)
  uint64_t Skipped = 0;   ///< short-circuited: no subscriber wanted the kind
  uint64_t Delivered = 0; ///< events handed to at least one subscriber
  uint64_t Batches = 0;   ///< drain iterations that dispatched events
  uint64_t MaxBatch = 0;  ///< largest single batch dispatched
};

/// The bus. Create through EventBus::create (publishers and subscribers
/// share ownership); destruction drains outstanding events, delivers
/// them, and joins the drain thread.
class EventBus {
public:
  struct Options {
    /// Ring capacity in events; rounded up to a power of two.
    size_t Capacity = 8192;
    /// Largest batch handed to subscribers in one callback.
    size_t MaxBatch = 256;
    /// Idle drain latency: how long a published event may wait before
    /// the drain thread wakes on its own (publishers never signal — that
    /// keeps publish wait-free).
    std::chrono::milliseconds DrainInterval{2};
    DropPolicy Policy = DropPolicy::DropNewest;
  };

  static std::shared_ptr<EventBus> create(Options Opts);
  static std::shared_ptr<EventBus> create(); ///< default Options
  ~EventBus();

  EventBus(const EventBus &) = delete;
  EventBus &operator=(const EventBus &) = delete;

  /// True when some current subscriber's mask includes \p K. The
  /// hot-path gate: publishers skip building payloads for unwanted
  /// kinds. publish() re-checks internally, so calling it without
  /// checking is correct, just wasted work.
  bool wants(EventKind K) const {
    return ActiveMask.load(std::memory_order_relaxed) & eventKindBit(K);
  }

  /// Publishes \p E (stamping E.TimeNs). Returns false when the event
  /// was dropped (full ring under DropNewest) or skipped (no subscriber
  /// wants the kind); true once it is in the ring — delivery is then
  /// guaranteed (modulo unsubscribe) and ordered for flush().
  bool publish(Event E);

  /// Registers \p S; events published from now on are candidates for
  /// delivery. Returns an id for unsubscribe().
  uint64_t subscribe(Subscription S);

  /// Removes a subscriber. Returns after the drain thread can no longer
  /// call it EXCEPT when called from inside a subscriber callback (the
  /// drain thread itself), where it only unregisters.
  void unsubscribe(uint64_t Id);

  /// Acked flush: blocks until every event published before this call
  /// has been delivered to the subscribers that wanted it.
  void flush();

  BusStats stats() const;

  /// Nanoseconds since bus construction on the steady clock (the
  /// timebase of Event::TimeNs).
  uint64_t nowNs() const;

private:
  explicit EventBus(Options Opts);

  /// One ring slot (Vyukov bounded MPMC queue, used MPSC here). Seq ==
  /// index: empty, claimable by the producer whose ticket is index;
  /// Seq == index+1: full, readable by the consumer.
  struct Slot {
    std::atomic<uint64_t> Seq;
    Event E;
  };

  struct Subscriber {
    uint64_t Id = 0;
    Subscription S;
  };

  void drainLoop();
  /// Pops up to MaxBatch ready events; consumer-side of the ring.
  size_t popBatch(std::vector<Event> &Out);

  const Options Opts;
  const size_t Mask; ///< Capacity - 1 (power of two)
  const std::chrono::steady_clock::time_point Epoch;
  std::vector<Slot> Ring;
  alignas(64) std::atomic<uint64_t> EnqueuePos{0};
  alignas(64) uint64_t DequeuePos = 0; ///< drain thread only
  /// Events delivered (== dequeued and dispatched); flush() waits on it.
  alignas(64) std::atomic<uint64_t> DeliveredCount{0};
  std::atomic<uint64_t> ActiveMask{0};
  std::atomic<uint64_t> DroppedCount{0};
  std::atomic<uint64_t> SkippedCount{0};

  mutable Mutex M; ///< subscribers + stats aggregates + CVs
  CondVar DrainCV; ///< wakes the drain thread (flush/stop)
  CondVar FlushCV; ///< signals delivery progress
  std::vector<Subscriber> Subscribers GUARDED_BY(M);
  uint64_t NextSubscriberId GUARDED_BY(M) = 1;
  bool Stopping GUARDED_BY(M) = false;
  uint64_t BatchCount GUARDED_BY(M) = 0;
  uint64_t MaxBatchSeen GUARDED_BY(M) = 0;
  uint64_t DeliveredToAny GUARDED_BY(M) = 0;

  std::thread Drain;
};

} // namespace morpheus

#endif // MORPHEUS_BUS_EVENTBUS_H
