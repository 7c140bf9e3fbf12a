//===- service/ResultCache.h - Fingerprint-keyed LRU solution cache -*- C++ -*-==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bounded, thread-safe LRU map from problem fingerprints
/// (service/Fingerprint.h) to Solutions. The SynthService consults it
/// before scheduling a job — a hit turns a multi-second solve into a map
/// lookup — and inserts every completed solve (except cancelled ones,
/// which say nothing about the problem).
///
/// Cached entries are complete Solutions: Timeout and Exhausted results are
/// cached too, which is sound because the search timeout is part of the
/// fingerprint — a request with a bigger budget keys differently and solves
/// afresh.
///
/// The cache also keeps the service-wide hit/miss/coalescing counters so
/// one stats() call describes the whole dedup story.
///
//===----------------------------------------------------------------------===//

#ifndef MORPHEUS_SERVICE_RESULTCACHE_H
#define MORPHEUS_SERVICE_RESULTCACHE_H

#include "api/Engine.h"
#include "support/Sync.h"

#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

namespace morpheus {

/// Counters describing how much work the cache and single-flight layers
/// saved. A plain value type; read through ResultCache::stats() or
/// SynthService::stats().
struct CacheStats {
  uint64_t Hits = 0;      ///< lookups served from a stored Solution
  uint64_t Misses = 0;    ///< lookups that fell through to a solve
  uint64_t Insertions = 0;
  uint64_t Evictions = 0; ///< entries dropped by the LRU bound
  uint64_t Coalesced = 0; ///< submissions attached to an in-flight solve
  uint64_t WarmLoaded = 0; ///< entries restored from a persisted state dir
};

/// Fingerprint -> Solution LRU map. All operations lock one internal
/// mutex; every operation is O(1) and copies at most one Solution, so the
/// lock is never held across anything slow.
class ResultCache {
public:
  /// \p Capacity = 0 disables storage entirely (lookups miss, inserts are
  /// dropped); stats still count, so a cacheless service reports its miss
  /// traffic.
  explicit ResultCache(size_t Capacity) : Capacity(Capacity) {}

  /// Returns the stored Solution for \p Key and marks it most recently
  /// used; nullopt (counted as a miss) when absent.
  std::optional<Solution> lookup(uint64_t Key);

  /// As lookup(), but an absent key counts nothing: the caller decides
  /// later whether the submission coalesced (noteCoalesced) or genuinely
  /// fell through to a solve (noteMiss). Keeps Misses meaningful for the
  /// service, which may probe the same submission several times
  /// (backpressure retries) before classifying it once.
  std::optional<Solution> probe(uint64_t Key);

  /// As probe(), but counts nothing even on success (recency still
  /// bumps): for serving a result to handles whose hit/miss
  /// classification already happened (the dequeue-time re-check).
  std::optional<Solution> peek(uint64_t Key);

  /// Bumps the miss counter (see probe).
  void noteMiss();

  /// A submission classified as a miss at admission was ultimately served
  /// from the cache (the dequeue-time re-check after an in-flight
  /// replacement): reclassify it so Hits/Misses keep partitioning the
  /// classified submissions.
  void reclassifyMissAsHit();

  /// Stores \p S under \p Key (replacing any previous entry), evicting the
  /// least recently used entry when full.
  void insert(uint64_t Key, Solution S);

  /// Bumps the coalesced-submission counter (the single-flight layer in
  /// SynthService detects the duplicate; the cache just owns the counter).
  void noteCoalesced();

  size_t size() const;
  size_t capacity() const { return Capacity; }
  CacheStats stats() const;

  /// A consistent copy of the cache contents, MRU first — what a
  /// checkpoint persists. Writing the snapshot in this order means a
  /// restore into a smaller cache keeps the hottest entries.
  std::vector<std::pair<uint64_t, Solution>> snapshot() const;

  /// Re-inserts a persisted entry at the LRU end (warm entries must not
  /// outrank traffic the process has actually seen). Counts WarmLoaded
  /// rather than Insertions, leaving the traffic counters untouched;
  /// drops the entry when the key is already present or the cache is
  /// full (live state always wins over persisted state).
  void restore(uint64_t Key, Solution S);

private:
  /// MRU-first list of (key, solution); the map points into it.
  using LruList = std::list<std::pair<uint64_t, Solution>>;

  /// The shared find-and-bump; caller holds M and does its own counting.
  std::optional<Solution> getLocked(uint64_t Key) REQUIRES(M);

  const size_t Capacity;
  mutable Mutex M;
  LruList Lru GUARDED_BY(M);
  std::unordered_map<uint64_t, LruList::iterator> Index GUARDED_BY(M);
  CacheStats Counters GUARDED_BY(M);
};

} // namespace morpheus

#endif // MORPHEUS_SERVICE_RESULTCACHE_H
