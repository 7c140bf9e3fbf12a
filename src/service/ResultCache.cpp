//===- service/ResultCache.cpp - Fingerprint-keyed LRU solution cache ---------==//
//
// Part of the Morpheus reproduction, MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/ResultCache.h"

using namespace morpheus;

std::optional<Solution> ResultCache::getLocked(uint64_t Key) {
  auto It = Index.find(Key);
  if (It == Index.end())
    return std::nullopt;
  Lru.splice(Lru.begin(), Lru, It->second); // bump to MRU
  return It->second->second;
}

std::optional<Solution> ResultCache::lookup(uint64_t Key) {
  MutexLock Lock(M);
  std::optional<Solution> S = getLocked(Key);
  if (S)
    ++Counters.Hits;
  else
    ++Counters.Misses;
  return S;
}

std::optional<Solution> ResultCache::probe(uint64_t Key) {
  MutexLock Lock(M);
  std::optional<Solution> S = getLocked(Key);
  if (S)
    ++Counters.Hits;
  return S;
}

std::optional<Solution> ResultCache::peek(uint64_t Key) {
  MutexLock Lock(M);
  return getLocked(Key);
}

void ResultCache::noteMiss() {
  MutexLock Lock(M);
  ++Counters.Misses;
}

void ResultCache::reclassifyMissAsHit() {
  MutexLock Lock(M);
  if (Counters.Misses)
    --Counters.Misses;
  ++Counters.Hits;
}

void ResultCache::insert(uint64_t Key, Solution S) {
  MutexLock Lock(M);
  ++Counters.Insertions;
  if (Capacity == 0)
    return;
  auto It = Index.find(Key);
  if (It != Index.end()) {
    It->second->second = std::move(S);
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  Lru.emplace_front(Key, std::move(S));
  Index.emplace(Key, Lru.begin());
  if (Lru.size() > Capacity) {
    Index.erase(Lru.back().first);
    Lru.pop_back();
    ++Counters.Evictions;
  }
}

void ResultCache::noteCoalesced() {
  MutexLock Lock(M);
  ++Counters.Coalesced;
}

size_t ResultCache::size() const {
  MutexLock Lock(M);
  return Lru.size();
}

CacheStats ResultCache::stats() const {
  MutexLock Lock(M);
  return Counters;
}

std::vector<std::pair<uint64_t, Solution>> ResultCache::snapshot() const {
  MutexLock Lock(M);
  std::vector<std::pair<uint64_t, Solution>> Out;
  Out.reserve(Lru.size());
  for (const auto &Entry : Lru)
    Out.push_back(Entry);
  return Out;
}

void ResultCache::restore(uint64_t Key, Solution S) {
  MutexLock Lock(M);
  if (Capacity == 0 || Lru.size() >= Capacity)
    return;
  if (Index.count(Key))
    return;
  Lru.emplace_back(Key, std::move(S));
  Index.emplace(Key, std::prev(Lru.end()));
  ++Counters.WarmLoaded;
}
