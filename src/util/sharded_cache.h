// A generic N-way sharded read-through LRU cache for cross-query work
// sharing (docs/ARCHITECTURE.md "serving layer").
//
// Design: the key space is split across `shards` independent LRU maps by
// mixed key hash; each shard is an intrusive (std::list + unordered_map)
// LRU guarded by its own mutex, so concurrent readers on different shards
// never contend and readers on the same shard only serialize for the
// duration of a find + splice + copy-out. Capacity is byte-bounded:
// every entry carries a caller-supplied byte charge and each shard evicts
// from its LRU tail once its slice of the budget is exceeded.
//
// The hit path performs no heap allocations (hash find, list splice, and
// whatever the caller's accept functor does — typically a copy into a
// pre-sized buffer), which keeps the zero-alloc steady-state contract of
// the query hot path (BENCH_baseline.json pins pt2pt at 0 allocs/query
// with the cache enabled).
//
// Observability: hits / misses / evictions / insertions are counted in
// relaxed atomics and, when the library is built with INDOOR_METRICS=ON,
// mirrored into the global MetricsRegistry under
// `<prefix>.hits|misses|evictions|insertions` (docs/METRICS.md).

#ifndef INDOOR_UTIL_SHARDED_CACHE_H_
#define INDOOR_UTIL_SHARDED_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/metrics.h"

namespace indoor {

namespace internal {

/// Registry counters of one cache instance; all null when the library is
/// built without metrics (the cache then only keeps its local atomics).
struct CacheCounters {
  metrics::Counter* hits = nullptr;
  metrics::Counter* misses = nullptr;
  metrics::Counter* evictions = nullptr;
  metrics::Counter* insertions = nullptr;
};

/// Registers (or re-finds) the four `<prefix>.*` counters. Defined in
/// sharded_cache.cc so the template below stays header-only.
CacheCounters RegisterCacheCounters(std::string_view prefix);

/// Final avalanche mix (splitmix64) applied to the caller's hash before
/// shard selection and bucket placement, so weak hashes still spread.
inline uint64_t MixHash(uint64_t h) {
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

/// Smallest power of two >= n (n clamped to [1, 256]).
size_t NormalizeShardCount(size_t n);

}  // namespace internal

/// Point-in-time usage/traffic summary of one ShardedCache (GetStats).
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t insertions = 0;
  size_t entries = 0;
  size_t bytes = 0;
};

/// N-way sharded byte-bounded LRU map. `Hash` must be stateless.
///
/// Thread-safety: Lookup / Insert / Clear / GetStats may be called from
/// any number of threads concurrently. Values are only ever observed
/// under the owning shard's lock (via Lookup's accept functor), so Value
/// needs no synchronization of its own; it must be copyable.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedCache {
 public:
  using Stats = CacheStats;

  /// `capacity_bytes` is the total budget across all shards;
  /// `metric_prefix` names the registry counters (e.g. "cache.field").
  ShardedCache(size_t capacity_bytes, size_t shards,
               std::string_view metric_prefix)
      : counters_(internal::RegisterCacheCounters(metric_prefix)),
        capacity_bytes_(capacity_bytes),
        shards_(internal::NormalizeShardCount(shards)) {
    shard_bits_ = 0;
    for (size_t s = shards_.size(); s > 1; s >>= 1) ++shard_bits_;
  }

  /// Looks up `key`; on a bucket hit calls `accept(value)` under the shard
  /// lock. `accept` returns whether the entry is truly usable (e.g. an
  /// exact-point match behind a quantized key); only then is the entry
  /// promoted to MRU and the lookup counted as a hit. Returns the accept
  /// verdict (false on absent key). Allocation-free.
  template <typename Fn>
  bool Lookup(const Key& key, Fn&& accept) {
    Shard& shard = ShardFor(key);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.map.find(key);
      if (it != shard.map.end() && accept(it->second->value)) {
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
        hits_.fetch_add(1, std::memory_order_relaxed);
        if (counters_.hits != nullptr) counters_.hits->Increment();
        return true;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    if (counters_.misses != nullptr) counters_.misses->Increment();
    return false;
  }

  /// Inserts (or replaces) `key` with a `bytes`-byte charge, then evicts
  /// LRU entries until the shard is back under its slice of the budget.
  /// An entry larger than the whole slice is admitted and immediately
  /// evicted (the shard ends empty), so pathological values cannot wedge
  /// the budget.
  void Insert(const Key& key, Value value, size_t bytes) {
    Shard& shard = ShardFor(key);
    const size_t shard_capacity = capacity_bytes_ / shards_.size();
    uint64_t evicted = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        shard.bytes -= it->second->bytes;
        it->second->value = std::move(value);
        it->second->bytes = bytes;
        shard.bytes += bytes;
        shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      } else {
        shard.lru.push_front(Entry{key, std::move(value), bytes});
        shard.map.emplace(key, shard.lru.begin());
        shard.bytes += bytes;
      }
      while (shard.bytes > shard_capacity && !shard.lru.empty()) {
        const Entry& tail = shard.lru.back();
        shard.bytes -= tail.bytes;
        shard.map.erase(tail.key);
        shard.lru.pop_back();
        ++evicted;
      }
    }
    insertions_.fetch_add(1, std::memory_order_relaxed);
    if (counters_.insertions != nullptr) counters_.insertions->Increment();
    if (evicted > 0) {
      evictions_.fetch_add(evicted, std::memory_order_relaxed);
      if (counters_.evictions != nullptr) counters_.evictions->Add(evicted);
    }
  }

  /// Finds `key` and calls `mutate(value)` under the shard lock (in-place
  /// repair of a stale entry), promoting the entry to MRU. `mutate`
  /// returns the entry's new byte charge; if the entry grew past the
  /// shard's budget slice, colder entries are evicted. Returns false when
  /// the key is absent (e.g. concurrently evicted) — the caller's repair
  /// then simply isn't persisted. Counted as neither hit nor miss: the
  /// probe that found the entry stale already counted.
  template <typename Fn>
  bool Mutate(const Key& key, Fn&& mutate) {
    Shard& shard = ShardFor(key);
    const size_t shard_capacity = capacity_bytes_ / shards_.size();
    uint64_t evicted = 0;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      const auto it = shard.map.find(key);
      if (it == shard.map.end()) return false;
      shard.bytes -= it->second->bytes;
      it->second->bytes = mutate(it->second->value);
      shard.bytes += it->second->bytes;
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      while (shard.bytes > shard_capacity && !shard.lru.empty()) {
        const Entry& tail = shard.lru.back();
        shard.bytes -= tail.bytes;
        shard.map.erase(tail.key);
        shard.lru.pop_back();
        ++evicted;
      }
    }
    if (evicted > 0) {
      evictions_.fetch_add(evicted, std::memory_order_relaxed);
      if (counters_.evictions != nullptr) counters_.evictions->Add(evicted);
    }
    return true;
  }

  /// Drops every entry (write-path invalidation). Traffic counters keep
  /// their values; entries/bytes drop to zero.
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.clear();
      shard.lru.clear();
      shard.bytes = 0;
    }
  }

  Stats GetStats() const {
    Stats stats;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    stats.insertions = insertions_.load(std::memory_order_relaxed);
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      stats.entries += shard.map.size();
      stats.bytes += shard.bytes;
    }
    return stats;
  }

  size_t capacity_bytes() const { return capacity_bytes_; }
  size_t shard_count() const { return shards_.size(); }

 private:
  struct Entry {
    Key key;
    Value value;
    size_t bytes;
  };
  // Cache-line aligned: every lookup locks its shard's mutex, and in an
  // unaligned array a shard's lock can share a line with its neighbour's
  // list and map, so readers of different shards contend.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;  // front = most recently used
    std::unordered_map<Key, typename std::list<Entry>::iterator, Hash> map;
    size_t bytes = 0;
  };

  Shard& ShardFor(const Key& key) {
    if (shard_bits_ == 0) return shards_[0];
    const uint64_t mixed = internal::MixHash(Hash{}(key));
    return shards_[mixed >> (64 - shard_bits_)];
  }

  internal::CacheCounters counters_;
  size_t capacity_bytes_;
  unsigned shard_bits_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> insertions_{0};
  std::vector<Shard> shards_;
};

}  // namespace indoor

#endif  // INDOOR_UTIL_SHARDED_CACHE_H_
