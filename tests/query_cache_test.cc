// Correctness suite for the cross-query work-sharing layer: the sharded
// source-field / host-partition cache (query_cache.h) and the batched
// parallel executor (batch_executor.h).
//
// The load-bearing property is EXACTNESS: a cached engine must return
// bitwise-identical results to an uncached engine over the same plan, for
// every query kind, on randomized buildings with and without obstructed
// rooms — the cache is a pure work-sharing layer, never an approximation.
// The suite also covers the generic ShardedCache (LRU eviction under a
// tiny budget), write invalidation, QueryScratch capacity decay, and a
// concurrent hit/miss stress that CI runs under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <thread>
#include <vector>

#include "core/distance/pt2pt_distance.h"
#include "core/distance/query_scratch.h"
#include "core/query/batch_executor.h"
#include "core/query/query_cache.h"
#include "core/query/query_engine.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"
#include "indoor/sample_plans.h"
#include "util/sharded_cache.h"

namespace indoor {
namespace {

BuildingConfig SmallBuilding(uint64_t seed, double obstacle_probability) {
  BuildingConfig config;
  config.floors = 3;
  config.rooms_per_floor = 10;
  config.room_to_room_doors = 0.3;
  config.obstacle_probability = obstacle_probability;
  config.seed = seed;
  return config;
}

IndexOptions CacheOptions(bool enabled) {
  IndexOptions options;
  options.enable_query_cache = enabled;
  return options;
}

// ------------------------------------------------------- generic ShardedCache

TEST(ShardedCacheTest, LookupMissThenHit) {
  ShardedCache<int, int> cache(1 << 20, 4, "");
  int got = 0;
  EXPECT_FALSE(cache.Lookup(7, [&](const int& v) {
    got = v;
    return true;
  }));
  cache.Insert(7, 42, 64);
  EXPECT_TRUE(cache.Lookup(7, [&](const int& v) {
    got = v;
    return true;
  }));
  EXPECT_EQ(got, 42);
  const CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 64u);
}

TEST(ShardedCacheTest, AcceptRejectionCountsAsMiss) {
  ShardedCache<int, int> cache(1 << 20, 1, "");
  cache.Insert(1, 10, 32);
  // The accept functor refusing the entry (e.g. quantum collision) must
  // register as a miss, not a hit.
  EXPECT_FALSE(cache.Lookup(1, [](const int&) { return false; }));
  const CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ShardedCacheTest, EvictsLeastRecentlyUsedUnderTinyCapacity) {
  // One shard, room for exactly two 64-byte entries.
  ShardedCache<int, int> cache(128, 1, "");
  cache.Insert(1, 100, 64);
  cache.Insert(2, 200, 64);
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_TRUE(cache.Lookup(1, [](const int&) { return true; }));
  cache.Insert(3, 300, 64);
  EXPECT_TRUE(cache.Lookup(1, [](const int&) { return true; }));
  EXPECT_FALSE(cache.Lookup(2, [](const int&) { return true; }));
  EXPECT_TRUE(cache.Lookup(3, [](const int&) { return true; }));
  const CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, 128u);
}

TEST(ShardedCacheTest, ReplacingAnEntryUpdatesBytes) {
  ShardedCache<int, int> cache(1 << 20, 1, "");
  cache.Insert(5, 1, 100);
  cache.Insert(5, 2, 40);  // same key: replace, not duplicate
  const CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 40u);
  int got = 0;
  EXPECT_TRUE(cache.Lookup(5, [&](const int& v) {
    got = v;
    return true;
  }));
  EXPECT_EQ(got, 2);
}

TEST(ShardedCacheTest, ClearEmptiesEveryShard) {
  ShardedCache<int, int> cache(1 << 20, 8, "");
  for (int i = 0; i < 64; ++i) cache.Insert(i, i, 16);
  cache.Clear();
  const CacheStats stats = cache.GetStats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(cache.Lookup(i, [](const int&) { return true; }));
  }
}

// ------------------------------------------- cached vs uncached exactness

// Every query kind, on randomized buildings with and without obstacles:
// the cached engine must reproduce the uncached engine bit for bit. Two
// passes over the same workload make the second pass all-hits, so both
// the miss path (solve + insert) and the hit path (cached field reuse)
// are held to exactness.
TEST(QueryCacheEquivalenceTest, AllQueryKindsMatchUncachedExactly) {
  for (const uint64_t seed : {311u, 1013u}) {
    for (const double obstacles : {0.0, 1.0}) {
      const BuildingConfig config = SmallBuilding(seed, obstacles);
      QueryEngine cached(GenerateBuilding(config), CacheOptions(true));
      QueryEngine uncached(GenerateBuilding(config), CacheOptions(false));
      ASSERT_NE(cached.index().query_cache(), nullptr);
      ASSERT_EQ(uncached.index().query_cache(), nullptr);

      Rng objects_rng(seed + 1);
      const auto objects =
          GenerateObjects(cached.plan(), 300, &objects_rng);
      PopulateStore(objects, &cached.index().objects());
      PopulateStore(objects, &uncached.index().objects());

      Rng rng(seed + 2);
      const auto pairs = GeneratePositionPairs(cached.plan(), 24, &rng);
      const auto positions = GenerateQueryPositions(cached.plan(), 24, &rng);
      const DistanceContext cached_ctx = cached.index().distance_context();
      const DistanceContext uncached_ctx =
          uncached.index().distance_context();

      for (int pass = 0; pass < 2; ++pass) {
        for (size_t i = 0; i < pairs.size(); ++i) {
          const auto& [a, b] = pairs[i];
          EXPECT_EQ(cached.Distance(a, b), uncached.Distance(a, b))
              << "matrix pt2pt pair " << i << " pass " << pass;
          EXPECT_EQ(Pt2PtDistanceBasic(cached_ctx, a, b),
                    Pt2PtDistanceBasic(uncached_ctx, a, b))
              << "basic pair " << i << " pass " << pass;
          EXPECT_EQ(Pt2PtDistanceVirtual(cached_ctx, a, b),
                    Pt2PtDistanceVirtual(uncached_ctx, a, b))
              << "virtual pair " << i << " pass " << pass;
          EXPECT_EQ(Pt2PtDistanceRefined(cached_ctx, a, b),
                    Pt2PtDistanceRefined(uncached_ctx, a, b))
              << "refined pair " << i << " pass " << pass;
        }
        for (size_t i = 0; i < positions.size(); ++i) {
          const Point& q = positions[i];
          EXPECT_EQ(cached.Range(q, 25.0), uncached.Range(q, 25.0))
              << "range query " << i << " pass " << pass;
          const auto cached_knn = cached.Nearest(q, 8);
          const auto uncached_knn = uncached.Nearest(q, 8);
          ASSERT_EQ(cached_knn.size(), uncached_knn.size())
              << "knn query " << i << " pass " << pass;
          for (size_t j = 0; j < cached_knn.size(); ++j) {
            EXPECT_EQ(cached_knn[j].id, uncached_knn[j].id);
            EXPECT_EQ(cached_knn[j].distance, uncached_knn[j].distance)
                << "knn query " << i << " neighbor " << j << " pass "
                << pass;
          }
        }
      }
      // The second pass must have produced field-cache hits (same
      // workload, warm cache).
      EXPECT_GT(cached.index().query_cache()->FieldStats().hits, 0u);
      EXPECT_GT(cached.index().query_cache()->HostStats().hits, 0u);
    }
  }
}

TEST(QueryCacheEquivalenceTest, HostPartitionMatchesLocator) {
  const FloorPlan plan = GenerateBuilding(SmallBuilding(47, 0.5));
  QueryEngine engine(GenerateBuilding(SmallBuilding(47, 0.5)),
                     CacheOptions(true));
  Rng rng(48);
  for (int i = 0; i < 64; ++i) {
    const Point p = RandomIndoorPosition(engine.plan(), &rng);
    const auto direct = engine.index().locator().GetHostPartition(p);
    for (int repeat = 0; repeat < 2; ++repeat) {  // miss then hit
      const auto cached = engine.Locate(p);
      ASSERT_EQ(cached.ok(), direct.ok());
      if (direct.ok()) {
        EXPECT_EQ(cached.value(), direct.value());
      }
    }
  }
}

// Two exact positions in the same quantum cell must not serve each
// other's fields: the entry stores the exact point and re-solves on
// mismatch.
TEST(QueryCacheEquivalenceTest, QuantumCollisionsStayExact) {
  QueryEngine cached(MakeRunningExamplePlan(), CacheOptions(true));
  QueryEngine uncached(MakeRunningExamplePlan(), CacheOptions(false));
  Rng rng(99);
  const auto base = GenerateQueryPositions(cached.plan(), 8, &rng);
  const double quantum = cached.index().query_cache()->options().quantum;
  for (const Point& p : base) {
    // Same cell as p (offset well below one quantum), different point.
    const Point near(p.x + quantum / 16.0, p.y + quantum / 16.0);
    for (const Point& q : {p, near, p, near}) {
      EXPECT_EQ(cached.Distance(q, base.front()),
                uncached.Distance(q, base.front()));
      EXPECT_EQ(cached.Range(q, 10.0), uncached.Range(q, 10.0));
    }
  }
}

// ------------------------------------------------------ write invalidation

TEST(QueryCacheInvalidationTest, AddObjectInvalidatesCachedResults) {
  QueryEngine cached(GenerateBuilding(SmallBuilding(71, 0.0)),
                     CacheOptions(true));
  QueryEngine uncached(GenerateBuilding(SmallBuilding(71, 0.0)),
                       CacheOptions(false));
  Rng rng(72);
  const Point q = RandomIndoorPosition(cached.plan(), &rng);
  // Warm the cache with an empty store.
  EXPECT_EQ(cached.Range(q, 30.0), uncached.Range(q, 30.0));
  EXPECT_TRUE(cached.Range(q, 30.0).empty());

  // Insert an object right at the query point through BOTH engines.
  const auto host = uncached.Locate(q);
  ASSERT_TRUE(host.ok());
  const auto id1 = cached.AddObject(host.value(), q);
  const auto id2 = uncached.AddObject(host.value(), q);
  ASSERT_TRUE(id1.ok());
  ASSERT_TRUE(id2.ok());

  auto after = cached.Range(q, 30.0);
  EXPECT_EQ(after, uncached.Range(q, 30.0));
  EXPECT_FALSE(after.empty());

  // MoveObject to another partition: both engines must again agree.
  PartitionId other = kInvalidId;
  for (const Partition& part : cached.plan().partitions()) {
    if (!part.IsOutdoor() && part.id() != host.value()) {
      other = part.id();
      break;
    }
  }
  ASSERT_NE(other, kInvalidId);
  const Point elsewhere =
      RandomPointInPartition(cached.plan().partition(other), &rng);
  ASSERT_TRUE(cached.MoveObject(id1.value(), other, elsewhere).ok());
  ASSERT_TRUE(uncached.MoveObject(id2.value(), other, elsewhere).ok());
  EXPECT_EQ(cached.Range(q, 30.0), uncached.Range(q, 30.0));
  EXPECT_EQ(cached.Nearest(q, 3).size(), uncached.Nearest(q, 3).size());
}

TEST(QueryCacheInvalidationTest, InvalidateClearsEntries) {
  QueryEngine engine(GenerateBuilding(SmallBuilding(81, 0.5)),
                     CacheOptions(true));
  Rng rng(82);
  // pt2pt fills the field cache; range fills the result cache (its legs
  // bypass the field cache); both fill the host cache.
  // Each cache's doorkeeper inserts an entry on its second miss, so both
  // fills run twice.
  const auto pairs = GeneratePositionPairs(engine.plan(), 8, &rng);
  const auto positions = GenerateQueryPositions(engine.plan(), 8, &rng);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [a, b] : pairs) engine.Distance(a, b);
    for (const Point& q : positions) engine.Range(q, 20.0);
  }
  const QueryCache* cache = engine.index().query_cache();
  EXPECT_GT(cache->FieldStats().entries, 0u);
  EXPECT_GT(cache->HostStats().entries, 0u);
  EXPECT_GT(cache->ResultStats().entries, 0u);
  engine.index().InvalidateQueryCache();
  EXPECT_EQ(cache->FieldStats().entries, 0u);
  EXPECT_EQ(cache->HostStats().entries, 0u);
  EXPECT_EQ(cache->ResultStats().entries, 0u);
}

// ---------------------------------------------------- field doorkeeper

// A field is inserted on the second miss of its exact point and served
// from the third lookup on; a quantum collision still re-solves, and the
// colliding point's first miss leaves the cached entry in place.
TEST(QueryCacheDoorkeeperTest, InsertsOnSecondMissOfTheSamePoint) {
  QueryEngine engine(GenerateBuilding(SmallBuilding(57, 0.5)),
                     CacheOptions(true));
  const QueryCache& cache = *engine.index().query_cache();
  const PartitionLocator& locator = engine.index().locator();
  const double quantum = cache.options().quantum;
  Rng rng(58);
  // A point and a second one in the same quantum cell and partition.
  Point p, near;
  PartitionId host = kInvalidId;
  for (int attempt = 0; attempt < 100 && host == kInvalidId; ++attempt) {
    p = RandomIndoorPosition(engine.plan(), &rng);
    const double fx = p.x / quantum - std::floor(p.x / quantum);
    const double fy = p.y / quantum - std::floor(p.y / quantum);
    near = Point(p.x + (fx < 0.5 ? 1 : -1) * quantum / 16.0,
                 p.y + (fy < 0.5 ? 1 : -1) * quantum / 16.0);
    const auto hp = locator.GetHostPartition(p);
    const auto hn = locator.GetHostPartition(near);
    if (hp.ok() && hn.ok() && hp.value() == hn.value() &&
        !engine.plan().LeaveDoors(hp.value()).empty()) {
      host = hp.value();
    }
  }
  ASSERT_NE(host, kInvalidId);
  const std::vector<DoorId>& doors = engine.plan().LeaveDoors(host);
  GeodesicScratch geo;
  std::vector<double> expect_p(doors.size()), expect_near(doors.size());
  locator.DistVMany(host, p, doors, &geo, expect_p.data());
  locator.DistVMany(host, near, doors, &geo, expect_near.data());
  std::vector<double> got(doors.size());
  auto lookup = [&](const Point& q) {
    std::fill(got.begin(), got.end(), -1.0);
    cache.FieldLegs(FieldKind::kLeaveFrom, host, q, doors, &geo, got.data());
  };

  lookup(p);  // first miss: solved exactly, not inserted
  EXPECT_EQ(got, expect_p);
  EXPECT_EQ(cache.FieldStats().misses, 1u);
  EXPECT_EQ(cache.FieldStats().insertions, 0u);
  EXPECT_EQ(cache.FieldStats().entries, 0u);

  lookup(p);  // second miss: inserted
  EXPECT_EQ(got, expect_p);
  EXPECT_EQ(cache.FieldStats().misses, 2u);
  EXPECT_EQ(cache.FieldStats().insertions, 1u);
  EXPECT_EQ(cache.FieldStats().entries, 1u);

  lookup(p);  // third lookup: hit
  EXPECT_EQ(got, expect_p);
  EXPECT_EQ(cache.FieldStats().hits, 1u);

  lookup(near);  // quantum collision: re-solved, entry of p kept
  EXPECT_EQ(got, expect_near);
  EXPECT_EQ(cache.FieldStats().misses, 3u);
  EXPECT_EQ(cache.FieldStats().insertions, 1u);
  lookup(p);
  EXPECT_EQ(got, expect_p);
  EXPECT_EQ(cache.FieldStats().hits, 2u);

  lookup(near);  // the colliding point's second miss replaces the entry
  EXPECT_EQ(got, expect_near);
  EXPECT_EQ(cache.FieldStats().insertions, 2u);
  EXPECT_EQ(cache.FieldStats().entries, 1u);
  lookup(near);
  EXPECT_EQ(got, expect_near);
  EXPECT_EQ(cache.FieldStats().hits, 3u);
}

// Positions served once each never enter the field cache.
TEST(QueryCacheDoorkeeperTest, FreshPositionStreamLeavesFieldCacheEmpty) {
  QueryEngine cached(GenerateBuilding(SmallBuilding(59, 0.5)),
                     CacheOptions(true));
  QueryEngine uncached(GenerateBuilding(SmallBuilding(59, 0.5)),
                       CacheOptions(false));
  Rng rng(60);
  const auto pairs = GeneratePositionPairs(cached.plan(), 200, &rng);
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(cached.Distance(a, b), uncached.Distance(a, b));
  }
  const CacheStats stats = cached.index().query_cache()->FieldStats();
  EXPECT_GT(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

// ---------------------------------------------- host and result doorkeeper

// A cached engine and an uncached twin over one populated building.
struct EnginePair {
  EnginePair(uint64_t seed, IndexOptions options)
      : cached(GenerateBuilding(SmallBuilding(seed, 0.5)),
               WithCache(options, true)),
        uncached(GenerateBuilding(SmallBuilding(seed, 0.5)),
                 WithCache(options, false)) {
    Rng rng(seed + 1);
    const auto objects = GenerateObjects(cached.plan(), 300, &rng);
    PopulateStore(objects, &cached.index().objects());
    PopulateStore(objects, &uncached.index().objects());
  }
  static IndexOptions WithCache(IndexOptions options, bool enabled) {
    options.enable_query_cache = enabled;
    return options;
  }
  const QueryCache& cache() const { return *cached.index().query_cache(); }

  QueryEngine cached;
  QueryEngine uncached;
};

void ExpectSameNeighbors(const std::vector<Neighbor>& got,
                         const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t j = 0; j < got.size(); ++j) {
    EXPECT_EQ(got[j].id, want[j].id) << "neighbor " << j;
    EXPECT_EQ(std::bit_cast<uint64_t>(got[j].distance),
              std::bit_cast<uint64_t>(want[j].distance))
        << "neighbor " << j;
  }
}

// Sentinels in the recording buffers show whether a solve recorded its
// dependencies and gates: a first miss must leave both untouched.
constexpr PartitionId kSentinelPart = 0x7fff0000u;

void ArmRecordingSentinels(QueryScratch* scratch) {
  scratch->result_deps.assign(1, kSentinelPart);
  TlsStaleResult().gates.assign(1, ResultGate{kSentinelPart, 0, 0.0, 0.0});
}

bool RecordingSentinelsIntact(const QueryScratch& scratch) {
  const std::vector<ResultGate>& gates = TlsStaleResult().gates;
  return scratch.result_deps.size() == 1 &&
         scratch.result_deps[0] == kSentinelPart && gates.size() == 1 &&
         gates[0].part == kSentinelPart;
}

TEST(QueryCacheDoorkeeperTest, HostInsertsOnSecondMissOfTheSamePoint) {
  QueryEngine engine(GenerateBuilding(SmallBuilding(63, 0.5)),
                     CacheOptions(true));
  const QueryCache& cache = *engine.index().query_cache();
  Rng rng(64);
  const Point p = RandomIndoorPosition(engine.plan(), &rng);
  const auto direct = engine.index().locator().GetHostPartition(p);
  ASSERT_TRUE(direct.ok());

  EXPECT_EQ(engine.Locate(p).value(), direct.value());  // first miss
  EXPECT_EQ(cache.HostStats().misses, 1u);
  EXPECT_EQ(cache.HostStats().insertions, 0u);
  EXPECT_EQ(cache.HostStats().entries, 0u);
  EXPECT_EQ(engine.Locate(p).value(), direct.value());  // second miss
  EXPECT_EQ(cache.HostStats().misses, 2u);
  EXPECT_EQ(cache.HostStats().insertions, 1u);
  EXPECT_EQ(cache.HostStats().entries, 1u);
  EXPECT_EQ(engine.Locate(p).value(), direct.value());  // hit
  EXPECT_EQ(cache.HostStats().hits, 1u);
  EXPECT_EQ(cache.HostStats().insertions, 1u);
}

// Range and kNN: the first miss is solved exactly without recording or
// inserting, the second is recorded and inserted, the third hits.
TEST(QueryCacheDoorkeeperTest, ResultInsertsOnSecondMissOfTheSameKey) {
  EnginePair engines(65, IndexOptions{});
  const QueryCache& cache = engines.cache();
  Rng rng(66);
  const auto positions = GenerateQueryPositions(engines.cached.plan(), 2, &rng);
  QueryScratch scratch;

  const Point& q = positions[0];
  const double r = 25.0;
  const auto want_range = engines.uncached.Range(q, r);
  ArmRecordingSentinels(&scratch);
  EXPECT_EQ(engines.cached.Range(q, r, {}, &scratch), want_range);
  EXPECT_TRUE(RecordingSentinelsIntact(scratch));
  EXPECT_EQ(cache.ResultStats().misses, 1u);
  EXPECT_EQ(cache.ResultStats().insertions, 0u);
  EXPECT_EQ(cache.ResultStats().entries, 0u);
  EXPECT_EQ(engines.cached.Range(q, r, {}, &scratch), want_range);
  EXPECT_FALSE(RecordingSentinelsIntact(scratch));
  EXPECT_EQ(cache.ResultStats().misses, 2u);
  EXPECT_EQ(cache.ResultStats().insertions, 1u);
  EXPECT_EQ(cache.ResultStats().entries, 1u);
  EXPECT_EQ(engines.cached.Range(q, r, {}, &scratch), want_range);
  EXPECT_EQ(cache.ResultStats().hits, 1u);
  EXPECT_EQ(cache.ResultStats().insertions, 1u);

  const Point& p = positions[1];
  const size_t k = 5;
  const auto want_knn = engines.uncached.Nearest(p, k);
  ArmRecordingSentinels(&scratch);
  ExpectSameNeighbors(engines.cached.Nearest(p, k, {}, &scratch), want_knn);
  EXPECT_TRUE(RecordingSentinelsIntact(scratch));
  EXPECT_EQ(scratch.collector.k(), k);  // no repair spares
  EXPECT_EQ(cache.ResultStats().misses, 3u);
  EXPECT_EQ(cache.ResultStats().insertions, 1u);
  ExpectSameNeighbors(engines.cached.Nearest(p, k, {}, &scratch), want_knn);
  EXPECT_FALSE(RecordingSentinelsIntact(scratch));
  EXPECT_GT(scratch.collector.k(), k);
  EXPECT_EQ(cache.ResultStats().misses, 4u);
  EXPECT_EQ(cache.ResultStats().insertions, 2u);
  EXPECT_EQ(cache.ResultStats().entries, 2u);
  ExpectSameNeighbors(engines.cached.Nearest(p, k, {}, &scratch), want_knn);
  EXPECT_EQ(cache.ResultStats().hits, 2u);
  EXPECT_EQ(cache.ResultStats().insertions, 2u);
}

// The doorkeeper key carries the radius / k: the same point asked with a
// different parameter is a first miss of a new key.
TEST(QueryCacheDoorkeeperTest, OtherRadiusOrKIsNotASecondMiss) {
  EnginePair engines(67, IndexOptions{});
  const QueryCache& cache = engines.cache();
  Rng rng(68);
  const Point q = GenerateQueryPositions(engines.cached.plan(), 1, &rng)[0];
  for (const double r : {10.0, 20.0, 30.0}) {
    EXPECT_EQ(engines.cached.Range(q, r), engines.uncached.Range(q, r));
  }
  for (const size_t k : {3u, 4u, 6u}) {
    ExpectSameNeighbors(engines.cached.Nearest(q, k),
                        engines.uncached.Nearest(q, k));
  }
  EXPECT_EQ(cache.ResultStats().misses, 6u);
  EXPECT_EQ(cache.ResultStats().insertions, 0u);
  // The repeats are second misses of their own keys.
  EXPECT_EQ(engines.cached.Range(q, 20.0), engines.uncached.Range(q, 20.0));
  ExpectSameNeighbors(engines.cached.Nearest(q, 4),
                      engines.uncached.Nearest(q, 4));
  EXPECT_EQ(cache.ResultStats().insertions, 2u);
}

// An entry rejected on an epoch change is replaced by its re-solve at
// once; the doorkeeper only governs keys without an entry.
TEST(QueryCacheDoorkeeperTest, EpochRejectedEntryIsReinsertedOnItsResolve) {
  EnginePair engines(69, IndexOptions{});
  const QueryCache& cache = engines.cache();
  Rng rng(70);
  const Point q = GenerateQueryPositions(engines.cached.plan(), 1, &rng)[0];
  const auto host = engines.cached.Locate(q);
  ASSERT_TRUE(host.ok());
  const double r = 20.0;
  const size_t k = 4;
  for (int fill = 0; fill < 2; ++fill) {
    EXPECT_EQ(engines.cached.Range(q, r), engines.uncached.Range(q, r));
    ExpectSameNeighbors(engines.cached.Nearest(q, k),
                        engines.uncached.Nearest(q, k));
  }
  ASSERT_EQ(cache.ResultStats().entries, 2u);

  // Churn one host-partition object past the journal window so neither
  // entry can be repaired.
  ObjectId mover = kInvalidId;
  for (const IndoorObject& obj : engines.cached.index().objects().objects()) {
    if (obj.partition == host.value()) {
      mover = obj.id;
      break;
    }
  }
  ASSERT_NE(mover, kInvalidId);
  const Partition& host_part = engines.cached.plan().partition(host.value());
  for (size_t i = 0; i < ObjectStore::kChangeJournalCapacity + 8; ++i) {
    const Point pos = RandomPointInPartition(host_part, &rng);
    ASSERT_TRUE(engines.cached.MoveObject(mover, host.value(), pos).ok());
    ASSERT_TRUE(engines.uncached.MoveObject(mover, host.value(), pos).ok());
  }

  const uint64_t insertions = cache.ResultStats().insertions;
  EXPECT_EQ(engines.cached.Range(q, r), engines.uncached.Range(q, r));
  ExpectSameNeighbors(engines.cached.Nearest(q, k),
                      engines.uncached.Nearest(q, k));
  EXPECT_EQ(cache.EpochRejects(), 2u);
  EXPECT_EQ(cache.ResultStats().insertions, insertions + 2);
  const uint64_t hits = cache.ResultStats().hits;
  EXPECT_EQ(engines.cached.Range(q, r), engines.uncached.Range(q, r));
  ExpectSameNeighbors(engines.cached.Nearest(q, k),
                      engines.uncached.Nearest(q, k));
  EXPECT_EQ(cache.ResultStats().hits, hits + 2);
}

// Positions served once each enter none of the three caches.
TEST(QueryCacheDoorkeeperTest, FreshPositionStreamLeavesHostAndResultCachesEmpty) {
  EnginePair engines(71, IndexOptions{});
  const QueryCache& cache = engines.cache();
  Rng rng(72);
  const auto positions =
      GenerateQueryPositions(engines.cached.plan(), 300, &rng);
  const auto pairs = GeneratePositionPairs(engines.cached.plan(), 100, &rng);
  for (size_t i = 0; i < positions.size(); ++i) {
    const Point& q = positions[i];
    if (i % 2 == 0) {
      EXPECT_EQ(engines.cached.Range(q, 20.0),
                engines.uncached.Range(q, 20.0));
    } else {
      ExpectSameNeighbors(engines.cached.Nearest(q, 5),
                          engines.uncached.Nearest(q, 5));
    }
  }
  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(engines.cached.Distance(a, b), engines.uncached.Distance(a, b));
  }
  for (const CacheStats& stats :
       {cache.HostStats(), cache.ResultStats(), cache.FieldStats()}) {
    EXPECT_GT(stats.misses, 0u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.insertions, 0u);
    EXPECT_EQ(stats.entries, 0u);
  }
}

// Invalidate forgets every remembered first miss: after it, the same
// misses are first misses again in all three caches.
TEST(QueryCacheDoorkeeperTest, InvalidateClearsEveryDoorkeeper) {
  EnginePair engines(73, IndexOptions{});
  const QueryCache& cache = engines.cache();
  Rng rng(74);
  const auto positions = GenerateQueryPositions(engines.cached.plan(), 2, &rng);
  const Point& located = positions[0];
  const Point& ranged = positions[1];
  const auto ranged_host = engines.uncached.Locate(ranged);
  ASSERT_TRUE(ranged_host.ok());
  const PartitionId v = ranged_host.value();
  const std::vector<DoorId>& doors = engines.cached.plan().LeaveDoors(v);
  GeodesicScratch geo;
  std::vector<double> legs(doors.size());
  // One miss in each cache: host, result (its host lookup is a second
  // one-off key) and field.
  auto miss_each = [&] {
    engines.cached.Locate(located);
    engines.cached.Range(ranged, 20.0);
    cache.FieldLegs(FieldKind::kLeaveFrom, v, ranged, doors, &geo,
                    legs.data());
  };
  miss_each();
  cache.Invalidate();
  miss_each();
  EXPECT_EQ(cache.HostStats().insertions, 0u);
  EXPECT_EQ(cache.ResultStats().insertions, 0u);
  EXPECT_EQ(cache.FieldStats().insertions, 0u);
  miss_each();
  EXPECT_GT(cache.HostStats().insertions, 0u);
  EXPECT_EQ(cache.ResultStats().insertions, 1u);
  EXPECT_EQ(cache.FieldStats().insertions, 1u);
}

// A first-miss kNN solve collects exactly k; the recorded solve collects
// k + repair spares and caches them. Both, the hit, and the cache-off
// engine serve bit-identical answers on every door engine.
TEST(QueryCacheDoorkeeperTest, FirstMissKnnMatchesRecordedAndUncachedOnEveryEngine) {
  struct Engine {
    const char* name;
    bool hierarchy;
    bool use_index_matrix;
  };
  for (const Engine& e : {Engine{"midx", false, true},
                          Engine{"full_row", false, false},
                          Engine{"hierarchy", true, true}}) {
    IndexOptions options;
    options.use_hierarchy = e.hierarchy;
    options.hierarchy_cell_target = 8;
    EnginePair engines(75, options);
    KnnQueryOptions knn;
    knn.use_index_matrix = e.use_index_matrix;
    Rng rng(76);
    const auto positions =
        GenerateQueryPositions(engines.cached.plan(), 24, &rng);
    QueryScratch scratch;
    for (size_t i = 0; i < positions.size(); ++i) {
      SCOPED_TRACE(testing::Message() << e.name << " position " << i);
      const Point& q = positions[i];
      const size_t k = 1 + i % 8;
      const auto want = engines.uncached.Nearest(q, k, knn);
      const auto first = engines.cached.Nearest(q, k, knn, &scratch);
      EXPECT_EQ(scratch.collector.k(), k);
      const auto recorded = engines.cached.Nearest(q, k, knn, &scratch);
      EXPECT_GT(scratch.collector.k(), k);
      const auto hit = engines.cached.Nearest(q, k, knn, &scratch);
      ExpectSameNeighbors(first, want);
      ExpectSameNeighbors(recorded, want);
      ExpectSameNeighbors(hit, want);
    }
    EXPECT_EQ(engines.cache().ResultStats().insertions, positions.size());
    EXPECT_EQ(engines.cache().ResultStats().hits, positions.size());
  }
}

// --------------------------------------------------------- eviction bound

TEST(QueryCacheEvictionTest, TinyCapacityEvictsButStaysExact) {
  BuildingConfig config = SmallBuilding(91, 1.0);
  IndexOptions tiny = CacheOptions(true);
  // A few KB: far less than the workload's distinct fields, forcing
  // continuous eviction through the whole run.
  tiny.cache_capacity_bytes = 4 << 10;
  QueryEngine cached(GenerateBuilding(config), tiny);
  QueryEngine uncached(GenerateBuilding(config), CacheOptions(false));
  Rng rng(92);
  const auto pairs = GeneratePositionPairs(cached.plan(), 64, &rng);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [a, b] : pairs) {
      EXPECT_EQ(cached.Distance(a, b), uncached.Distance(a, b));
    }
  }
  const CacheStats stats = cached.index().query_cache()->FieldStats();
  EXPECT_GT(stats.evictions, 0u);
  // The byte budget is enforced per shard; the total can never exceed the
  // configured capacity.
  EXPECT_LE(stats.bytes, tiny.cache_capacity_bytes);
}

// ------------------------------------------------------- batched execution

std::vector<QueryRequest> MixedBatch(const FloorPlan& plan, size_t count,
                                     Rng* rng) {
  const auto positions = GenerateQueryPositions(plan, count, rng);
  const auto pairs = GeneratePositionPairs(plan, count, rng);
  std::vector<QueryRequest> requests;
  for (size_t i = 0; i < count; ++i) {
    QueryRequest request;
    switch (i % 3) {
      case 0:
        request.kind = QueryRequest::Kind::kRange;
        request.a = positions[i];
        request.radius = 20.0;
        break;
      case 1:
        request.kind = QueryRequest::Kind::kKnn;
        request.a = positions[i];
        request.k = 5;
        break;
      default:
        request.kind = QueryRequest::Kind::kDistance;
        request.a = pairs[i].first;
        request.b = pairs[i].second;
        break;
    }
    requests.push_back(request);
  }
  return requests;
}

// RunBatch must agree bit for bit with the sequential loop, at any thread
// count, with grouping on or off, cache on or off.
TEST(BatchExecutorTest, MatchesSequentialLoopExactly) {
  for (const bool cache : {true, false}) {
    QueryEngine engine(GenerateBuilding(SmallBuilding(101, 0.5)),
                       CacheOptions(cache));
    Rng objects_rng(102);
    PopulateStore(GenerateObjects(engine.plan(), 200, &objects_rng),
                  &engine.index().objects());
    Rng rng(103);
    const auto requests = MixedBatch(engine.plan(), 60, &rng);

    // Sequential reference, computed through the same engine.
    std::vector<QueryResult> expected(requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      switch (requests[i].kind) {
        case QueryRequest::Kind::kDistance:
          expected[i].distance =
              engine.Distance(requests[i].a, requests[i].b);
          break;
        case QueryRequest::Kind::kRange:
          expected[i].ids = engine.Range(requests[i].a, requests[i].radius);
          break;
        case QueryRequest::Kind::kKnn:
          expected[i].neighbors = engine.Nearest(requests[i].a,
                                                 requests[i].k);
          break;
      }
    }

    for (const unsigned threads : {1u, 4u}) {
      for (const bool group : {true, false}) {
        BatchOptions options;
        options.threads = threads;
        options.group_by_partition = group;
        const auto results = engine.RunBatch(requests, options);
        ASSERT_EQ(results.size(), expected.size());
        for (size_t i = 0; i < results.size(); ++i) {
          EXPECT_EQ(results[i].distance, expected[i].distance)
              << "request " << i << " threads " << threads << " group "
              << group << " cache " << cache;
          EXPECT_EQ(results[i].ids, expected[i].ids) << "request " << i;
          ASSERT_EQ(results[i].neighbors.size(),
                    expected[i].neighbors.size())
              << "request " << i;
          for (size_t j = 0; j < results[i].neighbors.size(); ++j) {
            EXPECT_EQ(results[i].neighbors[j].id,
                      expected[i].neighbors[j].id);
            EXPECT_EQ(results[i].neighbors[j].distance,
                      expected[i].neighbors[j].distance);
          }
        }
      }
    }
  }
}

TEST(BatchExecutorTest, EmptyBatchAndReuse) {
  QueryEngine engine(MakeRunningExamplePlan(), CacheOptions(true));
  BatchExecutor executor(engine.index(), 2);
  EXPECT_TRUE(executor.Run({}).empty());
  Rng rng(7);
  const auto requests = MixedBatch(engine.plan(), 9, &rng);
  // Repeated Run() calls on one executor (the serving-loop pattern) must
  // keep producing identical results.
  const auto first = executor.Run(requests);
  const auto second = executor.Run(requests);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].distance, second[i].distance);
    EXPECT_EQ(first[i].ids, second[i].ids);
    EXPECT_EQ(first[i].neighbors.size(), second[i].neighbors.size());
  }
}

// ------------------------------------------------------ concurrent stress

// Many threads hammer one cached engine with overlapping hot positions:
// concurrent hits, misses, inserts, and evictions on the same shards.
// Run under TSan in CI; asserts exactness against an uncached engine.
TEST(QueryCacheConcurrencyTest, ConcurrentHitsAndMissesStayExact) {
  BuildingConfig config = SmallBuilding(121, 0.5);
  IndexOptions small = CacheOptions(true);
  small.cache_capacity_bytes = 64 << 10;  // small enough to evict
  QueryEngine cached(GenerateBuilding(config), small);
  QueryEngine uncached(GenerateBuilding(config), CacheOptions(false));
  Rng objects_rng(122);
  const auto objects = GenerateObjects(cached.plan(), 150, &objects_rng);
  PopulateStore(objects, &cached.index().objects());
  PopulateStore(objects, &uncached.index().objects());

  Rng rng(123);
  const auto positions = GenerateQueryPositions(cached.plan(), 16, &rng);
  const auto pairs = GeneratePositionPairs(cached.plan(), 16, &rng);

  // Uncached expectations, computed sequentially up front.
  std::vector<double> expected_distance(pairs.size());
  std::vector<std::vector<ObjectId>> expected_range(positions.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    expected_distance[i] =
        uncached.Distance(pairs[i].first, pairs[i].second);
  }
  for (size_t i = 0; i < positions.size(); ++i) {
    expected_range[i] = uncached.Range(positions[i], 20.0);
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 40;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      QueryScratch scratch;
      for (int round = 0; round < kRounds; ++round) {
        const size_t i = (t * 7 + round) % pairs.size();
        const double d = cached.Distance(pairs[i].first, pairs[i].second,
                                         &scratch);
        if (d != expected_distance[i]) mismatches.fetch_add(1);
        const size_t j = (t * 5 + round) % positions.size();
        if (cached.Range(positions[j], 20.0, {}, &scratch) !=
            expected_range[j]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  const CacheStats stats = cached.index().query_cache()->FieldStats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
}

// Four readers race on the first, then the second miss of one point in
// all three caches (run under TSan in CI). A lost race may only move an
// insert one miss earlier; answers stay exact, the second round leaves
// one entry per key, and a third round is all hits.
TEST(QueryCacheConcurrencyTest, ReadersRaceOnFirstAndSecondMisses) {
  EnginePair engines(125, IndexOptions{});
  const QueryCache& cache = engines.cache();
  Rng rng(126);
  const Point q = GenerateQueryPositions(engines.cached.plan(), 1, &rng)[0];
  const Point b = GenerateQueryPositions(engines.cached.plan(), 1, &rng)[0];
  const auto want_range = engines.uncached.Range(q, 20.0);
  const auto want_knn = engines.uncached.Nearest(q, 5);
  const double want_distance = engines.uncached.Distance(q, b);
  constexpr int kThreads = 4;
  std::atomic<int> mismatches{0};
  auto race = [&] {
    std::atomic<int> ready{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < kThreads; ++t) {
      readers.emplace_back([&] {
        QueryScratch scratch;
        ++ready;
        while (ready.load() < kThreads) std::this_thread::yield();
        if (engines.cached.Range(q, 20.0, {}, &scratch) != want_range) {
          ++mismatches;
        }
        const auto knn = engines.cached.Nearest(q, 5, {}, &scratch);
        bool same = knn.size() == want_knn.size();
        for (size_t j = 0; same && j < knn.size(); ++j) {
          same = knn[j].id == want_knn[j].id &&
                 knn[j].distance == want_knn[j].distance;
        }
        if (!same) ++mismatches;
        if (engines.cached.Distance(q, b, &scratch) != want_distance) {
          ++mismatches;
        }
      });
    }
    for (std::thread& reader : readers) reader.join();
  };
  race();  // first misses
  race();  // second misses
  EXPECT_EQ(cache.ResultStats().entries, 2u);
  EXPECT_GT(cache.HostStats().entries, 0u);
  EXPECT_GT(cache.FieldStats().entries, 0u);
  const uint64_t result_hits = cache.ResultStats().hits;
  const uint64_t insertions = cache.ResultStats().insertions;
  race();  // hits
  EXPECT_EQ(cache.ResultStats().hits, result_hits + 2 * kThreads);
  EXPECT_EQ(cache.ResultStats().insertions, insertions);
  EXPECT_EQ(mismatches.load(), 0);
}

// ----------------------------------------------------- QueryScratch decay

TEST(QueryScratchDecayTest, ShrinksAfterCapacitySpike) {
  QueryEngine engine(MakeRunningExamplePlan());
  QueryScratch scratch;
  // Simulate a one-off huge query: inflate two scratch buffers far past
  // anything the steady workload needs.
  scratch.src_leg.resize(size_t{4} << 20);  // 32 MiB of doubles
  scratch.d2d_cache.resize(size_t{1} << 20);
  scratch.src_leg.shrink_to_fit();
  scratch.d2d_cache.shrink_to_fit();
  const size_t inflated = scratch.CapacityBytes();
  ASSERT_GT(inflated, size_t{16} << 20);
  scratch.src_leg.clear();
  scratch.d2d_cache.clear();

  // Run well past one decay interval of small queries.
  Rng rng(5);
  const auto pairs = GeneratePositionPairs(engine.plan(),
                                           QueryScratch::kDecayInterval, &rng);
  for (int i = 0; i < 2 * QueryScratch::kDecayInterval + 1; ++i) {
    engine.Distance(pairs[i % pairs.size()].first,
                    pairs[i % pairs.size()].second, &scratch);
  }
  EXPECT_LT(scratch.CapacityBytes(), inflated / 4)
      << "high-water-mark decay did not release the spike capacity";
}

TEST(QueryScratchDecayTest, SteadyWorkloadKeepsCapacity) {
  QueryEngine engine(GenerateBuilding(SmallBuilding(131, 0.5)));
  QueryScratch scratch;
  Rng rng(132);
  const auto pairs = GeneratePositionPairs(engine.plan(), 8, &rng);
  // Warm up, snapshot capacity, then run several decay windows of the
  // same workload: capacity must not oscillate (no shrink/regrow churn —
  // that would reintroduce steady-state allocations on the hot path).
  for (int i = 0; i < QueryScratch::kDecayInterval; ++i) {
    engine.Distance(pairs[i % pairs.size()].first,
                    pairs[i % pairs.size()].second, &scratch);
  }
  const size_t warm = scratch.CapacityBytes();
  for (int i = 0; i < 3 * QueryScratch::kDecayInterval; ++i) {
    engine.Distance(pairs[i % pairs.size()].first,
                    pairs[i % pairs.size()].second, &scratch);
  }
  EXPECT_EQ(scratch.CapacityBytes(), warm);
}

}  // namespace
}  // namespace indoor
