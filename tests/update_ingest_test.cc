// Update-heavy serving suite: batched move ingest (ObjectStore::ApplyMoves
// / ApplyMoveBatch) and the epoch-versioned, partition-scoped result-cache
// invalidation it feeds (query_cache.h).
//
// The load-bearing properties:
//
//   * ApplyMoves is exactly a recorded sequence of MoveObject calls —
//     same final store state, same per-partition epochs, same
//     stop-at-first-error semantics;
//   * epochs bump only for the partitions a write touches;
//   * a cached engine stays bitwise-identical to an uncached engine while
//     moves interleave with queries — stale cached results are repaired
//     from the per-partition change journal when possible and rejected
//     otherwise, never served unpatched;
//   * cached results survive writes to partitions outside their recorded
//     dependency set (the point of partition-scoped invalidation);
//   * geometry entries (distance fields, host lookups) survive every
//     write;
//   * the whole read/write surface is clean under TSan when readers and
//     writers honor the documented shared/exclusive locking contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "core/query/batch_executor.h"
#include "core/query/query_cache.h"
#include "core/query/query_engine.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"

namespace indoor {
namespace {

BuildingConfig SmallBuilding(uint64_t seed, double obstacle_probability,
                             int floors = 3) {
  BuildingConfig config;
  config.floors = floors;
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

/// `count` valid random moves over the store's current population.
std::vector<MoveOp> RandomMoves(const FloorPlan& plan, size_t object_count,
                                size_t count, Rng* rng) {
  const PartitionSampler sampler(plan);
  std::vector<MoveOp> moves;
  moves.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const PartitionId target = sampler.Sample(rng);
    moves.push_back(
        MoveOp{static_cast<ObjectId>(rng->NextIndex(object_count)), target,
               RandomPointInPartition(plan.partition(target), rng)});
  }
  return moves;
}

// ------------------------------------------------------------ door lists

/// Reads every door list of partition `v`, building them.
void ReadDoorLists(const FloorPlan& plan, const ObjectStore& store,
                   PartitionId v) {
  for (const DoorId d : plan.TouchingDoors(v)) store.DoorList(v, d);
}

// Lists built before a write are updated in place; they must equal the
// lists a fresh store builds from the final population, bit for bit
// (same keys, same (key, id) order).
TEST(DoorListTest, WritesKeepListsEqualToFreshBuild) {
  const FloorPlan plan = GenerateBuilding(SmallBuilding(97, 0.5));
  ObjectStore store(plan);
  Rng rng(98);
  PopulateStore(GenerateObjects(plan, 150, &rng), &store);
  // Half the partitions are built before the writes, half stay lazy.
  for (PartitionId v = 0; v < plan.partition_count(); v += 2) {
    ReadDoorLists(plan, store, v);
  }
  for (int round = 0; round < 4; ++round) {
    for (const GeneratedObject& o : GenerateObjects(plan, 10, &rng)) {
      ASSERT_TRUE(store.Insert(o.partition, o.position).ok());
    }
    ASSERT_TRUE(
        store.ApplyMoves(RandomMoves(plan, store.size(), 40, &rng)).ok());
    // A move inside the object's own partition re-keys it in place.
    const IndoorObject& o = store.object(static_cast<ObjectId>(round));
    ASSERT_TRUE(store
                    .MoveObject(o.id, o.partition,
                                RandomPointInPartition(
                                    plan.partition(o.partition), &rng))
                    .ok());
  }

  ObjectStore fresh(plan);
  for (const IndoorObject& o : store.objects()) {
    ASSERT_EQ(fresh.Insert(o.partition, o.position).value(), o.id);
  }
  size_t lists = 0;
  for (PartitionId v = 0; v < plan.partition_count(); ++v) {
    for (const DoorId d : plan.TouchingDoors(v)) {
      const auto got = store.DoorList(v, d);
      const auto want = fresh.DoorList(v, d);
      ASSERT_EQ(got.size(), want.size()) << "partition " << v << " door " << d;
      ASSERT_EQ(got.size(), store.bucket(v).size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].id, want[i].id) << "partition " << v << " door " << d;
        ASSERT_EQ(std::memcmp(&got[i].key, &want[i].key, sizeof(double)), 0)
            << "partition " << v << " door " << d << " entry " << i;
      }
      ++lists;
    }
  }
  EXPECT_GT(lists, 0u);
  EXPECT_EQ(store.DoorListBytes(), fresh.DoorListBytes());
}

// ------------------------------------------------------------- ApplyMoves

TEST(ApplyMovesTest, MatchesSequentialMoveObject) {
  const FloorPlan plan = GenerateBuilding(SmallBuilding(91, 0.0));
  ObjectStore batched(plan);
  ObjectStore sequential(plan);
  Rng rng(92);
  const auto objects = GenerateObjects(plan, 120, &rng);
  PopulateStore(objects, &batched);
  PopulateStore(objects, &sequential);

  const auto moves = RandomMoves(plan, batched.size(), 60, &rng);
  size_t applied = 0;
  ASSERT_TRUE(batched.ApplyMoves(moves, &applied).ok());
  EXPECT_EQ(applied, moves.size());
  for (const MoveOp& op : moves) {
    ASSERT_TRUE(sequential.MoveObject(op.id, op.partition, op.position).ok());
  }

  ASSERT_EQ(batched.size(), sequential.size());
  for (ObjectId id = 0; id < batched.size(); ++id) {
    EXPECT_EQ(batched.object(id).partition, sequential.object(id).partition);
    EXPECT_EQ(batched.object(id).position, sequential.object(id).position);
  }
  for (PartitionId v = 0; v < plan.partition_count(); ++v) {
    EXPECT_EQ(batched.epoch(v), sequential.epoch(v)) << "partition " << v;
  }
}

TEST(ApplyMovesTest, StopsAtFirstErrorKeepingPrefixApplied) {
  const FloorPlan plan = GenerateBuilding(SmallBuilding(93, 0.0));
  ObjectStore store(plan);
  Rng rng(94);
  PopulateStore(GenerateObjects(plan, 50, &rng), &store);

  auto moves = RandomMoves(plan, store.size(), 6, &rng);
  // Distinct ids, so each prefix op's final position is its own.
  for (size_t i = 0; i < moves.size(); ++i) {
    moves[i].id = static_cast<ObjectId>(i);
  }
  moves[3].id = static_cast<ObjectId>(store.size() + 7);  // unknown object
  const IndoorObject untouched = store.object(moves[5].id);

  size_t applied = 99;
  const Status status = store.ApplyMoves(moves, &applied);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(applied, 3u);
  // The prefix landed...
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(store.object(moves[i].id).position, moves[i].position);
  }
  // ...and ops after the failing one were never attempted (moves[5] moved
  // a different object than the prefix, so its state is the pre-batch
  // one unless an earlier op happened to move the same id).
  bool moved_earlier = false;
  for (size_t i = 0; i < 3; ++i) {
    if (moves[i].id == moves[5].id) moved_earlier = true;
  }
  if (!moved_earlier) {
    EXPECT_EQ(store.object(moves[5].id).partition, untouched.partition);
    EXPECT_EQ(store.object(moves[5].id).position, untouched.position);
  }
}

TEST(ApplyMovesTest, EpochsBumpOnlyTouchedPartitions) {
  const FloorPlan plan = GenerateBuilding(SmallBuilding(95, 0.0));
  ObjectStore store(plan);
  Rng rng(96);
  const PartitionSampler sampler(plan);
  const PartitionId a = sampler.Sample(&rng);
  PartitionId b = sampler.Sample(&rng);
  while (b == a) b = sampler.Sample(&rng);

  const auto id = store.Insert(a, RandomPointInPartition(plan.partition(a),
                                                         &rng));
  ASSERT_TRUE(id.ok());

  std::vector<uint64_t> before(plan.partition_count());
  for (PartitionId v = 0; v < plan.partition_count(); ++v) {
    before[v] = store.epoch(v);
  }

  // Cross-partition move: source and destination bump, nothing else.
  ASSERT_TRUE(store
                  .MoveObject(id.value(), b,
                              RandomPointInPartition(plan.partition(b), &rng))
                  .ok());
  for (PartitionId v = 0; v < plan.partition_count(); ++v) {
    if (v == a || v == b) {
      EXPECT_EQ(store.epoch(v), before[v] + 1) << "partition " << v;
    } else {
      EXPECT_EQ(store.epoch(v), before[v]) << "partition " << v;
    }
  }

  // Intra-partition move: exactly one bump.
  const uint64_t b_epoch = store.epoch(b);
  ASSERT_TRUE(store
                  .MoveObject(id.value(), b,
                              RandomPointInPartition(plan.partition(b), &rng))
                  .ok());
  EXPECT_EQ(store.epoch(b), b_epoch + 1);
  EXPECT_EQ(store.epoch(a), before[a] + 1);
}

// ------------------------------------------- cached vs uncached under moves

// The central exactness oracle of this PR: with moves interleaved between
// query rounds, a cached engine must stay bitwise-identical to an
// uncached engine over the identical evolving population — and the runs
// must actually exercise both the result-cache hit path and the
// epoch-rejection path, which the final stats assertions pin.
TEST(UpdateIngestTest, CachedMatchesUncachedUnderInterleavedMoves) {
  for (const uint64_t seed : {311u, 1013u}) {
    const BuildingConfig config = SmallBuilding(seed, 0.5);
    QueryEngine cached(GenerateBuilding(config), CacheOptions(true));
    QueryEngine uncached(GenerateBuilding(config), CacheOptions(false));
    ASSERT_NE(cached.index().query_cache(), nullptr);

    Rng objects_rng(seed + 1);
    const auto objects = GenerateObjects(cached.plan(), 300, &objects_rng);
    PopulateStore(objects, &cached.index().objects());
    PopulateStore(objects, &uncached.index().objects());

    Rng rng(seed + 2);
    const auto positions = GenerateQueryPositions(cached.plan(), 16, &rng);
    const auto host = cached.Locate(positions[0]);
    ASSERT_TRUE(host.ok());

    for (int round = 0; round < 4; ++round) {
      // Two passes per round: the second pass re-asks a warm cache, so
      // hits are held to exactness, not only misses.
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t i = 0; i < positions.size(); ++i) {
          const Point& q = positions[i];
          EXPECT_EQ(cached.Range(q, 20.0), uncached.Range(q, 20.0))
              << "range " << i << " round " << round << " pass " << pass;
          const auto cached_knn = cached.Nearest(q, 5);
          const auto uncached_knn = uncached.Nearest(q, 5);
          ASSERT_EQ(cached_knn.size(), uncached_knn.size())
              << "knn " << i << " round " << round << " pass " << pass;
          for (size_t j = 0; j < cached_knn.size(); ++j) {
            EXPECT_EQ(cached_knn[j].id, uncached_knn[j].id);
            EXPECT_EQ(cached_knn[j].distance, uncached_knn[j].distance)
                << "knn " << i << " neighbor " << j << " round " << round;
          }
        }
      }
      // Interleave: batched ingest on the cached engine, the recorded
      // sequential equivalent on the uncached one. One move always lands
      // in positions[0]'s host partition, guaranteeing at least one
      // epoch rejection next round.
      auto moves =
          RandomMoves(cached.plan(), cached.index().objects().size(), 12,
                      &rng);
      moves[0].partition = host.value();
      moves[0].position = RandomPointInPartition(
          cached.plan().partition(host.value()), &rng);
      ASSERT_TRUE(cached.ApplyMoves(moves).ok());
      for (const MoveOp& op : moves) {
        ASSERT_TRUE(
            uncached.MoveObject(op.id, op.partition, op.position).ok());
      }
    }

    const QueryCache& cache = *cached.index().query_cache();
    EXPECT_GT(cache.ResultStats().hits, 0u);
    // Stale entries must actually be exercised: either repaired in place
    // or rejected — with spare-neighbor overprovisioning most (sometimes
    // all) stale probes are absorbed by repair.
    EXPECT_GT(cache.EpochRejects() + cache.Repairs(), 0u);
  }
}

// Partition-scoped is the point: a write OUTSIDE a cached result's
// dependency set must not cost the entry. A small radius keeps the range
// reach set on the query's own floor, so moving an object two floors away
// provably cannot be a dependency.
TEST(UpdateIngestTest, ResultsSurviveMovesOutsideDependencySet) {
  const BuildingConfig config = SmallBuilding(501, 0.0, /*floors=*/4);
  QueryEngine cached(GenerateBuilding(config), CacheOptions(true));
  QueryEngine uncached(GenerateBuilding(config), CacheOptions(false));
  Rng rng(502);
  const auto objects = GenerateObjects(cached.plan(), 400, &rng);
  PopulateStore(objects, &cached.index().objects());
  PopulateStore(objects, &uncached.index().objects());
  const QueryCache& cache = *cached.index().query_cache();

  const auto positions = GenerateQueryPositions(cached.plan(), 8, &rng);
  const Point q = positions[0];
  const auto host = cached.Locate(q);
  ASSERT_TRUE(host.ok());
  const int host_floor = cached.plan().partition(host.value()).floor();
  const double r = 1.5;

  // First miss, second miss + insert (the result doorkeeper inserts on
  // the second miss), then a clean hit.
  EXPECT_EQ(cached.Range(q, r), uncached.Range(q, r));
  EXPECT_EQ(cached.Range(q, r), uncached.Range(q, r));
  const uint64_t hits_before = cache.ResultStats().hits;
  EXPECT_EQ(cached.Range(q, r), uncached.Range(q, r));
  EXPECT_EQ(cache.ResultStats().hits, hits_before + 1);

  // An object at least two floors away: with r = 1.5 no reach-set
  // partition can be that far (any inter-floor walk exceeds the radius).
  ObjectId far_id = kInvalidId;
  for (const IndoorObject& obj : cached.index().objects().objects()) {
    const int floor = cached.plan().partition(obj.partition).floor();
    if (floor >= host_floor + 2 || floor + 2 <= host_floor) {
      far_id = obj.id;
      break;
    }
  }
  ASSERT_NE(far_id, kInvalidId);
  const PartitionId far_part = cached.index().objects().object(far_id).partition;
  const Point far_pos =
      RandomPointInPartition(cached.plan().partition(far_part), &rng);
  ASSERT_TRUE(cached.MoveObject(far_id, far_part, far_pos).ok());
  ASSERT_TRUE(uncached.MoveObject(far_id, far_part, far_pos).ok());

  // Still a hit: the far partition is not in the entry's dependency set.
  const uint64_t rejects_before = cache.EpochRejects();
  const uint64_t hits_mid = cache.ResultStats().hits;
  EXPECT_EQ(cached.Range(q, r), uncached.Range(q, r));
  EXPECT_EQ(cache.ResultStats().hits, hits_mid + 1);
  EXPECT_EQ(cache.EpochRejects(), rejects_before);

  // A write INTO the host partition (always a dependency) makes the entry
  // stale — but the change journal names the one moved object, so the
  // cached result is repaired in place rather than rejected, and the
  // patched answer must match the uncached engine bitwise.
  const uint64_t repairs_before = cache.Repairs();
  const Point host_pos =
      RandomPointInPartition(cached.plan().partition(host.value()), &rng);
  ASSERT_TRUE(cached.MoveObject(far_id, host.value(), host_pos).ok());
  ASSERT_TRUE(uncached.MoveObject(far_id, host.value(), host_pos).ok());
  EXPECT_EQ(cached.Range(q, r), uncached.Range(q, r));
  EXPECT_EQ(cache.EpochRejects(), rejects_before);
  EXPECT_EQ(cache.Repairs(), repairs_before + 1);

  // Same staleness contract for kNN (its dependency set also always
  // includes the host partition): the entry is either revalidated (the
  // moved object provably cannot enter the top-k) or rejected and
  // re-solved — exactly one of the two, and the answer matches the
  // uncached engine exactly either way.
  for (int fill = 0; fill < 2; ++fill) {  // first miss, then insert
    EXPECT_EQ(cached.Nearest(q, 2).size(), uncached.Nearest(q, 2).size());
  }
  const uint64_t knn_rejects = cache.EpochRejects();
  const uint64_t knn_repairs = cache.Repairs();
  const Point host_pos2 =
      RandomPointInPartition(cached.plan().partition(host.value()), &rng);
  ASSERT_TRUE(cached.MoveObject(far_id, host.value(), host_pos2).ok());
  ASSERT_TRUE(uncached.MoveObject(far_id, host.value(), host_pos2).ok());
  const auto cached_knn = cached.Nearest(q, 2);
  const auto uncached_knn = uncached.Nearest(q, 2);
  ASSERT_EQ(cached_knn.size(), uncached_knn.size());
  for (size_t j = 0; j < cached_knn.size(); ++j) {
    EXPECT_EQ(cached_knn[j].id, uncached_knn[j].id);
    EXPECT_EQ(cached_knn[j].distance, uncached_knn[j].distance);
  }
  EXPECT_EQ(cache.EpochRejects() + cache.Repairs(),
            knn_rejects + knn_repairs + 1);
}

// When one partition churns past the change-journal window between two
// executions of the same query, the stale entry is no longer repairable:
// it must fall back to an epoch reject and a full re-solve (which still
// matches the uncached engine).
TEST(UpdateIngestTest, JournalOverflowFallsBackToReject) {
  const BuildingConfig config = SmallBuilding(701, 0.0);
  QueryEngine cached(GenerateBuilding(config), CacheOptions(true));
  QueryEngine uncached(GenerateBuilding(config), CacheOptions(false));
  Rng rng(702);
  const auto objects = GenerateObjects(cached.plan(), 200, &rng);
  PopulateStore(objects, &cached.index().objects());
  PopulateStore(objects, &uncached.index().objects());
  const QueryCache& cache = *cached.index().query_cache();

  const Point q = GenerateQueryPositions(cached.plan(), 1, &rng)[0];
  const auto host = cached.Locate(q);
  ASSERT_TRUE(host.ok());
  const double r = 2.0;
  // First miss, then second miss + insert.
  for (int fill = 0; fill < 2; ++fill) {
    EXPECT_EQ(cached.Range(q, r), uncached.Range(q, r));
  }

  // Churn a single object inside the host partition more times than the
  // journal can hold, so ChangedSince cannot reconstruct the window.
  ObjectId mover = kInvalidId;
  for (const IndoorObject& obj : cached.index().objects().objects()) {
    if (obj.partition == host.value()) {
      mover = obj.id;
      break;
    }
  }
  ASSERT_NE(mover, kInvalidId);
  const Partition& host_part = cached.plan().partition(host.value());
  for (size_t i = 0; i < ObjectStore::kChangeJournalCapacity + 8; ++i) {
    const Point pos = RandomPointInPartition(host_part, &rng);
    ASSERT_TRUE(cached.MoveObject(mover, host.value(), pos).ok());
    ASSERT_TRUE(uncached.MoveObject(mover, host.value(), pos).ok());
  }

  const uint64_t rejects_before = cache.EpochRejects();
  const uint64_t repairs_before = cache.Repairs();
  EXPECT_EQ(cached.Range(q, r), uncached.Range(q, r));
  EXPECT_EQ(cache.EpochRejects(), rejects_before + 1);
  EXPECT_EQ(cache.Repairs(), repairs_before);
}

// Repair handles both directions of membership change: an object moved
// into range is added to the patched result, one moved away is removed —
// without re-running the search, and always matching the uncached engine.
TEST(UpdateIngestTest, RepairAddsAndRemovesMovedObjects) {
  const BuildingConfig config = SmallBuilding(711, 0.0);
  QueryEngine cached(GenerateBuilding(config), CacheOptions(true));
  QueryEngine uncached(GenerateBuilding(config), CacheOptions(false));
  Rng rng(712);
  const auto objects = GenerateObjects(cached.plan(), 150, &rng);
  PopulateStore(objects, &cached.index().objects());
  PopulateStore(objects, &uncached.index().objects());
  const QueryCache& cache = *cached.index().query_cache();

  const Point q = GenerateQueryPositions(cached.plan(), 1, &rng)[0];
  const auto host = cached.Locate(q);
  ASSERT_TRUE(host.ok());
  const Partition& host_part = cached.plan().partition(host.value());
  const double r = 3.0;
  // First miss, then second miss + insert.
  EXPECT_EQ(cached.Range(q, r), uncached.Range(q, r));
  const auto baseline = cached.Range(q, r);
  EXPECT_EQ(baseline, uncached.Range(q, r));

  // Park an object directly AT the query point: distance 0 <= r, so the
  // repaired result must now contain it.
  ObjectId mover = 0;
  ASSERT_TRUE(cached.MoveObject(mover, host.value(), q).ok());
  ASSERT_TRUE(uncached.MoveObject(mover, host.value(), q).ok());
  const uint64_t repairs_before = cache.Repairs();
  const auto with_mover = cached.Range(q, r);
  EXPECT_EQ(with_mover, uncached.Range(q, r));
  EXPECT_TRUE(std::binary_search(with_mover.begin(), with_mover.end(), mover));
  EXPECT_EQ(cache.Repairs(), repairs_before + 1);

  // Now move it somewhere inside the host partition; whether it stays in
  // the result is position-dependent, but repair must keep the cached
  // engine exactly in line with the uncached one.
  const Point away = RandomPointInPartition(host_part, &rng);
  ASSERT_TRUE(cached.MoveObject(mover, host.value(), away).ok());
  ASSERT_TRUE(uncached.MoveObject(mover, host.value(), away).ok());
  const auto after = cached.Range(q, r);
  EXPECT_EQ(after, uncached.Range(q, r));
  EXPECT_EQ(cache.Repairs(), repairs_before + 2);
}

// Writes must no longer clear geometry entries: distance fields and host
// lookups are object-independent, so AddObject/MoveObject keep them (the
// historical behavior invalidated the whole cache on every write).
TEST(UpdateIngestTest, GeometryCacheEntriesSurviveWrites) {
  QueryEngine engine(GenerateBuilding(SmallBuilding(61, 0.5)),
                     CacheOptions(true));
  Rng rng(62);
  PopulateStore(GenerateObjects(engine.plan(), 100, &rng),
                &engine.index().objects());
  const QueryCache& cache = *engine.index().query_cache();

  // The field cache's doorkeeper inserts a field on its second miss, so
  // the pt2pt fill runs twice.
  const auto pairs = GeneratePositionPairs(engine.plan(), 4, &rng);
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [a, b] : pairs) engine.Distance(a, b);
  }
  const uint64_t field_entries = cache.FieldStats().entries;
  const uint64_t host_entries = cache.HostStats().entries;
  ASSERT_GT(field_entries, 0u);
  ASSERT_GT(host_entries, 0u);

  const auto placement = GenerateObjects(engine.plan(), 1, &rng);
  ASSERT_TRUE(
      engine.AddObject(placement[0].partition, placement[0].position).ok());
  const auto moves =
      RandomMoves(engine.plan(), engine.index().objects().size(), 8, &rng);
  ASSERT_TRUE(engine.ApplyMoves(moves).ok());

  EXPECT_EQ(cache.FieldStats().entries, field_entries);
  EXPECT_EQ(cache.HostStats().entries, host_entries);
  const uint64_t field_hits = cache.FieldStats().hits;
  for (const auto& [a, b] : pairs) engine.Distance(a, b);
  EXPECT_GT(cache.FieldStats().hits, field_hits);

  // The operator-facing full reset still clears everything.
  cache.Invalidate();
  EXPECT_EQ(cache.FieldStats().entries, 0u);
  EXPECT_EQ(cache.HostStats().entries, 0u);
  EXPECT_EQ(cache.ResultStats().entries, 0u);
}

// ------------------------------------------------------------ concurrency

// The documented serving contract under a readers-writer lock: batched
// queries under shared locks, move ingest under exclusive locks. Run
// under TSan in CI; the interesting surface is the epoch loads against
// ApplyMoves' bumps and the result cache's concurrent shard traffic.
TEST(UpdateIngestTest, ConcurrentQueriesAndMovesUnderSharedLock) {
  QueryEngine engine(GenerateBuilding(SmallBuilding(77, 0.0)),
                     CacheOptions(true));
  Rng rng(78);
  PopulateStore(GenerateObjects(engine.plan(), 200, &rng),
                &engine.index().objects());
  const auto positions = GenerateQueryPositions(engine.plan(), 32, &rng);
  const size_t object_count = engine.index().objects().size();
  const PartitionSampler sampler(engine.plan());

  std::shared_mutex mutex;
  constexpr int kReaders = 6;
  constexpr int kWriters = 2;
  constexpr int kIterations = 25;
  std::vector<std::thread> threads;
  threads.reserve(kReaders + kWriters);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      BatchExecutor executor(engine.index(), 1);
      Rng thread_rng(1000 + t);
      std::vector<QueryRequest> batch;
      for (int iter = 0; iter < kIterations; ++iter) {
        batch.clear();
        for (int i = 0; i < 8; ++i) {
          const Point& q = positions[thread_rng.NextIndex(positions.size())];
          batch.push_back(i % 2 == 0 ? QueryRequest::Range(q, 15.0)
                                     : QueryRequest::Knn(q, 5));
        }
        std::shared_lock<std::shared_mutex> lock(mutex);
        const auto results = executor.Run(batch);
        EXPECT_EQ(results.size(), batch.size());
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      Rng thread_rng(2000 + t);
      for (int iter = 0; iter < kIterations; ++iter) {
        std::vector<MoveOp> moves;
        moves.reserve(4);
        for (int i = 0; i < 4; ++i) {
          const PartitionId target = sampler.Sample(&thread_rng);
          moves.push_back(MoveOp{
              static_cast<ObjectId>(thread_rng.NextIndex(object_count)),
              target,
              RandomPointInPartition(engine.plan().partition(target),
                                     &thread_rng)});
        }
        std::unique_lock<std::shared_mutex> lock(mutex);
        EXPECT_TRUE(engine.ApplyMoves(moves).ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

}  // namespace
}  // namespace indoor
