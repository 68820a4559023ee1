// Thread-safety of the read path: every query/distance API is const over
// the index structures, so concurrent readers must be safe. Also covers
// the parallel distance-matrix builder.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "baseline/linear_scan.h"
#include "core/query/knn_query.h"
#include "core/query/range_query.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"

namespace indoor {
namespace {

TEST(ParallelBuildTest, ParallelMatrixEqualsSequential) {
  BuildingConfig config;
  config.floors = 4;
  config.rooms_per_floor = 10;
  config.room_to_room_doors = 0.3;
  config.seed = 191;
  const FloorPlan plan = GenerateBuilding(config);
  const DistanceGraph graph(plan);
  const DistanceMatrix sequential(graph, /*threads=*/1);
  const DistanceMatrix parallel(graph, /*threads=*/4);
  const DistanceMatrix autodetect(graph, /*threads=*/0);
  ASSERT_EQ(parallel.door_count(), sequential.door_count());
  for (DoorId a = 0; a < plan.door_count(); ++a) {
    for (DoorId b = 0; b < plan.door_count(); ++b) {
      EXPECT_EQ(parallel.At(a, b), sequential.At(a, b));
      EXPECT_EQ(autodetect.At(a, b), sequential.At(a, b));
    }
  }
}

TEST(ConcurrencyTest, ParallelReadersAgreeWithSequentialResults) {
  BuildingConfig config;
  config.floors = 3;
  config.rooms_per_floor = 10;
  config.seed = 193;
  const FloorPlan plan = GenerateBuilding(config);
  IndexFramework index(plan);
  Rng rng(197);
  PopulateStore(GenerateObjects(plan, 500, &rng), &index.objects());
  const auto queries = GenerateQueryPositions(plan, 64, &rng);

  // Sequential reference answers.
  std::vector<std::vector<ObjectId>> expect_range(queries.size());
  std::vector<std::vector<Neighbor>> expect_knn(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    expect_range[i] = RangeQuery(index, queries[i], 25.0);
    expect_knn[i] = KnnQuery(index, queries[i], 10);
  }

  std::atomic<size_t> next{0};
  std::atomic<int> failures{0};
  auto reader = [&] {
    for (size_t i = next++; i < queries.size(); i = next++) {
      if (RangeQuery(index, queries[i], 25.0) != expect_range[i]) {
        ++failures;
      }
      const auto knn = KnnQuery(index, queries[i], 10);
      if (knn.size() != expect_knn[i].size()) {
        ++failures;
        continue;
      }
      for (size_t j = 0; j < knn.size(); ++j) {
        if (std::fabs(knn[j].distance - expect_knn[i][j].distance) >
            1e-12) {
          ++failures;
        }
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) pool.emplace_back(reader);
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// The acceptance stress test: 8 reader threads hammer range, kNN, pt2pt
// distance, and window queries against ONE shared immutable index, on a
// building with room-to-room doors, one-way doors, and obstacles; every
// answer is checked against the sequential linear-scan oracle (range,
// kNN) or the sequential result of the same call (distance, window).
// Door lists are built on first read. Readers that hit a fresh index at
// the same moment race on those builds: every one must get the single
// published copy and the sequential answers.
TEST(ConcurrencyTest, ReadersRaceOnFirstDoorListBuild) {
  BuildingConfig config;
  config.floors = 3;
  config.rooms_per_floor = 10;
  config.obstacle_probability = 0.5;
  config.seed = 199;
  const FloorPlan plan = GenerateBuilding(config);
  Rng rng(211);
  const auto objects = GenerateObjects(plan, 400, &rng);
  const auto queries = GenerateQueryPositions(plan, 32, &rng);
  IndexFramework warm(plan);
  PopulateStore(objects, &warm.objects());
  std::vector<std::vector<ObjectId>> expect(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    expect[i] = RangeQuery(warm, queries[i], 30.0);
  }

  IndexFramework fresh(plan);
  PopulateStore(objects, &fresh.objects());
  const ObjectStore& store = fresh.objects();
  ASSERT_EQ(store.DoorListBytes(), 0u);
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::atomic<int> failures{0};
  std::vector<std::vector<const DoorListEntry*>> seen(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      // Same order on every thread, so they collide on each first build.
      for (PartitionId v = 0; v < plan.partition_count(); ++v) {
        for (const DoorId d : plan.TouchingDoors(v)) {
          seen[t].push_back(store.DoorList(v, d).data());
        }
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        if (RangeQuery(fresh, queries[i], 30.0) != expect[i]) ++failures;
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  // Each partition was built (and counted) once.
  size_t entries = 0;
  for (PartitionId v = 0; v < plan.partition_count(); ++v) {
    entries += plan.TouchingDoors(v).size() * store.bucket(v).size();
  }
  EXPECT_EQ(store.DoorListBytes(), entries * sizeof(DoorListEntry));
}

TEST(ConcurrencyTest, EightThreadStressAgainstLinearScanOracle) {
  BuildingConfig config;
  config.floors = 3;
  config.rooms_per_floor = 12;
  config.room_to_room_doors = 0.4;
  config.one_way_fraction = 0.3;
  config.obstacle_probability = 0.3;
  config.seed = 227;
  const FloorPlan plan = GenerateBuilding(config);
  IndexFramework index(plan);
  Rng rng(229);
  PopulateStore(GenerateObjects(plan, 400, &rng), &index.objects());
  const auto queries = GenerateQueryPositions(plan, 48, &rng);
  const auto pairs = GeneratePositionPairs(plan, 48, &rng);
  const DistanceContext ctx = index.distance_context();
  constexpr double kRadius = 20.0;
  constexpr size_t kK = 10;

  // Sequential oracle answers.
  std::vector<std::vector<ObjectId>> oracle_range(queries.size());
  std::vector<std::vector<Neighbor>> oracle_knn(queries.size());
  std::vector<double> oracle_dist(pairs.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    oracle_range[i] = LinearScanRange(ctx, index.objects(), queries[i],
                                      kRadius);
    oracle_knn[i] = LinearScanKnn(ctx, index.objects(), queries[i], kK);
  }
  for (size_t i = 0; i < pairs.size(); ++i) {
    oracle_dist[i] =
        Pt2PtDistanceVirtual(ctx, pairs[i].first, pairs[i].second);
  }

  std::atomic<size_t> next{0};
  std::atomic<int> failures{0};
  auto reader = [&] {
    for (size_t i = next++; i < queries.size(); i = next++) {
      if (RangeQuery(index, queries[i], kRadius) != oracle_range[i]) {
        ++failures;
      }
      const auto knn = KnnQuery(index, queries[i], kK);
      if (knn.size() != oracle_knn[i].size()) {
        ++failures;
      } else {
        for (size_t j = 0; j < knn.size(); ++j) {
          // Ties may reorder ids; distances must match the oracle's.
          if (std::fabs(knn[j].distance - oracle_knn[i][j].distance) >
              1e-9) {
            ++failures;
          }
        }
      }
      const size_t p = i % pairs.size();
      if (Pt2PtDistanceVirtual(ctx, pairs[p].first, pairs[p].second) !=
          oracle_dist[p]) {
        ++failures;
      }
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 8; ++t) pool.emplace_back(reader);
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, ConcurrentDistanceComputations) {
  BuildingConfig config;
  config.floors = 2;
  config.rooms_per_floor = 8;
  config.seed = 199;
  const FloorPlan plan = GenerateBuilding(config);
  const DistanceGraph graph(plan);
  const PartitionLocator locator(plan);
  const DistanceContext ctx(graph, locator);
  Rng rng(211);
  const auto pairs = GeneratePositionPairs(plan, 32, &rng);
  std::vector<double> expect;
  expect.reserve(pairs.size());
  for (const auto& [p, q] : pairs) {
    expect.push_back(Pt2PtDistanceVirtual(ctx, p, q));
  }
  std::atomic<int> failures{0};
  auto worker = [&](size_t offset) {
    for (size_t i = offset; i < pairs.size(); i += 4) {
      const double d = Pt2PtDistanceVirtual(ctx, pairs[i].first,
                                            pairs[i].second);
      if (std::fabs(d - expect[i]) > 1e-12) ++failures;
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 0; t < 4; ++t) pool.emplace_back(worker, t);
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace indoor
