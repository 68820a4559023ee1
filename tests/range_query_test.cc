// Algorithm 5 (range query) against the linear-scan oracle.

#include "core/query/range_query.h"

#include <gtest/gtest.h>

#include <limits>

#include "baseline/linear_scan.h"
#include "core/query/query_cache.h"
#include "core/query/query_engine.h"
#include "core/query/reference_impls.h"
#include "core/query/temporal_query.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"
#include "indoor/sample_plans.h"

namespace indoor {
namespace {

class RangeQueryTest : public ::testing::Test {
 protected:
  RangeQueryTest()
      : plan_(MakeRunningExamplePlan(&ids_)), index_(plan_) {}

  ObjectId Add(PartitionId v, Point p) {
    auto id = index_.objects().Insert(v, p);
    EXPECT_TRUE(id.ok()) << id.status();
    return id.value();
  }

  RunningExampleIds ids_;
  FloorPlan plan_;
  IndexFramework index_;
};

TEST_F(RangeQueryTest, FindsObjectsInHostPartition) {
  const ObjectId near = Add(ids_.v11, {1.5, 1.5});
  Add(ids_.v11, {3.9, 3.9});
  const auto result = RangeQuery(index_, {1, 1}, 1.0);
  EXPECT_EQ(result, std::vector<ObjectId>{near});
}

TEST_F(RangeQueryTest, FindsObjectsAcrossDoors) {
  // Query in v11, object in the hallway just beyond d11.
  const ObjectId obj = Add(ids_.v10, {2, 5});
  // Walking distance: (2,2) -> d11 (2,4) = 2, then d11 -> (2,5) = 1.
  auto result = RangeQuery(index_, {2, 2}, 3.0);
  EXPECT_EQ(result, std::vector<ObjectId>{obj});
  result = RangeQuery(index_, {2, 2}, 2.9);
  EXPECT_TRUE(result.empty());
}

TEST_F(RangeQueryTest, RespectsDoorDirectionality) {
  // Object in room 12; query in the hallway. Entering v12 requires the
  // long route through room 13 and the one-way d15.
  const ObjectId obj = Add(ids_.v12, {6, 2});
  const Point q(5, 4.5);  // hallway, 0.5 above d12 — but d12 cannot enter
  // Walking distance: q -> d13 -> d15 -> (6,2):
  const double legs = Distance(q, Point(10, 4)) + std::sqrt(13.0) +
                      Distance(Point(8, 1), Point(6, 2));
  auto result = RangeQuery(index_, q, legs + 0.01);
  EXPECT_EQ(result, std::vector<ObjectId>{obj});
  result = RangeQuery(index_, q, legs - 0.01);
  EXPECT_TRUE(result.empty());
}

TEST_F(RangeQueryTest, WholePartitionInclusionViaFdv) {
  // A large radius swallows entire partitions through the DPT fdv check.
  for (int i = 0; i < 5; ++i) {
    Add(ids_.v11, {0.5 + i * 0.7, 0.5});
    Add(ids_.v13, {8.5 + i * 0.6, 0.5});
  }
  const auto result = RangeQuery(index_, {6, 5}, 1000.0);
  EXPECT_EQ(result.size(), 10u);
}

TEST_F(RangeQueryTest, MatchesOracleOnRunningExample) {
  Rng rng(31);
  const auto objects = GenerateObjects(plan_, 60, &rng);
  PopulateStore(objects, &index_.objects());
  const DistanceContext ctx = index_.distance_context();
  for (int trial = 0; trial < 20; ++trial) {
    const Point q = RandomIndoorPosition(plan_, &rng);
    for (double r : {2.0, 5.0, 10.0, 25.0, 60.0}) {
      const auto expect = LinearScanRange(ctx, index_.objects(), q, r);
      EXPECT_EQ(RangeQuery(index_, q, r), expect)
          << "with index, q=" << q << " r=" << r;
      EXPECT_EQ(RangeQuery(index_, q, r, {.use_index_matrix = false}),
                expect)
          << "without index, q=" << q << " r=" << r;
    }
  }
}

TEST_F(RangeQueryTest, EmptyForOutsideQuery) {
  Add(ids_.v11, {1, 1});
  EXPECT_TRUE(RangeQuery(index_, {1000, 1000}, 50.0).empty());
}

TEST_F(RangeQueryTest, NegativeRadiusIsEmpty) {
  Add(ids_.v11, {1, 1});
  EXPECT_TRUE(RangeQuery(index_, {1, 1}, -1.0).empty());
}

TEST_F(RangeQueryTest, ZeroRadiusFindsColocatedObject) {
  const ObjectId obj = Add(ids_.v11, {1, 1});
  EXPECT_EQ(RangeQuery(index_, {1, 1}, 0.0), std::vector<ObjectId>{obj});
}

TEST(RangeQueryObstacleTest, HostPartitionReachedThroughOtherRoom) {
  // Paper Fig. 5: an object near q is within range of p only through
  // room 1, even though both are in room 2.
  ObstacleExampleIds ids;
  FloorPlan plan = MakeObstacleExamplePlan(&ids);
  IndexFramework index(plan);
  const auto obj = index.objects().Insert(ids.room2, ids.q);
  ASSERT_TRUE(obj.ok());
  // True walking distance p -> q is 12 (via room 1); intra-room weave ~28.
  const auto result = RangeQuery(index, ids.p, 12.5);
  EXPECT_EQ(result, std::vector<ObjectId>{obj.value()});
  EXPECT_TRUE(RangeQuery(index, ids.p, 11.5).empty());
}

TEST(RangeQueryGeneratedTest, MatchesOracleOnGeneratedBuilding) {
  BuildingConfig config;
  config.floors = 3;
  config.rooms_per_floor = 12;
  config.seed = 11;
  FloorPlan plan = GenerateBuilding(config);
  IndexFramework index(plan);
  Rng rng(13);
  PopulateStore(GenerateObjects(plan, 300, &rng), &index.objects());
  const DistanceContext ctx = index.distance_context();
  for (int trial = 0; trial < 10; ++trial) {
    const Point q = RandomIndoorPosition(plan, &rng);
    for (double r : {5.0, 15.0, 30.0, 80.0}) {
      const auto expect = LinearScanRange(ctx, index.objects(), q, r);
      EXPECT_EQ(RangeQuery(index, q, r), expect);
      EXPECT_EQ(RangeQuery(index, q, r, {.use_index_matrix = false}),
                expect);
    }
  }
}

TEST_F(RangeQueryTest, RangeMonotonicInRadius) {
  Rng rng(41);
  PopulateStore(GenerateObjects(plan_, 40, &rng), &index_.objects());
  const Point q(6, 5);
  size_t prev = 0;
  for (double r : {1.0, 3.0, 8.0, 20.0, 50.0, 200.0}) {
    const size_t count = RangeQuery(index_, q, r).size();
    EXPECT_GE(count, prev);
    prev = count;
  }
}

// `r < 0` is false for NaN; a NaN radius must still answer empty on every
// engine, without scanning and without a result-cache entry.
TEST(RangeQueryNanTest, NanRadiusIsEmptyOnEveryEngine) {
  BuildingConfig config;
  config.floors = 2;
  config.rooms_per_floor = 8;
  config.obstacle_probability = 0.5;
  config.seed = 31;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const bool hierarchy : {false, true}) {
    for (const bool cache : {false, true}) {
      SCOPED_TRACE(std::string(hierarchy ? "hierarchy" : "flat") +
                   (cache ? " cache on" : " cache off"));
      IndexOptions options;
      options.use_hierarchy = hierarchy;
      options.enable_query_cache = cache;
      QueryEngine engine(GenerateBuilding(config), options);
      Rng rng(32);
      PopulateStore(GenerateObjects(engine.plan(), 200, &rng),
                    &engine.index().objects());
      const IndexFramework& index = engine.index();
      const DoorSchedule schedule(engine.plan().door_count());
      bool any_found = false;
      for (const Point& q : GenerateQueryPositions(engine.plan(), 12, &rng)) {
        EXPECT_TRUE(engine.Range(q, nan).empty());
        EXPECT_TRUE(RangeQuery(index, q, nan).empty());
        EXPECT_TRUE(RangeQuery(index, q, nan, {false}).empty());
        EXPECT_TRUE(RangeQueryAtTime(index, schedule, 0.0, q, nan).empty());
        if (!hierarchy) {
          EXPECT_TRUE(reference::RangeQuery(index, q, nan).empty());
        }
        any_found = any_found || !RangeQueryAtTime(index, schedule, 0.0, q,
                                                   kInfDistance)
                                      .empty();
      }
      EXPECT_TRUE(any_found);  // the positions do reach objects
      if (cache) {
        EXPECT_EQ(index.query_cache()->ResultStats().entries, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace indoor
