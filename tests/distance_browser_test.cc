#include "core/query/incremental_knn.h"

#include <gtest/gtest.h>

#include "baseline/linear_scan.h"
#include "core/query/knn_query.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"
#include "indoor/floor_plan_builder.h"
#include "indoor/sample_plans.h"

namespace indoor {
namespace {

class DistanceBrowserTest : public ::testing::Test {
 protected:
  DistanceBrowserTest()
      : plan_(MakeRunningExamplePlan(&ids_)), index_(plan_) {}

  RunningExampleIds ids_;
  FloorPlan plan_;
  IndexFramework index_;
};

TEST_F(DistanceBrowserTest, StreamsExactDistanceOrder) {
  Rng rng(221);
  PopulateStore(GenerateObjects(plan_, 50, &rng), &index_.objects());
  const Point q(6, 5);
  const auto oracle =
      LinearScanKnn(index_.distance_context(), index_.objects(), q, 50);
  DistanceBrowser browser(index_, q);
  for (const Neighbor& expect : oracle) {
    ASSERT_TRUE(browser.HasNext());
    const Neighbor got = browser.Next();
    EXPECT_NEAR(got.distance, expect.distance, 1e-6);
  }
  EXPECT_FALSE(browser.HasNext());
}

TEST_F(DistanceBrowserTest, AgreesWithOneShotKnn) {
  Rng rng(223);
  PopulateStore(GenerateObjects(plan_, 35, &rng), &index_.objects());
  const Point q(2, 2);
  DistanceBrowser browser(index_, q);
  for (const Neighbor& expect : KnnQuery(index_, q, 35)) {
    if (expect.distance == kInfDistance) break;  // never browsed
    ASSERT_TRUE(browser.HasNext());
    EXPECT_NEAR(browser.Next().distance, expect.distance, 1e-6);
  }
  EXPECT_FALSE(browser.HasNext());
}

TEST_F(DistanceBrowserTest, EmptyStoreAndOutsideQuery) {
  DistanceBrowser empty(index_, {6, 5});
  EXPECT_FALSE(empty.HasNext());
  Rng rng(227);
  PopulateStore(GenerateObjects(plan_, 5, &rng), &index_.objects());
  DistanceBrowser outside(index_, {1000, 1000});
  EXPECT_FALSE(outside.HasNext());

  // A one-way pocket: the object in c can never be reached from a.
  FloorPlanBuilder b;
  const PartitionId a = b.AddPartition("a", PartitionKind::kRoom, 1,
                                       Rect(0, 0, 4, 4));
  const PartitionId c = b.AddPartition("c", PartitionKind::kRoom, 1,
                                       Rect(4, 0, 8, 4));
  b.AddUnidirectionalDoor("ow", Segment({4, 1.8}, {4, 2.2}), c, a);
  auto pocket = std::move(b).Build();
  ASSERT_TRUE(pocket.ok());
  IndexFramework index(pocket.value());
  ASSERT_TRUE(index.objects().Insert(a, {1, 1}).ok());
  ASSERT_TRUE(index.objects().Insert(c, {6, 1}).ok());
  DistanceBrowser browser(index, {2, 2});
  ASSERT_TRUE(browser.HasNext());
  EXPECT_EQ(browser.Next().id, 0u);
  EXPECT_FALSE(browser.HasNext());
}

TEST_F(DistanceBrowserTest, NoDuplicateObjects) {
  // v21's objects are reachable via two doors (d21, d24).
  ASSERT_TRUE(index_.objects().Insert(ids_.v21, {30, 4}).ok());
  ASSERT_TRUE(index_.objects().Insert(ids_.v21, {31, 6}).ok());
  DistanceBrowser browser(index_, {21, 1});
  std::vector<ObjectId> seen;
  while (browser.HasNext()) seen.push_back(browser.Next().id);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<ObjectId>{0, 1}));
}

TEST(DistanceBrowserObstacleTest, HostObjectsViaLeaveAndReenter) {
  // Fig. 5 situation: the nearest route to a same-room object goes through
  // another room; the browser must report the true (smaller) distance.
  ObstacleExampleIds ids;
  FloorPlan plan = MakeObstacleExamplePlan(&ids);
  IndexFramework index(plan);
  ASSERT_TRUE(index.objects().Insert(ids.room2, ids.q).ok());
  DistanceBrowser browser(index, ids.p);
  ASSERT_TRUE(browser.HasNext());
  EXPECT_NEAR(browser.Next().distance, 12.0, 1e-9);
}

TEST(DistanceBrowserGeneratedTest, FullStreamMatchesOracle) {
  BuildingConfig config;
  config.floors = 2;
  config.rooms_per_floor = 10;
  config.room_to_room_doors = 0.5;
  config.one_way_fraction = 0.3;
  config.obstacle_probability = 0.3;
  config.seed = 229;
  FloorPlan plan = GenerateBuilding(config);
  IndexFramework index(plan);
  Rng rng(233);
  PopulateStore(GenerateObjects(plan, 120, &rng), &index.objects());
  for (int trial = 0; trial < 4; ++trial) {
    const Point q = RandomIndoorPosition(plan, &rng);
    const auto oracle =
        LinearScanKnn(index.distance_context(), index.objects(), q, 120);
    DistanceBrowser browser(index, q);
    for (const Neighbor& expect : oracle) {
      ASSERT_TRUE(browser.HasNext());
      EXPECT_NEAR(browser.Next().distance, expect.distance, 1e-6);
    }
    EXPECT_FALSE(browser.HasNext());
  }
}

TEST(DistanceBrowserGeneratedTest, PartialConsumptionMatchesKnn) {
  BuildingConfig config;
  config.floors = 2;
  config.rooms_per_floor = 12;
  config.seed = 239;
  FloorPlan plan = GenerateBuilding(config);
  IndexFramework index(plan);
  Rng rng(241);
  PopulateStore(GenerateObjects(plan, 800, &rng), &index.objects());
  const Point q = RandomIndoorPosition(plan, &rng);
  const auto top10 = KnnQuery(index, q, 10);
  DistanceBrowser browser(index, q);
  for (const Neighbor& expect : top10) {
    ASSERT_TRUE(browser.HasNext());
    EXPECT_NEAR(browser.Next().distance, expect.distance, 1e-9);
  }
  EXPECT_EQ(browser.yielded(), 10u);
}

}  // namespace
}  // namespace indoor
