#include "core/index/object_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "indoor/sample_plans.h"

namespace indoor {
namespace {

class ObjectStoreTest : public ::testing::Test {
 protected:
  ObjectStoreTest()
      : plan_(MakeRunningExamplePlan(&ids_)), store_(plan_, 2.0) {}

  RunningExampleIds ids_;
  FloorPlan plan_;
  ObjectStore store_;
};

TEST_F(ObjectStoreTest, InsertAssignsDenseIds) {
  const auto a = store_.Insert(ids_.v11, {1, 1});
  const auto b = store_.Insert(ids_.v11, {2, 2});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(store_.size(), 2u);
}

TEST_F(ObjectStoreTest, InsertValidatesPartitionId) {
  const auto result = store_.Insert(999, {1, 1});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ObjectStoreTest, InsertValidatesContainment) {
  const auto result = store_.Insert(ids_.v11, {100, 100});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("outside"), std::string::npos);
}

TEST_F(ObjectStoreTest, InsertRejectsPositionInsideObstacle) {
  const auto result = store_.Insert(ids_.v20, {24, 4});
  ASSERT_FALSE(result.ok());
}

TEST_F(ObjectStoreTest, BucketsTrackPartitions) {
  ASSERT_TRUE(store_.Insert(ids_.v11, {1, 1}).ok());
  ASSERT_TRUE(store_.Insert(ids_.v12, {6, 2}).ok());
  EXPECT_EQ(store_.bucket(ids_.v11).size(), 1u);
  EXPECT_EQ(store_.bucket(ids_.v12).size(), 1u);
  EXPECT_EQ(store_.bucket(ids_.v13).size(), 0u);
}

TEST_F(ObjectStoreTest, MoveObjectAcrossPartitions) {
  const ObjectId id = store_.Insert(ids_.v11, {1, 1}).value();
  ASSERT_TRUE(store_.MoveObject(id, ids_.v13, {9, 2}).ok());
  EXPECT_EQ(store_.object(id).partition, ids_.v13);
  EXPECT_EQ(store_.bucket(ids_.v11).size(), 0u);
  EXPECT_EQ(store_.bucket(ids_.v13).size(), 1u);
}

TEST_F(ObjectStoreTest, MoveObjectWithinPartition) {
  const ObjectId id = store_.Insert(ids_.v11, {1, 1}).value();
  ASSERT_TRUE(store_.MoveObject(id, ids_.v11, {3, 3}).ok());
  EXPECT_EQ(store_.object(id).position, Point(3, 3));
  EXPECT_EQ(store_.bucket(ids_.v11).size(), 1u);
}

TEST_F(ObjectStoreTest, MoveValidatesTarget) {
  const ObjectId id = store_.Insert(ids_.v11, {1, 1}).value();
  EXPECT_FALSE(store_.MoveObject(id, ids_.v11, {100, 100}).ok());
  EXPECT_FALSE(store_.MoveObject(id, 999, {1, 1}).ok());
  EXPECT_FALSE(store_.MoveObject(42, ids_.v11, {1, 1}).ok());
  // Object unchanged after failed moves.
  EXPECT_EQ(store_.object(id).partition, ids_.v11);
}

TEST_F(ObjectStoreTest, ObjectAccessorReturnsStoredData) {
  const ObjectId id = store_.Insert(ids_.v21, {30, 4}).value();
  const IndoorObject& obj = store_.object(id);
  EXPECT_EQ(obj.id, id);
  EXPECT_EQ(obj.partition, ids_.v21);
  EXPECT_EQ(obj.position, Point(30, 4));
}

TEST_F(ObjectStoreTest, GridCellSizePropagates) {
  EXPECT_DOUBLE_EQ(store_.grid_cell_size(), 2.0);
  const ObjectStore coarse(plan_, 8.0);
  EXPECT_LE(coarse.bucket(ids_.v10).cell_count(),
            store_.bucket(ids_.v10).cell_count());
}

// Every door list, read through AdmittedPrefix, answers each budget exactly
// as the grid search from the door's midpoint — on a generated building
// with obstructed rooms and metric-scaled staircases, at budgets equal to
// a key and one ulp below it.
TEST(DoorListTest, PrefixEqualsRangeSearchFromEveryDoor) {
  BuildingConfig config;
  config.floors = 2;
  config.rooms_per_floor = 8;
  config.obstacle_probability = 0.6;
  config.seed = 41;
  const FloorPlan plan = GenerateBuilding(config);
  ObjectStore store(plan, 1.5);
  Rng rng(42);
  PopulateStore(GenerateObjects(plan, 300, &rng), &store);
  const auto sorted_ids = [](auto&& entries) {
    std::vector<ObjectId> ids;
    for (const auto& e : entries) ids.push_back(e.id);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  BucketScratch scratch;
  size_t checked = 0;
  for (PartitionId v = 0; v < plan.partition_count(); ++v) {
    const GridBucket& bucket = store.bucket(v);
    for (const DoorId d : plan.TouchingDoors(v)) {
      const Point a = plan.door(d).Midpoint();
      const auto list = store.DoorList(v, d);
      ASSERT_EQ(list.size(), bucket.size());
      ASSERT_TRUE(std::is_sorted(list.begin(), list.end()));
      std::vector<double> budgets = {
          -1.0, 0.0, kInfDistance, std::numeric_limits<double>::quiet_NaN(),
          rng.NextDouble(0, 20)};
      for (const DoorListEntry& e : list) {
        budgets.push_back(e.key);
        budgets.push_back(std::nextafter(e.key, -kInfDistance));
      }
      for (const double r : budgets) {
        std::vector<Neighbor> found;
        bucket.RangeSearch(plan.partition(v), a, r, &found, &scratch);
        ASSERT_EQ(sorted_ids(AdmittedPrefix(list, r)), sorted_ids(found))
            << "partition " << v << " door " << d << " budget " << r;
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

}  // namespace
}  // namespace indoor
