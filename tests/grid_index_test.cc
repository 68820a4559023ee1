#include "core/index/grid_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "gen/object_generator.h"
#include "util/random.h"

namespace indoor {
namespace {

Partition MakeRoom(double w = 10, double h = 10) {
  return Partition(0, "room", PartitionKind::kRoom, 1,
                   ObstructedRegion::FromPolygon(
                       Polygon::FromRect(Rect(0, 0, w, h))));
}

Partition MakePillarRoom() {
  auto region = ObstructedRegion::Create(
      Polygon::FromRect(Rect(0, 0, 10, 10)),
      {Polygon::FromRect(Rect(4, 4, 6, 6))});
  EXPECT_TRUE(region.ok());
  return Partition(0, "pillar", PartitionKind::kRoom, 1,
                   std::move(region).value());
}

TEST(KnnCollectorTest, KeepsKBest) {
  KnnCollector c(3);
  EXPECT_EQ(c.Bound(), kInfDistance);
  c.Offer(1, 5.0);
  c.Offer(2, 3.0);
  c.Offer(3, 7.0);
  EXPECT_DOUBLE_EQ(c.Bound(), 7.0);
  c.Offer(4, 1.0);  // evicts 7.0
  EXPECT_DOUBLE_EQ(c.Bound(), 5.0);
  const auto sorted = c.Sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].id, 4u);
  EXPECT_EQ(sorted[1].id, 2u);
  EXPECT_EQ(sorted[2].id, 1u);
}

TEST(KnnCollectorTest, RejectsWorseThanBound) {
  KnnCollector c(2);
  c.Offer(1, 1.0);
  c.Offer(2, 2.0);
  EXPECT_FALSE(c.Offer(3, 2.5));
  EXPECT_EQ(c.Sorted().size(), 2u);
}

TEST(KnnCollectorTest, DeduplicatesByObjectId) {
  KnnCollector c(2);
  c.Offer(7, 5.0);
  EXPECT_TRUE(c.Offer(7, 3.0));   // improvement replaces
  EXPECT_FALSE(c.Offer(7, 4.0));  // worse re-offer ignored
  const auto sorted = c.Sorted();
  ASSERT_EQ(sorted.size(), 1u);
  EXPECT_DOUBLE_EQ(sorted[0].distance, 3.0);
}

TEST(KnnCollectorTest, BoundIsInfiniteUntilFull) {
  KnnCollector c(5);
  c.Offer(1, 1.0);
  c.Offer(2, 2.0);
  EXPECT_EQ(c.Bound(), kInfDistance);
}

TEST(GridBucketTest, InsertAndCollectAll) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  bucket.Insert(0, {1, 1});
  bucket.Insert(1, {9, 9});
  EXPECT_EQ(bucket.size(), 2u);
  std::vector<ObjectId> all;
  bucket.CollectAll(&all);
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, (std::vector<ObjectId>{0, 1}));
}

TEST(GridBucketTest, RemoveObject) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  bucket.Insert(0, {1, 1});
  EXPECT_TRUE(bucket.Remove(0, {1, 1}));
  EXPECT_FALSE(bucket.Remove(0, {1, 1}));
  EXPECT_EQ(bucket.size(), 0u);
}

TEST(GridBucketTest, CellCountCoversPartition) {
  const Partition room = MakeRoom(10, 10);
  EXPECT_EQ(GridBucket(room, 2.0).cell_count(), 25u);
  EXPECT_EQ(GridBucket(room, 100.0).cell_count(), 1u);  // at least 1x1
}

TEST(GridBucketTest, RangeSearchEuclideanRoom) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  bucket.Insert(0, {1, 1});
  bucket.Insert(1, {5, 5});
  bucket.Insert(2, {9, 9});
  std::vector<Neighbor> out;
  bucket.RangeSearch(room, {1, 1}, 6.0, &out);
  std::sort(out.begin(), out.end(),
            [](const Neighbor& a, const Neighbor& b) { return a.id < b.id; });
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].id, 0u);
  EXPECT_DOUBLE_EQ(out[0].distance, 0.0);
  EXPECT_EQ(out[1].id, 1u);
  EXPECT_NEAR(out[1].distance, std::sqrt(32.0), 1e-9);
}

TEST(GridBucketTest, RangeSearchMatchesBruteForceRandomized) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 1.5);
  Rng rng(3);
  std::vector<Point> positions;
  for (ObjectId id = 0; id < 200; ++id) {
    const Point p(rng.NextDouble(0, 10), rng.NextDouble(0, 10));
    positions.push_back(p);
    bucket.Insert(id, p);
  }
  for (int trial = 0; trial < 20; ++trial) {
    const Point q(rng.NextDouble(0, 10), rng.NextDouble(0, 10));
    const double r = rng.NextDouble(0.5, 8);
    std::vector<Neighbor> out;
    bucket.RangeSearch(room, q, r, &out);
    std::vector<ObjectId> got;
    for (const auto& nb : out) got.push_back(nb.id);
    std::sort(got.begin(), got.end());
    std::vector<ObjectId> expect;
    for (ObjectId id = 0; id < positions.size(); ++id) {
      if (Distance(q, positions[id]) <= r) expect.push_back(id);
    }
    EXPECT_EQ(got, expect);
  }
}

TEST(GridBucketTest, RangeSearchUsesObstructedDistances) {
  const Partition room = MakePillarRoom();
  GridBucket bucket(room, 2.0);
  // Object straight across the pillar from the query.
  bucket.Insert(0, {9, 5});
  std::vector<Neighbor> out;
  // Euclidean distance is 8; the obstructed detour under the pillar is
  // 2*sqrt(10) + 2 ~ 8.32 (see visibility_test). Radius 8.5 includes it;
  // radius 8.2 does not (even though Euclid would).
  bucket.RangeSearch(room, {1, 5}, 8.5, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].distance, 2 * std::sqrt(10.0) + 2.0, 1e-9);
  out.clear();
  bucket.RangeSearch(room, {1, 5}, 8.2, &out);
  EXPECT_TRUE(out.empty());
}

TEST(GridBucketTest, MetricScaleAppliesToSearches) {
  Partition stair(0, "stair", PartitionKind::kStaircase, 1,
                  ObstructedRegion::FromPolygon(
                      Polygon::FromRect(Rect(0, 0, 10, 2))),
                  /*metric_scale=*/2.0);
  GridBucket bucket(stair, 2.0);
  bucket.Insert(0, {6, 1});
  std::vector<Neighbor> out;
  bucket.RangeSearch(stair, {1, 1}, 9.9, &out);
  EXPECT_TRUE(out.empty());  // scaled distance is 10 > 9.9
  bucket.RangeSearch(stair, {1, 1}, 10.0, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out[0].distance, 10.0, 1e-9);
}

TEST(GridBucketTest, NnSearchFindsNearest) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  bucket.Insert(0, {1, 1});
  bucket.Insert(1, {5, 5});
  bucket.Insert(2, {9, 9});
  KnnCollector collector(1);
  bucket.NnSearch(room, {4, 4}, 0.0, &collector);
  const auto nn = collector.Sorted();
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 1u);
  EXPECT_NEAR(nn[0].distance, std::sqrt(2.0), 1e-9);
}

TEST(GridBucketTest, NnSearchAddsExtraLeg) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  bucket.Insert(0, {5, 5});
  KnnCollector collector(1);
  bucket.NnSearch(room, {5, 4}, 100.0, &collector);
  EXPECT_NEAR(collector.Sorted()[0].distance, 101.0, 1e-9);
}

TEST(GridBucketTest, NnSearchPrunesWithBound) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  bucket.Insert(0, {9, 9});
  KnnCollector collector(1);
  collector.Offer(99, 0.5);  // tight existing bound
  bucket.NnSearch(room, {1, 1}, 0.0, &collector);
  // The far object cannot beat the bound; the collector keeps object 99.
  const auto nn = collector.Sorted();
  ASSERT_EQ(nn.size(), 1u);
  EXPECT_EQ(nn[0].id, 99u);
}

TEST(GridBucketTest, EmptyBucketSearchesAreNoOps) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  std::vector<Neighbor> out;
  bucket.RangeSearch(room, {5, 5}, 10, &out);
  EXPECT_TRUE(out.empty());
  KnnCollector collector(2);
  bucket.NnSearch(room, {5, 5}, 0.0, &collector);
  EXPECT_EQ(collector.size(), 0u);
}

TEST(GridBucketTest, NegativeRadiusYieldsNothing) {
  const Partition room = MakeRoom();
  GridBucket bucket(room, 2.0);
  bucket.Insert(0, {5, 5});
  std::vector<Neighbor> out;
  bucket.RangeSearch(room, {5, 5}, -1.0, &out);
  EXPECT_TRUE(out.empty());
}

// ------------------------------------------------------ admission keys

/// An L-shaped (non-convex) room, optionally metric-scaled.
Partition MakeLRoom(double metric_scale = 1.0) {
  auto outer = Polygon::Create(
      {{0, 0}, {10, 0}, {10, 4}, {4, 4}, {4, 10}, {0, 10}});
  EXPECT_TRUE(outer.ok());
  return Partition(0, "ell", PartitionKind::kRoom, 1,
                   ObstructedRegion::FromPolygon(std::move(outer).value()),
                   metric_scale);
}

/// Sorted ids of AdmittedPrefix(list, r).
std::vector<ObjectId> PrefixIds(std::span<const DoorListEntry> list,
                                double r) {
  std::vector<ObjectId> ids;
  for (const DoorListEntry& e : AdmittedPrefix(list, r)) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<ObjectId> SearchIds(const GridBucket& bucket,
                                const Partition& part, const Point& q,
                                double r, BucketScratch* scratch) {
  std::vector<Neighbor> out;
  bucket.RangeSearch(part, q, r, &out, scratch);
  std::vector<ObjectId> ids;
  for (const Neighbor& nb : out) ids.push_back(nb.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Every RangeSearch shortcut is a threshold in r, so the list sorted by
// admission key must answer every budget exactly as the grid search —
// including a budget equal to a key and one ulp below it, where a
// mismatch in any shortcut's expression would show.
TEST(AdmissionKeyTest, ListPrefixEqualsRangeSearch) {
  struct Case {
    const char* name;
    Partition part;
  };
  const Case cases[] = {
      {"convex", MakeRoom()},
      {"obstructed", MakePillarRoom()},
      {"non-convex", MakeLRoom()},
      {"scaled non-convex", MakeLRoom(1.7)},
      {"shrunk non-convex", MakeLRoom(0.4)},
      {"scaled convex",
       Partition(0, "stair", PartitionKind::kStaircase, 1,
                 ObstructedRegion::FromPolygon(
                     Polygon::FromRect(Rect(0, 0, 10, 3))),
                 2.5)},
  };
  Rng rng(17);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    for (double cell : {0.7, 2.0, 25.0}) {
      GridBucket bucket(c.part, cell);
      for (ObjectId id = 0; id < 30; ++id) {
        bucket.Insert(id, RandomPointInPartition(c.part, &rng));
      }
      BucketScratch scratch;
      for (int trial = 0; trial < 6; ++trial) {
        const Point a = RandomPointInPartition(c.part, &rng);
        std::vector<DoorListEntry> list;
        bucket.AppendAdmissionKeys(c.part, a, &list, &scratch.geo);
        ASSERT_EQ(list.size(), bucket.size());
        std::sort(list.begin(), list.end());
        std::vector<double> budgets = {
            0.0, -0.0, -1.0, std::numeric_limits<double>::infinity(),
            std::numeric_limits<double>::quiet_NaN()};
        for (int i = 0; i < 8; ++i) budgets.push_back(rng.NextDouble(0, 30));
        const size_t non_key = budgets.size();
        for (const DoorListEntry& e : list) {
          budgets.push_back(e.key);
          budgets.push_back(std::nextafter(e.key, -kInfDistance));
        }
        for (size_t i = 0; i < budgets.size(); ++i) {
          const double r = budgets[i];
          const auto want = SearchIds(bucket, c.part, a, r, &scratch);
          ASSERT_EQ(PrefixIds(list, r), want) << "budget " << r;
          if (i < non_key) {  // the per-object path too
            ASSERT_EQ(SearchIds(bucket, c.part, a, r, nullptr), want);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace indoor
