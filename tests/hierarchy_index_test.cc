// The hierarchy-vs-flat bitwise equality suite (the oracle contract of
// core/index/hierarchy_index.h): on randomized multi-building campus
// plans, every door distance, pt2pt, range, kNN, batch, join, and
// browsing answer served through the partition-contraction hierarchy
// must be BIT-identical to the flat Md2d/Midx engine's — not
// approximately equal, the same doubles — with the cache on or off and
// under either Dijkstra frontier.

#include "core/index/hierarchy_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "core/query/distance_join.h"
#include "core/query/incremental_knn.h"
#include "core/query/query_engine.h"
#include "gen/building_generator.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"
#include "indoor/sample_plans.h"
#include "util/metrics.h"

namespace indoor {
namespace {

/// Bit-level double equality: distinguishes everything == cannot (NaN
/// payloads, -0.0 vs 0.0); the equality we actually promise.
bool BitEq(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

FloorPlan MakeCampus(int buildings, int floors, int rooms, uint64_t seed) {
  CampusConfig config;
  config.buildings = buildings;
  config.building.floors = floors;
  config.building.rooms_per_floor = rooms;
  config.seed = seed;
  config.building.seed = seed;
  return GenerateCampus(config);
}

/// A campus with every generator feature that shapes door distances: one-
/// way room-to-room doors (a directed door graph), obstructed rooms and
/// parallel staircases (redundant vertical routes, more ties).
FloorPlan MakeDirectedCampus(int buildings, int floors, int rooms,
                             uint64_t seed) {
  CampusConfig config;
  config.buildings = buildings;
  config.building.floors = floors;
  config.building.rooms_per_floor = rooms;
  config.building.room_to_room_doors = 0.5;
  config.building.one_way_fraction = 0.5;
  config.building.obstacle_probability = 0.5;
  config.building.parallel_staircases = true;
  config.seed = seed;
  return GenerateCampus(config);
}

IndexOptions HierOptions(bool cache, bool bucket, unsigned cell_target) {
  IndexOptions options;
  options.use_hierarchy = true;
  options.hierarchy_cell_target = cell_target;
  options.enable_query_cache = cache;
  options.use_bucket_queue = bucket;
  return options;
}

IndexOptions FlatOptions(bool cache, bool bucket) {
  IndexOptions options;
  options.enable_query_cache = cache;
  options.use_bucket_queue = bucket;
  return options;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& flat,
                         const std::vector<Neighbor>& hier, const char* what) {
  ASSERT_EQ(flat.size(), hier.size()) << what << " cardinality mismatch";
  for (size_t j = 0; j < flat.size(); ++j) {
    EXPECT_EQ(flat[j].id, hier[j].id) << what << " id mismatch at rank " << j;
    EXPECT_TRUE(BitEq(flat[j].distance, hier[j].distance))
        << what << " distance mismatch at rank " << j;
  }
}

/// Runs the same randomized mixed workload through both engines and
/// demands bitwise-identical answers everywhere. The hierarchy ignores
/// use_index_matrix, so its full-row answers must equal flat Midx ones.
void ExpectEngineEquality(const FloorPlan& plan, bool cache, bool bucket,
                          unsigned cell_target, uint64_t seed) {
  QueryEngine flat(plan, FlatOptions(cache, bucket));
  QueryEngine hier(plan, HierOptions(cache, bucket, cell_target));
  ASSERT_TRUE(hier.index().hierarchy_index().valid());

  Rng flat_rng(seed), hier_rng(seed);
  PopulateStore(GenerateObjects(flat.plan(), 400, &flat_rng),
                &flat.index().objects());
  PopulateStore(GenerateObjects(hier.plan(), 400, &hier_rng),
                &hier.index().objects());

  Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  const auto pairs = GeneratePositionPairs(plan, 60, &rng);
  const auto positions = GenerateQueryPositions(plan, 60, &rng);

  for (const auto& [a, b] : pairs) {
    const double df = flat.Distance(a, b);
    const double dh = hier.Distance(a, b);
    EXPECT_TRUE(BitEq(df, dh))
        << "pt2pt mismatch: flat " << df << " vs hierarchy " << dh;
  }
  const size_t n = plan.door_count();
  for (DoorId s = 0; s < n; s += 3) {
    for (DoorId t = 1; t < n; t += 7) {
      EXPECT_TRUE(BitEq(flat.DoorDistance(s, t), hier.DoorDistance(s, t)))
          << "door pair (" << s << ", " << t << ")";
    }
  }
  std::vector<QueryRequest> batch;
  for (size_t i = 0; i < positions.size(); ++i) {
    const double r = 5.0 + static_cast<double>(i % 7) * 10.0;
    const auto rf = flat.Range(positions[i], r);
    EXPECT_EQ(rf, hier.Range(positions[i], r)) << "range mismatch at r=" << r;
    EXPECT_EQ(rf, hier.Range(positions[i], r, {.use_index_matrix = false}))
        << "full-row range mismatch at r=" << r;

    const size_t k = 1 + i % 13;
    const auto kf = flat.Nearest(positions[i], k);
    ExpectSameNeighbors(kf, hier.Nearest(positions[i], k), "kNN");
    ExpectSameNeighbors(
        kf, hier.Nearest(positions[i], k, {.use_index_matrix = false}),
        "full-row kNN");

    batch.push_back(QueryRequest::Range(positions[i], r));
    batch.push_back(QueryRequest::Knn(positions[i], k));
    batch.push_back(QueryRequest::Distance(pairs[i].first, pairs[i].second));
  }

  BatchExecutor flat_exec(flat.index(), 2);
  BatchExecutor hier_exec(hier.index(), 2);
  const auto bf = flat_exec.Run(batch);
  const auto bh = hier_exec.Run(batch);
  ASSERT_EQ(bf.size(), bh.size());
  for (size_t i = 0; i < bf.size(); ++i) {
    EXPECT_TRUE(BitEq(bf[i].distance, bh[i].distance)) << "batch slot " << i;
    EXPECT_EQ(bf[i].ids, bh[i].ids) << "batch slot " << i;
    ExpectSameNeighbors(bf[i].neighbors, bh[i].neighbors, "batch kNN");
  }

  const auto jf = DistanceJoin(flat.index(), 4.0);
  const auto jh = DistanceJoin(hier.index(), 4.0);
  ASSERT_EQ(jf.size(), jh.size()) << "join cardinality mismatch";
  for (size_t i = 0; i < jf.size(); ++i) {
    EXPECT_EQ(jf[i], jh[i]) << "join pair " << i;
    EXPECT_TRUE(BitEq(jf[i].distance, jh[i].distance)) << "join pair " << i;
  }

  for (size_t i = 0; i < positions.size(); i += 15) {
    DistanceBrowser bf_stream(flat.index(), positions[i]);
    DistanceBrowser bh_stream(hier.index(), positions[i]);
    while (bf_stream.HasNext()) {
      ASSERT_TRUE(bh_stream.HasNext()) << "browser ends early";
      const Neighbor a = bf_stream.Next();
      const Neighbor b = bh_stream.Next();
      EXPECT_EQ(a.id, b.id) << "browser id mismatch at " << bf_stream.yielded();
      EXPECT_TRUE(BitEq(a.distance, b.distance))
          << "browser distance mismatch at " << bf_stream.yielded();
    }
    EXPECT_FALSE(bh_stream.HasNext()) << "browser runs long";
  }
}

TEST(HierarchyIndexTest, CampusQueriesMatchFlatBitwise) {
  const FloorPlan plan = MakeCampus(3, 3, 10, 17);
  ExpectEngineEquality(plan, /*cache=*/true, /*bucket=*/true,
                       /*cell_target=*/32, /*seed=*/1);
}

TEST(HierarchyIndexTest, CacheOffMatchesFlatBitwise) {
  const FloorPlan plan = MakeCampus(2, 4, 8, 23);
  ExpectEngineEquality(plan, /*cache=*/false, /*bucket=*/true,
                       /*cell_target=*/16, /*seed=*/2);
}

TEST(HierarchyIndexTest, HeapFrontierMatchesFlatBitwise) {
  const FloorPlan plan = MakeCampus(2, 3, 9, 31);
  ExpectEngineEquality(plan, /*cache=*/true, /*bucket=*/false,
                       /*cell_target=*/16, /*seed=*/3);
}

TEST(HierarchyIndexTest, TinyCellsStressBorderPaths) {
  // cell_target 1 puts every partition in its own cell: nearly every door
  // is a border door and almost no query can use a block fast path, so
  // the bounded-Dijkstra fallbacks carry the whole workload.
  const FloorPlan plan = MakeCampus(2, 2, 6, 5);
  ExpectEngineEquality(plan, /*cache=*/true, /*bucket=*/true,
                       /*cell_target=*/1, /*seed=*/4);
}

TEST(HierarchyIndexTest, RandomizedSeedsSweep) {
  for (uint64_t seed = 100; seed < 104; ++seed) {
    const FloorPlan plan =
        MakeCampus(2 + static_cast<int>(seed % 2), 2, 7, seed);
    ExpectEngineEquality(plan, /*cache=*/(seed % 2) == 0, /*bucket=*/true,
                         /*cell_target=*/8 << (seed % 3), seed);
  }
}

TEST(HierarchyIndexTest, DirectedObstructedCampusMatchesFlatBitwise) {
  // One-way doors make block rows and clique entries asymmetric, so the
  // destination bound must compose them in the travel direction.
  for (const unsigned cell_target : {1u, 8u}) {
    const FloorPlan plan = MakeDirectedCampus(2, 3, 8, 51 + cell_target);
    ExpectEngineEquality(plan, /*cache=*/true, /*bucket=*/true, cell_target,
                         /*seed=*/7 + cell_target);
    ExpectEngineEquality(plan, /*cache=*/false, /*bucket=*/false,
                         cell_target, /*seed=*/9 + cell_target);
  }
}

TEST(HierarchyIndexTest, GoalDirectedSweepMatchesFlatBitwise) {
  // The goal-directed runs prune by a composed bound; this sweep checks
  // 20K pt2pt and 20K door pairs bit for bit against the flat engine on
  // a plain and a directed, obstructed campus.
  struct Config {
    FloorPlan plan;
    unsigned cell_target;
  };
  const Config configs[] = {{MakeCampus(3, 3, 10, 61), 16},
                            {MakeDirectedCampus(3, 2, 10, 62), 8}};
  size_t pt2pt_pairs = 0, door_pairs = 0;
  for (const Config& config : configs) {
    QueryEngine flat(config.plan, FlatOptions(false, true));
    QueryEngine hier(config.plan,
                     HierOptions(false, true, config.cell_target));
    ASSERT_GT(hier.index().hierarchy_index().border_count(), 0u);
    Rng rng(config.cell_target);
    for (const auto& [a, b] : GeneratePositionPairs(config.plan, 10000, &rng)) {
      const double df = flat.Distance(a, b);
      const double dh = hier.Distance(a, b);
      ASSERT_TRUE(BitEq(df, dh))
          << "pt2pt mismatch: flat " << df << " vs hierarchy " << dh;
      ++pt2pt_pairs;
    }
    const size_t n = config.plan.door_count();
    for (int i = 0; i < 10000; ++i) {
      const DoorId s = static_cast<DoorId>(rng.NextU64(n));
      const DoorId t = static_cast<DoorId>(rng.NextU64(n));
      ASSERT_TRUE(BitEq(flat.DoorDistance(s, t), hier.DoorDistance(s, t)))
          << "door pair (" << s << ", " << t << ")";
      ++door_pairs;
    }
  }
  EXPECT_EQ(pt2pt_pairs, 20000u);
  EXPECT_EQ(door_pairs, 20000u);
}

TEST(HierarchyIndexTest, DestinationBoundEqualsDistanceUpToSlack) {
  // In real arithmetic the bound is d(x, T) over the target legs; the
  // float composition may differ from the Md2d value only by rounding,
  // far inside kUpperBoundSlack, and is +inf exactly when no target is
  // reachable. Cell target 1 makes one-way doors borders, so the clique
  // is asymmetric and must be read in the travel direction.
  const FloorPlan plan = MakeDirectedCampus(3, 2, 8, 71);
  const DistanceGraph graph(plan);
  const DistanceMatrix md2d(graph);
  const HierarchyIndex fine = HierarchyIndex::Build(graph, 1, 1);
  const HierarchyIndex coarse = HierarchyIndex::Build(graph, 1, 8);
  ASSERT_GT(coarse.border_count(), 0u);
  const size_t n = plan.door_count();
  Rng rng(72);
  HierarchyIndex::DestinationTable table;
  for (int q = 0; q < 200; ++q) {
    const HierarchyIndex& hier = (q / 4) % 2 == 0 ? fine : coarse;
    std::vector<DoorId> targets(1 + q % 4);
    std::vector<double> legs(targets.size());
    for (size_t j = 0; j < targets.size(); ++j) {
      targets[j] = static_cast<DoorId>(rng.NextU64(n));
      legs[j] = j == 1 ? kInfDistance : rng.NextDouble() * 20.0;
    }
    hier.PrepareDestination(targets, legs, &table);
    for (DoorId x = 0; x < n; x += 3) {
      double want = kInfDistance;
      for (size_t j = 0; j < targets.size(); ++j) {
        if (legs[j] == kInfDistance) continue;
        want = std::min(want, md2d.At(x, targets[j]) + legs[j]);
      }
      const double got = hier.DestinationBound(x, &table);
      if (want == kInfDistance) {
        EXPECT_EQ(got, kInfDistance) << "door " << x;
        continue;
      }
      EXPECT_LE(got, want * HierarchyIndex::kUpperBoundSlack) << "door " << x;
      EXPECT_GE(got * HierarchyIndex::kUpperBoundSlack, want) << "door " << x;
    }
  }
}

#ifdef INDOOR_METRICS_ENABLED
TEST(HierarchyIndexTest, CrossBuildingPt2PtSettlesFewDoors) {
  // The destination bound keeps a cross-building search on near-shortest
  // paths: each query settles under 10% of the plan's doors, where an
  // unguided bounded run settles most of the campus.
  const FloorPlan plan = MakeCampus(4, 4, 12, 81);
  QueryEngine hier(plan, HierOptions(false, true, 32));
  const size_t n = plan.door_count();
  auto building = [&](const Point& p) {
    const auto v = hier.Locate(p);
    return v.ok() ? plan.partition(v.value()).name().substr(0, 3)
                  : std::string();
  };
  metrics::Counter& settles = metrics::MetricsRegistry::Global().GetCounter(
      "distance.dijkstra.settles");
  Rng rng(82);
  size_t checked = 0;
  for (const auto& [a, b] : GeneratePositionPairs(plan, 400, &rng)) {
    const std::string ba = building(a), bb = building(b);
    if (ba.empty() || bb.empty() || ba == bb) continue;
    const uint64_t before = settles.Value();
    const double d = hier.Distance(a, b);
    ASSERT_LT(d, kInfDistance);
    EXPECT_LT(10 * (settles.Value() - before), n)
        << "pair " << checked << " from " << ba << " to " << bb;
    ++checked;
  }
  EXPECT_GT(checked, 100u);
}
#endif  // INDOOR_METRICS_ENABLED

TEST(HierarchyIndexTest, DoorDistanceMatchesMatrixBitwise) {
  const FloorPlan plan = MakeCampus(2, 2, 8, 7);
  QueryEngine flat(plan, FlatOptions(true, true));
  QueryEngine hier(plan, HierOptions(true, true, 16));
  const size_t n = plan.door_count();
  for (DoorId s = 0; s < n; ++s) {
    for (DoorId t = 0; t < n; ++t) {
      EXPECT_TRUE(BitEq(flat.DoorDistance(s, t), hier.DoorDistance(s, t)))
          << "door pair (" << s << ", " << t << ")";
    }
  }
}

TEST(HierarchyIndexTest, BlocksAreExactMatrixEntries) {
  // The stored structures themselves, not just query answers: every cell
  // block entry and every border-clique entry must be the flat Md2d value
  // bit for bit (the settle-prefix property of the early-terminated
  // builder runs).
  const FloorPlan plan = MakeCampus(3, 2, 6, 13);
  const DistanceGraph graph(plan);
  const DistanceMatrix md2d(graph);
  const HierarchyIndex hier =
      HierarchyIndex::Build(graph, /*threads=*/1, /*cell_target=*/16);
  ASSERT_TRUE(hier.valid());
  for (uint32_t c = 0; c < hier.cell_count(); ++c) {
    const auto members = hier.CellMembers(c);
    for (uint32_t i = 0; i < members.size(); ++i) {
      const double* row = hier.BlockRow(c, i);
      for (uint32_t j = 0; j < members.size(); ++j) {
        EXPECT_TRUE(BitEq(row[j], md2d.At(members[i], members[j])))
            << "cell " << c << " block (" << i << ", " << j << ")";
      }
    }
  }
  const auto borders = hier.border_doors();
  for (uint32_t b = 0; b < borders.size(); ++b) {
    const double* row = hier.BorderRow(b);
    for (uint32_t j = 0; j < borders.size(); ++j) {
      EXPECT_TRUE(BitEq(row[j], md2d.At(borders[b], borders[j])))
          << "border pair (" << b << ", " << j << ")";
    }
  }
}

TEST(HierarchyIndexTest, StructuralInvariantsHold) {
  const FloorPlan plan = MakeCampus(3, 2, 8, 29);
  const DistanceGraph graph(plan);
  const DistanceMatrix md2d(graph);
  const HierarchyIndex hier = HierarchyIndex::Build(graph, 1, 24);
  ASSERT_TRUE(hier.valid());
  EXPECT_EQ(hier.door_count(), plan.door_count());

  // Every door is a member of the cell(s) of its partitions, member lists
  // ascend, and LocalIndex agrees with the list position.
  size_t member_total = 0;
  for (uint32_t c = 0; c < hier.cell_count(); ++c) {
    const auto members = hier.CellMembers(c);
    member_total += members.size();
    for (uint32_t i = 0; i + 1 < members.size(); ++i) {
      EXPECT_LT(members[i], members[i + 1]);
    }
    for (uint32_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ(hier.LocalIndex(c, members[i]), i);
    }
  }
  EXPECT_GE(member_total, plan.door_count());

  // Border doors are exactly the doors whose two cells differ, and the
  // escape radius of a border door is 0 in both its cells.
  for (DoorId d = 0; d < plan.door_count(); ++d) {
    const auto cells = hier.CellsOfDoor(d);
    const bool is_border = cells[1] != HierarchyIndex::kNone;
    EXPECT_EQ(hier.IsBorder(d), is_border) << "door " << d;
    if (is_border) {
      const uint32_t b = hier.BorderIndexOf(d);
      EXPECT_EQ(hier.border_doors()[b], d);
      EXPECT_EQ(hier.EscapeRadius(cells[0], hier.LocalIndex(cells[0], d)),
                0.0);
      EXPECT_EQ(hier.EscapeRadius(cells[1], hier.LocalIndex(cells[1], d)),
                0.0);
    }
  }

  // TryExact serves shared-cell pairs with the flat value; UpperBound
  // never undercuts the true distance.
  for (DoorId s = 0; s < plan.door_count(); ++s) {
    for (DoorId t = 0; t < plan.door_count(); ++t) {
      double exact = -1.0;
      if (hier.TryExact(s, t, &exact)) {
        EXPECT_TRUE(BitEq(exact, md2d.At(s, t)));
      }
      EXPECT_GE(hier.UpperBound(s, t), md2d.At(s, t) * 0.999999999);
    }
  }
}

TEST(HierarchyIndexTest, SingleBuildingPlanStillWorks) {
  // Degenerate clustering: one building fits in one cell, so every query
  // should resolve through TryExact / block scans with no border hops.
  const FloorPlan plan = MakeRunningExamplePlan();
  ExpectEngineEquality(plan, /*cache=*/true, /*bucket=*/true,
                       /*cell_target=*/128, /*seed=*/6);
}

TEST(HierarchyIndexTest, ParallelBuildIsBitIdentical) {
  const FloorPlan plan = MakeCampus(3, 3, 8, 41);
  const DistanceGraph graph(plan);
  const HierarchyIndex seq = HierarchyIndex::Build(graph, 1, 16);
  const HierarchyIndex par = HierarchyIndex::Build(graph, 4, 16);
  ASSERT_EQ(seq.cell_count(), par.cell_count());
  ASSERT_EQ(seq.border_count(), par.border_count());
  ASSERT_EQ(seq.Blocks().size(), par.Blocks().size());
  for (size_t i = 0; i < seq.Blocks().size(); ++i) {
    EXPECT_TRUE(BitEq(seq.Blocks()[i], par.Blocks()[i]));
  }
  for (size_t i = 0; i < seq.BorderMatrix().size(); ++i) {
    EXPECT_TRUE(BitEq(seq.BorderMatrix()[i], par.BorderMatrix()[i]));
  }
}

}  // namespace
}  // namespace indoor
