#include "core/query/distance_join.h"

#include <algorithm>
#include <utility>

#include "core/distance/query_scratch.h"
#include "core/query/door_distance_oracle.h"
#include "util/metrics.h"

namespace indoor {

double ObjectPairDistance(const IndexFramework& index, const IndoorObject& a,
                          const IndoorObject& b) {
  const DoorDistanceOracle oracle(index);
  return std::min(oracle.Pt2Pt(a.partition, a.position, b.partition,
                               b.position, nullptr, nullptr),
                  oracle.Pt2Pt(b.partition, b.position, a.partition,
                               a.position, nullptr, nullptr));
}

std::vector<JoinPair> DistanceJoin(const IndexFramework& index, double r) {
  std::vector<JoinPair> result;
  if (r < 0) return result;
  const FloorPlan& plan = index.plan();
  const ObjectStore& store = index.objects();
  const DoorPartitionTable& dpt = index.dpt();
  const size_t np = plan.partition_count();

  // Group objects by partition.
  std::vector<std::vector<ObjectId>> by_partition(np);
  for (const IndoorObject& obj : store.objects()) {
    by_partition[obj.partition].push_back(obj.id);
  }

  // Filter step: the occupied partition pairs {p, q} joined by a door path
  // of length <= r from a leave door of one to an enter door of the other,
  // i.e. whose door-level lower bound min d(ds -> dt) does not exceed r
  // (the intra-partition legs are non-negative). One range step per leave
  // door finds them; every occupied partition pairs with itself.
  std::vector<std::pair<PartitionId, PartitionId>> near;
  std::vector<PartitionId> reached;
  DoorDistanceOracle oracle(index);
  DoorDijkstraScratch* door = &TlsQueryScratch().door;
  for (PartitionId p = 0; p < np; ++p) {
    if (by_partition[p].empty()) continue;
    reached.assign(1, p);
    for (const DoorId ds : plan.LeaveDoors(p)) {
      oracle.VisitWithin(ds, r, door, [&](DoorId dt, double) {
        for (const PartitionId q : {dpt[dt].part1, dpt[dt].part2}) {
          if (q != kInvalidId && !by_partition[q].empty()) reached.push_back(q);
        }
      });
    }
    std::sort(reached.begin(), reached.end());
    reached.erase(std::unique(reached.begin(), reached.end()), reached.end());
    for (const PartitionId q : reached) {
      near.emplace_back(std::min(p, q), std::max(p, q));
    }
  }
  INDOOR_METRICS_ONLY(oracle.FlushStats();)
  std::sort(near.begin(), near.end());
  near.erase(std::unique(near.begin(), near.end()), near.end());

  // Refinement: exact symmetric distances per object pair.
  for (const auto& [p, q] : near) {
    const auto& objs_p = by_partition[p];
    const auto& objs_q = by_partition[q];
    for (size_t ai = 0; ai < objs_p.size(); ++ai) {
      const IndoorObject& a = store.object(objs_p[ai]);
      const size_t b_begin = (p == q) ? ai + 1 : 0;
      for (size_t bi = b_begin; bi < objs_q.size(); ++bi) {
        const IndoorObject& b = store.object(objs_q[bi]);
        const double d = ObjectPairDistance(index, a, b);
        if (d <= r) {
          JoinPair pair{std::min(a.id, b.id), std::max(a.id, b.id), d};
          result.push_back(pair);
        }
      }
    }
  }
  std::sort(result.begin(), result.end(),
            [](const JoinPair& x, const JoinPair& y) {
              return x.a < y.a || (x.a == y.a && x.b < y.b);
            });
  return result;
}

}  // namespace indoor
