// Indoor distance join: all object pairs within walking distance r of each
// other — one of the composite queries the paper's §VII points to
// ("consider other types of distance-aware indoor queries ... by using the
// query types in this paper as building blocks"). Useful for proximity
// alerting (which visitors are near which exhibits) and contact tracing.
//
// With one-way doors the walking distance is asymmetric; a pair qualifies
// when min(d(a->b), d(b->a)) <= r and that minimum is reported.
//
// Partition-level pruning, on any engine via the door-distance oracle: for
// partitions P, Q the door-level bound min over (ds in P2D_leave(P),
// dt in P2D_enter(Q)) of d(ds -> dt) lower-bounds every inter-object
// distance (the intra-partition legs are non-negative); one range step
// per leave door of P finds every Q within r, and partition pairs beyond r
// in both directions are skipped before any object is touched.

#ifndef INDOOR_CORE_QUERY_DISTANCE_JOIN_H_
#define INDOOR_CORE_QUERY_DISTANCE_JOIN_H_

#include <vector>

#include "core/index/index_framework.h"

namespace indoor {

/// One qualifying pair; a < b, distance = min over both directions.
struct JoinPair {
  ObjectId a = kInvalidId;
  ObjectId b = kInvalidId;
  double distance = kInfDistance;

  bool operator==(const JoinPair& o) const {
    return a == o.a && b == o.b;
  }
};

/// Self-join over the index's object store: all unordered pairs within
/// walking distance `r`, sorted by (a, b).
std::vector<JoinPair> DistanceJoin(const IndexFramework& index, double r);

/// Exact symmetric walking distance min(d(a->b), d(b->a)) between two
/// stored objects (used by the join and handy on its own).
double ObjectPairDistance(const IndexFramework& index, const IndoorObject& a,
                          const IndoorObject& b);

}  // namespace indoor

#endif  // INDOOR_CORE_QUERY_DISTANCE_JOIN_H_
