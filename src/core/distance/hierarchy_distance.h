// Hierarchy-backed position-to-position distance: the Md2d-free twin of
// matrix_distance.h. Same-cell door pairs are served straight from the
// hierarchy's per-cell blocks (bit-equal to the flat Md2d entries by the
// settle-prefix contract, hierarchy_index.h); cross-cell pairs run a
// GOAL-DIRECTED bounded door Dijkstra: each push is pruned by the
// per-query destination bound HierarchyIndex::DestinationBound (the
// composed block + border-clique distance to the targets plus the exit
// leg), and the run's cap is the best composed total. Both predicates are
// loss-free — composed border sums act only as caps and prune bounds,
// never as answers — so the returned distance is bit-identical to
// Pt2PtDistanceMatrix on the flat index while the search settles only
// doors on near-shortest paths.

#ifndef INDOOR_CORE_DISTANCE_HIERARCHY_DISTANCE_H_
#define INDOOR_CORE_DISTANCE_HIERARCHY_DISTANCE_H_

#include "core/index/hierarchy_index.h"
#include "core/model/locator.h"

namespace indoor {

struct QueryScratch;
class QueryCache;

/// Exact minimum walking distance over the hierarchy index; bit-identical
/// to Pt2PtDistanceMatrix against the flat Md2d of the same plan. `hier`
/// and `graph` must both come from `locator.plan()`. A null `scratch`
/// falls back to the calling thread's TlsQueryScratch(); a non-null
/// `cache` serves host probes and entry/exit legs exactly as the flat
/// path does. `kind` picks the Dijkstra frontier for the bounded
/// cross-cell runs (values are identical either way).
double Pt2PtDistanceHierarchy(const PartitionLocator& locator,
                              const DistanceGraph& graph,
                              const HierarchyIndex& hier, const Point& ps,
                              const Point& pt, QueryScratch* scratch = nullptr,
                              const QueryCache* cache = nullptr,
                              QueueKind kind = QueueKind::kBucket);

/// Variant with both host partitions already known (e.g. stored objects).
double Pt2PtDistanceHierarchy(const FloorPlan& plan, const DistanceGraph& graph,
                              const HierarchyIndex& hier, PartitionId vs,
                              const Point& ps, PartitionId vt, const Point& pt,
                              QueryScratch* scratch = nullptr,
                              const QueryCache* cache = nullptr,
                              QueueKind kind = QueueKind::kBucket);

/// Exact door-to-door distance d(s -> t), bit-identical to the flat
/// Md2d[s][t]: a block lookup when s and t share a cell, else a
/// goal-directed Dijkstra capped at kUpperBoundSlack times the composed
/// border route, pushing only doors x with cand + DestinationBound(x)
/// under that cap. +inf without a run when no border route exists.
double HierarchyDoorDistance(const DistanceGraph& graph,
                             const HierarchyIndex& hier, DoorId s, DoorId t,
                             QueryScratch* scratch = nullptr,
                             QueueKind kind = QueueKind::kBucket);

}  // namespace indoor

#endif  // INDOOR_CORE_DISTANCE_HIERARCHY_DISTANCE_H_
