#include "core/query/reference_impls.h"

#include <algorithm>
#include <queue>

namespace indoor {
namespace reference {
namespace {

/// One DPT side of Algorithm 5 (historical form: null-scratch RangeSearch,
/// fresh result buffer per call).
void RangeSearchSide(const IndexFramework& index, PartitionId part,
                     double fdv, DoorId dj, double r2,
                     std::vector<ObjectId>* result) {
  if (part == kInvalidId) return;
  const GridBucket& bucket = index.objects().bucket(part);
  if (bucket.size() == 0) return;
  if (fdv <= r2) {
    bucket.CollectAll(result);
    return;
  }
  std::vector<Neighbor> found;
  bucket.RangeSearch(index.plan().partition(part),
                     index.plan().door(dj).Midpoint(), r2, &found);
  for (const Neighbor& nb : found) result->push_back(nb.id);
}

/// One DPT side of Algorithm 6 (historical form: null-scratch NnSearch).
void NnSearchSide(const IndexFramework& index, PartitionId part, DoorId dj,
                  double r2, KnnCollector* collector) {
  if (part == kInvalidId) return;
  const GridBucket& bucket = index.objects().bucket(part);
  if (bucket.size() == 0) return;
  bucket.NnSearch(index.plan().partition(part),
                  index.plan().door(dj).Midpoint(), r2, collector);
}

}  // namespace

double D2dDistance(const DistanceGraph& graph, DoorId ds, DoorId dt) {
  const FloorPlan& plan = graph.plan();
  const size_t n = plan.door_count();
  INDOOR_CHECK(ds < n);
  INDOOR_CHECK(dt < n);

  std::vector<double> dist(n, kInfDistance);
  std::vector<char> visited(n, 0);
  using Entry = std::pair<double, DoorId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dist[ds] = 0.0;
  heap.push({0.0, ds});

  while (!heap.empty()) {
    const auto [d, di] = heap.top();
    heap.pop();
    if (visited[di]) continue;
    visited[di] = 1;
    if (di == dt) return d;
    for (PartitionId v : plan.EnterableParts(di)) {
      for (DoorId dj : plan.LeaveDoors(v)) {
        if (visited[dj]) continue;
        const double w = graph.Fd2d(v, di, dj);
        if (w == kInfDistance) continue;
        if (dist[di] + w < dist[dj]) {
          dist[dj] = dist[di] + w;
          heap.push({dist[dj], dj});
        }
      }
    }
  }
  return dist[dt];
}

double Pt2PtDistanceBasic(const DistanceContext& ctx, const Point& ps,
                          const Point& pt) {
  const FloorPlan& plan = ctx.graph->plan();
  const internal::Endpoints endpoints =
      internal::ResolveEndpoints(ctx, ps, pt);
  if (!endpoints.ok()) return kInfDistance;

  double dist = internal::DirectCandidate(ctx, endpoints, ps, pt);
  // Algorithm 2: every (leaveable source door, enterable destination door)
  // pair via a blind d2dDistance call.
  for (DoorId ds : plan.LeaveDoors(endpoints.vs)) {
    const double dist1 = ctx.locator->DistV(endpoints.vs, ps, ds);
    if (dist1 == kInfDistance) continue;
    for (DoorId dt : plan.EnterDoors(endpoints.vt)) {
      const double dist2 = ctx.locator->DistV(endpoints.vt, pt, dt);
      if (dist2 == kInfDistance) continue;
      const double d2d = D2dDistance(*ctx.graph, ds, dt);
      if (d2d == kInfDistance) continue;
      dist = std::min(dist, dist1 + d2d + dist2);
    }
  }
  return dist;
}

double Pt2PtDistanceRefined(const DistanceContext& ctx, const Point& ps,
                            const Point& pt) {
  const FloorPlan& plan = ctx.graph->plan();
  const internal::Endpoints endpoints =
      internal::ResolveEndpoints(ctx, ps, pt);
  if (!endpoints.ok()) return kInfDistance;

  // Lines 3-8: source doors with dead ends removed; destination doors.
  const std::vector<DoorId> doors_s =
      internal::PrunedSourceDoors(plan, endpoints.vs, endpoints.vt);
  const std::vector<DoorId>& doors_t = plan.EnterDoors(endpoints.vt);

  double dist_m = internal::DirectCandidate(ctx, endpoints, ps, pt);

  const size_t n = plan.door_count();
  std::vector<double> dist(n);
  std::vector<char> visited(n);

  for (DoorId ds : doors_s) {
    const double src_leg = ctx.locator->DistV(endpoints.vs, ps, ds);
    if (src_leg == kInfDistance) continue;

    // Lines 11-14: destination doors that can still beat dist_m.
    std::vector<DoorId> doors;
    for (DoorId dt : doors_t) {
      const double dst_leg = ctx.locator->DistV(endpoints.vt, pt, dt);
      if (dst_leg != kInfDistance && src_leg + dst_leg < dist_m) {
        doors.push_back(dt);
      }
    }
    if (doors.empty()) continue;

    // Lines 15-36: one Dijkstra from ds, terminating once every door in
    // `doors` has been settled.
    dist.assign(n, kInfDistance);
    visited.assign(n, 0);
    using Entry = std::pair<double, DoorId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    dist[ds] = 0.0;
    heap.push({0.0, ds});

    while (!heap.empty()) {
      const auto [d, di] = heap.top();
      heap.pop();
      if (visited[di]) continue;
      visited[di] = 1;

      const auto it = std::find(doors.begin(), doors.end(), di);
      if (it != doors.end()) {
        doors.erase(it);
        const double dst_leg = ctx.locator->DistV(endpoints.vt, pt, di);
        if (src_leg + d + dst_leg < dist_m) {
          dist_m = src_leg + d + dst_leg;
        }
        if (doors.empty()) break;
      }

      for (PartitionId v : plan.EnterableParts(di)) {
        for (DoorId dj : plan.LeaveDoors(v)) {
          if (visited[dj]) continue;
          const double w = ctx.graph->Fd2d(v, di, dj);
          if (w == kInfDistance) continue;
          if (d + w < dist[dj]) {
            dist[dj] = d + w;
            heap.push({dist[dj], dj});
          }
        }
      }
    }
  }
  return dist_m;
}

std::vector<ObjectId> RangeQuery(const IndexFramework& index, const Point& q,
                                 double r, RangeQueryOptions options) {
  std::vector<ObjectId> result;
  const FloorPlan& plan = index.plan();
  const auto host = index.locator().GetHostPartition(q);
  if (!host.ok() || !(r >= 0)) return result;  // also rejects NaN
  const PartitionId v = host.value();

  // Line 2: search the host partition directly.
  {
    std::vector<Neighbor> found;
    index.objects().bucket(v).RangeSearch(plan.partition(v), q, r, &found);
    for (const Neighbor& nb : found) result.push_back(nb.id);
  }

  const size_t n = plan.door_count();
  const DistanceMatrix& md2d = index.d2d_matrix();
  const DoorPartitionTable& dpt = index.dpt();

  // Lines 3-20: expand through every leaveable door of the host partition.
  for (DoorId di : plan.LeaveDoors(v)) {
    const double r1 = r - index.locator().DistV(v, q, di);
    if (r1 < 0) continue;
    const double* row = md2d.Row(di);
    if (options.use_index_matrix) {
      const DoorId* order = index.index_matrix().Row(di);
      for (size_t j = 0; j < n; ++j) {
        const DoorId dj = order[j];
        if (row[dj] > r1) break;  // nearest-first: nothing further qualifies
        const double r2 = r1 - row[dj];
        RangeSearchSide(index, dpt[dj].part1, dpt[dj].dist1, dj, r2,
                        &result);
        RangeSearchSide(index, dpt[dj].part2, dpt[dj].dist2, dj, r2,
                        &result);
      }
    } else {
      // Without Midx the whole Md2d row must be examined.
      for (DoorId dj = 0; dj < n; ++dj) {
        if (row[dj] > r1) continue;
        const double r2 = r1 - row[dj];
        RangeSearchSide(index, dpt[dj].part1, dpt[dj].dist1, dj, r2,
                        &result);
        RangeSearchSide(index, dpt[dj].part2, dpt[dj].dist2, dj, r2,
                        &result);
      }
    }
  }

  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

std::vector<Neighbor> KnnQuery(const IndexFramework& index, const Point& q,
                               size_t k, KnnQueryOptions options) {
  const FloorPlan& plan = index.plan();
  const auto host = index.locator().GetHostPartition(q);
  if (!host.ok() || k == 0) return {};
  const PartitionId v = host.value();

  KnnCollector collector(k);
  // Line 3: search the host partition directly.
  index.objects().bucket(v).NnSearch(plan.partition(v), q, /*extra=*/0.0,
                                     &collector);

  const size_t n = plan.door_count();
  const DistanceMatrix& md2d = index.d2d_matrix();
  const DoorPartitionTable& dpt = index.dpt();

  // Lines 4-19: expand through every leaveable door of the host partition.
  for (DoorId di : plan.LeaveDoors(v)) {
    const double r1 = index.locator().DistV(v, q, di);
    if (r1 == kInfDistance) continue;
    const double* row = md2d.Row(di);
    if (options.use_index_matrix) {
      const DoorId* order = index.index_matrix().Row(di);
      for (size_t j = 0; j < n; ++j) {
        const DoorId dj = order[j];
        if (r1 + row[dj] > collector.Bound()) break;
        const double r2 = r1 + row[dj];
        NnSearchSide(index, dpt[dj].part1, dj, r2, &collector);
        NnSearchSide(index, dpt[dj].part2, dj, r2, &collector);
      }
    } else {
      for (DoorId dj = 0; dj < n; ++dj) {
        if (r1 + row[dj] > collector.Bound()) continue;
        const double r2 = r1 + row[dj];
        NnSearchSide(index, dpt[dj].part1, dj, r2, &collector);
        NnSearchSide(index, dpt[dj].part2, dj, r2, &collector);
      }
    }
  }
  return collector.Sorted();
}

}  // namespace reference
}  // namespace indoor
