#include "core/query/temporal_query.h"

#include <algorithm>

#include "core/distance/query_scratch.h"
#include "core/query/range_query.h"

namespace indoor {
namespace {

/// Seeds for the snapshot Dijkstra: the host partition's leaveable doors
/// with their distV legs, resolved through one batched geodesic solve.
std::vector<std::pair<DoorId, double>> SeedsFrom(const IndexFramework& index,
                                                 PartitionId v, const Point& q,
                                                 QueryScratch* scratch) {
  std::vector<std::pair<DoorId, double>> seeds;
  const auto& src_doors = index.plan().LeaveDoors(v);
  auto& src_leg = scratch->src_leg;
  src_leg.resize(src_doors.size());
  index.locator().DistVMany(v, q, src_doors, &scratch->geo, src_leg.data());
  for (size_t i = 0; i < src_doors.size(); ++i) {
    if (src_leg[i] != kInfDistance) seeds.push_back({src_doors[i], src_leg[i]});
  }
  return seeds;
}

}  // namespace

std::vector<ObjectId> RangeQueryAtTime(const IndexFramework& index,
                                       const DoorSchedule& schedule,
                                       double time, const Point& q,
                                       double r) {
  std::vector<ObjectId> result;
  const FloorPlan& plan = index.plan();
  const auto host = index.locator().GetHostPartition(q);
  if (!host.ok() || !(r >= 0)) return result;  // also rejects NaN
  const PartitionId v = host.value();
  QueryScratch& scratch = TlsQueryScratch();

  // Host partition first (intra-partition movement needs no doors).
  {
    std::vector<Neighbor>& found = scratch.neighbors;
    found.clear();
    index.objects().bucket(v).RangeSearch(plan.partition(v), q, r, &found,
                                          &scratch.bucket);
    for (const Neighbor& nb : found) result.push_back(nb.id);
  }

  // One snapshot Dijkstra replaces the Md2d row scans of Algorithm 5.
  std::vector<double> dist;
  internal::SnapshotDijkstra(index.graph(), schedule, time,
                             SeedsFrom(index, v, q, &scratch), kInvalidId,
                             &dist, nullptr);
  const DoorPartitionTable& dpt = index.dpt();
  for (DoorId dj = 0; dj < plan.door_count(); ++dj) {
    if (dist[dj] > r) continue;
    const double r2 = r - dist[dj];
    internal::RangeSearchSide(index, dpt[dj].part1, dpt[dj].dist1, dj, r2,
                              &scratch.bucket, &result);
    internal::RangeSearchSide(index, dpt[dj].part2, dpt[dj].dist2, dj, r2,
                              &scratch.bucket, &result);
  }
  INDOOR_METRICS_ONLY(FlushBucketStats(&scratch.bucket);
                      index.hotness().FlushVisits(&scratch.bucket.hot);)
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

std::vector<Neighbor> KnnQueryAtTime(const IndexFramework& index,
                                     const DoorSchedule& schedule,
                                     double time, const Point& q, size_t k) {
  const FloorPlan& plan = index.plan();
  const auto host = index.locator().GetHostPartition(q);
  if (!host.ok() || k == 0) return {};
  const PartitionId v = host.value();
  QueryScratch& scratch = TlsQueryScratch();

  KnnCollector& collector = scratch.collector;
  collector.Reset(k);
  index.objects().bucket(v).NnSearch(plan.partition(v), q, 0.0, &collector,
                                     &scratch.bucket);

  std::vector<double> dist;
  internal::SnapshotDijkstra(index.graph(), schedule, time,
                             SeedsFrom(index, v, q, &scratch), kInvalidId,
                             &dist, nullptr);
  // Visit doors nearest-first so the bound tightens early. (Local buffer:
  // scratch.bucket.cell_order is in use by the nested NnSearch calls.)
  std::vector<std::pair<double, DoorId>> order;
  for (DoorId dj = 0; dj < plan.door_count(); ++dj) {
    if (dist[dj] != kInfDistance) order.push_back({dist[dj], dj});
  }
  std::sort(order.begin(), order.end());
  const DoorPartitionTable& dpt = index.dpt();
  for (const auto& [dj_dist, dj] : order) {
    if (dj_dist > collector.Bound()) break;
    for (PartitionId part : {dpt[dj].part1, dpt[dj].part2}) {
      if (part == kInvalidId) continue;
      const GridBucket& bucket = index.objects().bucket(part);
      if (bucket.size() == 0) continue;
      bucket.NnSearch(plan.partition(part), plan.door(dj).Midpoint(),
                      dj_dist, &collector, &scratch.bucket);
    }
  }
  return collector.Sorted();
}

IndoorPath Pt2PtShortestPathAtTime(const DistanceContext& ctx,
                                   const DoorSchedule& schedule, double time,
                                   const Point& ps, const Point& pt) {
  const FloorPlan& plan = ctx.graph->plan();
  IndoorPath path;
  const auto endpoints = internal::ResolveEndpoints(ctx, ps, pt);
  if (!endpoints.ok()) return path;

  QueryScratch& scratch = TlsQueryScratch();
  const double direct =
      internal::DirectCandidate(ctx, endpoints, ps, pt, &scratch.geo);

  const auto& src_doors = plan.LeaveDoors(endpoints.vs);
  auto& src_leg = scratch.src_leg;
  src_leg.resize(src_doors.size());
  ctx.locator->DistVMany(endpoints.vs, ps, src_doors, &scratch.geo,
                         src_leg.data());
  std::vector<std::pair<DoorId, double>> seeds;
  for (size_t i = 0; i < src_doors.size(); ++i) {
    if (src_leg[i] != kInfDistance) seeds.push_back({src_doors[i], src_leg[i]});
  }
  std::vector<double> dist;
  std::vector<PrevEntry> prev;
  internal::SnapshotDijkstra(*ctx.graph, schedule, time, seeds, kInvalidId,
                             &dist, &prev);

  const auto& dst_doors = plan.EnterDoors(endpoints.vt);
  auto& dst_leg = scratch.dst_leg;
  dst_leg.resize(dst_doors.size());
  ctx.locator->DistVMany(endpoints.vt, pt, dst_doors, &scratch.geo,
                         dst_leg.data());
  DoorId best_door = kInvalidId;
  double best = kInfDistance;
  for (size_t j = 0; j < dst_doors.size(); ++j) {
    const DoorId dt = dst_doors[j];
    if (dist[dt] == kInfDistance) continue;
    const double leg = dst_leg[j];
    if (leg == kInfDistance) continue;
    if (dist[dt] + leg < best) {
      best = dist[dt] + leg;
      best_door = dt;
    }
  }

  if (direct <= best) {
    if (direct == kInfDistance) return path;
    path.length = direct;
    path.partitions = {endpoints.vs};
    path.waypoints = {ps, pt};
    return path;
  }

  path.length = best;
  std::vector<DoorId> doors{best_door};
  std::vector<PartitionId> mid_parts;
  DoorId cur = best_door;
  while (prev[cur].door != kInvalidId) {
    mid_parts.push_back(prev[cur].partition);
    cur = prev[cur].door;
    doors.push_back(cur);
  }
  std::reverse(doors.begin(), doors.end());
  std::reverse(mid_parts.begin(), mid_parts.end());
  path.doors = std::move(doors);
  path.partitions.push_back(endpoints.vs);
  for (PartitionId v : mid_parts) path.partitions.push_back(v);
  path.partitions.push_back(endpoints.vt);
  path.waypoints.push_back(ps);
  for (DoorId d : path.doors) {
    path.waypoints.push_back(plan.door(d).Midpoint());
  }
  path.waypoints.push_back(pt);
  return path;
}

}  // namespace indoor
