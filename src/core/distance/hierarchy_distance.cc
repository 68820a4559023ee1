#include "core/distance/hierarchy_distance.h"

#include <algorithm>

#include "core/distance/d2d_runner.h"
#include "core/distance/matrix_distance.h"
#include "core/distance/query_scratch.h"
#include "core/query/query_cache.h"
#include "util/metrics.h"
#include "util/query_log.h"

namespace indoor {
namespace {

/// Sentinel marking a (src, dest) pair whose exact d2d is still pending a
/// graph run; walking distances are non-negative, so -1 cannot collide.
constexpr double kPending = -1.0;

}  // namespace

double Pt2PtDistanceHierarchy(const FloorPlan& plan, const DistanceGraph& graph,
                              const HierarchyIndex& hier, PartitionId vs,
                              const Point& ps, PartitionId vt, const Point& pt,
                              QueryScratch* scratch, const QueryCache* cache,
                              QueueKind kind) {
  INDOOR_LATENCY_SPAN("pt2pt_hier", "query.pt2pt_hier.latency_ns");
  qlog::QueryLogScope qscope(qlog::RecordKind::kDistance, ps.x, ps.y, pt.x,
                             pt.y, 0.0, 0, scratch != nullptr);
  qscope.SetHost(vs);
  INDOOR_CHECK(hier.door_count() == plan.door_count())
      << "hierarchy was built for a different plan";
  scratch = &ResolveQueryScratch(scratch);
  const ScratchDecayGuard decay_guard(scratch);
  // Entry/exit legs: shared with Pt2PtDistanceMatrix, so every leg value
  // is bit-identical to the flat path's (with or without a cache).
  double best = Pt2PtEndpointLegs(plan, vs, ps, vt, pt, scratch, cache);
  const auto& src_doors = plan.LeaveDoors(vs);
  const auto& dest_doors = plan.EnterDoors(vt);
  const auto& src_leg = scratch->src_leg;
  const auto& dest_leg = scratch->dst_leg;

  // Pass 1: shared-cell pairs straight from the blocks (each d bit-equal
  // to Md2d, each total the same (leg1 + d) + leg2 left-fold as the flat
  // loop, and the final min over the pair multiset is order-independent).
  // Cross-cell pairs stay pending for pass 2.
  const size_t ns = src_doors.size();
  const size_t nd = dest_doors.size();
  auto& d2d = scratch->d2d_cache;
  d2d.assign(ns * nd, kPending);
  size_t total_pending = 0;
  INDOOR_METRICS_ONLY(uint64_t block_pairs = 0;)
  for (size_t i = 0; i < ns; ++i) {
    const double leg1 = src_leg[i];
    if (leg1 == kInfDistance) continue;
    for (size_t j = 0; j < nd; ++j) {
      if (dest_leg[j] == kInfDistance) continue;
      double dex;
      if (hier.TryExact(src_doors[i], dest_doors[j], &dex)) {
        d2d[i * nd + j] = dex;
        INDOOR_METRICS_ONLY(++block_pairs;)
        if (dex == kInfDistance) continue;
        best = std::min(best, leg1 + dex + dest_leg[j]);
        continue;
      }
      ++total_pending;
    }
  }
  INDOOR_METRICS_ONLY(
      INDOOR_COUNTER_ADD("index.hier.pt2pt.block_pairs", block_pairs);)

  // Pass 2: one goal-directed bounded Dijkstra per source door with
  // pending pairs. h(x) = DestinationBound(x) is d(x, T) over the exit
  // legs, composed from stored entries; in real arithmetic the cap
  // C = min_i leg1_i + h(s_i) is the optimum over door pairs, and every
  // door x on an optimal pair's shortest-path branch (in the float run's
  // own predecessor chain) has leg1 + d(s, x) + h(x) equal to it up to a
  // few hundred ulps, which the 1e-9 slack dominates. So with
  // limit = slack * min(best, C), which only shrinks:
  //   * run skip: a source with leg1 + h(s_i) > limit (or h = +inf: no
  //     target reachable) holds no pair that can lower the final min;
  //   * push prune: fl(leg1 + cand) + h(to) > limit drops only doors
  //     whose every total is above the final min; a door pruned at its
  //     best candidate that settles later through a larger one only
  //     feeds totals above the limit (d2d_runner.h), so the recorded
  //     d2d of such a pair never wins the min;
  //   * stop: once fl(leg1 + d) rises past slack * C or reaches best,
  //     no later settle can lower the min.
  // Doors on the optimal branch are never pruned, so they settle with
  // their flat-bit-equal values (settle-prefix property) and the optimal
  // pair's total is the flat loop's. Composed sums never become answers.
  if (total_pending > 0) {
    auto& table = scratch->destination;
    hier.PrepareDestination(dest_doors, dest_leg, &table);
    double cap = kInfDistance;
    for (size_t i = 0; i < ns; ++i) {
      if (src_leg[i] == kInfDistance) continue;
      cap = std::min(cap, src_leg[i] +
                              hier.DestinationBound(src_doors[i], &table));
    }
    const double slack = HierarchyIndex::kUpperBoundSlack;
    const double stop_cap = slack * cap;
    INDOOR_METRICS_ONLY(uint64_t runs = 0;)
    for (size_t i = 0; i < ns; ++i) {
      const double leg1 = src_leg[i];
      if (leg1 == kInfDistance) continue;
      size_t remaining = 0;
      for (size_t j = 0; j < nd; ++j) {
        if (d2d[i * nd + j] == kPending && dest_leg[j] != kInfDistance) {
          ++remaining;
        }
      }
      // Totals through this door are >= leg1, so a row at or above the
      // running best (the flat loop's own skip) cannot lower the min.
      if (remaining == 0 || leg1 >= best) continue;
      const double h = hier.DestinationBound(src_doors[i], &table);
      if (h == kInfDistance || leg1 + h > slack * std::min(best, cap)) {
        continue;
      }
      INDOOR_METRICS_ONLY(++runs;)
      RunDoorDijkstra(
          graph, src_doors[i], &scratch->door, kind, nullptr,
          [&](DoorId di, double d) {
            const double through = leg1 + d;
            if (through > stop_cap || through >= best) return false;
            for (size_t j = 0; j < nd; ++j) {
              if (dest_doors[j] != di || d2d[i * nd + j] != kPending ||
                  dest_leg[j] == kInfDistance) {
                continue;
              }
              d2d[i * nd + j] = d;
              best = std::min(best, through + dest_leg[j]);
              --remaining;
            }
            return remaining != 0;
          },
          [&](DoorId to, double cand) {
            const double h_to = hier.DestinationBound(to, &table);
            return h_to < kInfDistance &&
                   leg1 + cand + h_to <= slack * std::min(best, cap);
          });
    }
    INDOOR_METRICS_ONLY(INDOOR_COUNTER_ADD("index.hier.pt2pt.runs", runs);)
  }
  qscope.SetResult(best < kInfDistance ? 1u : 0u, best);
  return best;
}

double Pt2PtDistanceHierarchy(const PartitionLocator& locator,
                              const DistanceGraph& graph,
                              const HierarchyIndex& hier, const Point& ps,
                              const Point& pt, QueryScratch* scratch,
                              const QueryCache* cache, QueueKind kind) {
  const auto vs = CachedHostPartition(cache, locator, ps);
  const auto vt = CachedHostPartition(cache, locator, pt);
  if (!vs.ok() || !vt.ok()) return kInfDistance;
  return Pt2PtDistanceHierarchy(locator.plan(), graph, hier, vs.value(), ps,
                                vt.value(), pt, scratch, cache, kind);
}

double HierarchyDoorDistance(const DistanceGraph& graph,
                             const HierarchyIndex& hier, DoorId s, DoorId t,
                             QueryScratch* scratch, QueueKind kind) {
  INDOOR_CHECK(s < hier.door_count() && t < hier.door_count());
  double out;
  if (hier.TryExact(s, t, &out)) return out;
  scratch = &ResolveQueryScratch(scratch);
  // Goal-directed run toward the single target t (leg 0): h(x) =
  // DestinationBound(x) is d(x, t) composed from stored entries, and the
  // cap h(s) = d(s, t) up to rounding the slack dominates. Every node on
  // t's shortest-path branch has cand + h(to) equal to the cap up to
  // that rounding, so it survives both the push prune and the settle
  // stop, and t settles with its exact (flat-bit-equal) distance; a
  // pruned door that settles later through a larger candidate feeds only
  // values above the limit (d2d_runner.h). h(s) = +inf proves t
  // unreachable.
  auto& table = scratch->destination;
  const double leg = 0.0;
  hier.PrepareDestination({&t, 1}, {&leg, 1}, &table);
  const double cap = hier.DestinationBound(s, &table);
  if (cap == kInfDistance) return kInfDistance;
  const double limit = HierarchyIndex::kUpperBoundSlack * cap;
  INDOOR_COUNTER_INC("index.hier.d2d.runs");
  double result = kInfDistance;
  RunDoorDijkstra(
      graph, s, &scratch->door, kind, nullptr,
      [&](DoorId di, double d) {
        if (d > limit) return false;
        if (di != t) return true;
        result = d;
        return false;
      },
      [&](DoorId to, double cand) {
        const double h_to = hier.DestinationBound(to, &table);
        return h_to < kInfDistance && cand + h_to <= limit;
      });
  return result;
}

}  // namespace indoor
