// Policy-parameterized core of Algorithm 1 (the door-graph Dijkstra).
//
// d2d_distance.cc's two frontier loops (binary heap, bounded-weight bucket
// queue + SIMD batch relaxation) are generalized here into templates over
// two policies so other subsystems — the hierarchy index build's
// early-terminated row solves and its bounded query-time expansions
// (hierarchy_index.h, hierarchy_distance.h) — can reuse the EXACT solver
// loop instead of approximating it:
//
//   OnSettle  bool(DoorId di, double d) — invoked at the settle point of
//             every door (after it is marked visited, before its edges
//             relax). Returning false stops the run immediately; this is
//             the generalization of the historical `if (di == target)
//             return d` early exit. Because Dijkstra settles doors in
//             final-distance order and the loop performs the identical
//             operation sequence up to the stop, every distance reported
//             to OnSettle is bit-identical to the value the full
//             (un-stopped) run would produce — the settle-prefix property
//             that the hierarchy's bitwise-equality contract builds on.
//
//   PushOk    bool(DoorId to, double cand) — consulted before enqueueing
//             an improving candidate `cand` for door `to`. Returning false
//             records the tentative distance but skips the push, so `to`
//             cannot settle through that candidate. The bound may depend
//             on the door (e.g. fl(base + cand) + h(to) > limit, with h
//             a per-door estimate of the remaining distance) provided it
//             is MONOTONE in cand (a larger candidate for the same door is
//             never accepted where a smaller one is refused) and NEVER
//             RISES during a run (limit only shrinks). Then pruning is
//             loss-free for every total the caller derives via OnSettle
//             below its limit:
//               * a refused candidate is refused at every later point of
//                 the run, so no total through it can come back under the
//                 limit;
//               * a door whose best candidate was refused may still settle
//                 later through a LARGER accepted candidate (pushed before
//                 the smaller one arrived). That value is an over-estimate
//                 of its distance, and when h is consistent (h(x) <=
//                 w(x, y) + h(y), as an exact remaining distance is)
//                 everything the run derives from it — the door's own
//                 totals and its descendants' — is at least the refused
//                 candidate's total, i.e. above the limit, so it only
//                 feeds totals the caller discards;
//               * every value the run produces is a genuine path sum, so
//                 none undercuts the full run's; a door whose full-run
//                 predecessor settled with its exact value and whose
//                 candidate from it was accepted therefore settles with
//                 its exact (flat-bit-equal) distance. The caller's limit
//                 must keep every door of the shortest-path branches it
//                 observes accepted (hierarchy_distance.cc shows why its
//                 bound does).
//             With a door-independent bound (h = 0) the second case cannot
//             arise: the suppressed candidate is over the bound at push
//             time and still over it at its would-be pop, where the
//             matching OnSettle stop ends the run. CAUTION: with a
//             non-trivial PushOk, dist[] entries of unsettled doors are
//             tentative only — consume distances through OnSettle (or
//             check visited[]), never from dist[] directly.
//
// The default policies (SettleAll / AlwaysPush) reduce both loops to the
// historical RunD2dHeap/RunD2dBucket byte for byte: same pop order, same
// relaxation sequence, same metrics. d2d_distance.cc's public entry points
// are thin wrappers over these templates, so the randomized heap-vs-bucket
// equivalence suites keep guarding this file's loops.

#ifndef INDOOR_CORE_DISTANCE_D2D_RUNNER_H_
#define INDOOR_CORE_DISTANCE_D2D_RUNNER_H_

#include <span>
#include <utility>
#include <vector>

#include "core/distance/d2d_distance.h"
#include "core/distance/dijkstra_stats.h"
#include "util/metrics.h"
#include "util/simd.h"

namespace indoor {

/// Default OnSettle: never stops (full single-source run).
struct SettleAll {
  bool operator()(DoorId, double) const { return true; }
};

/// Default PushOk: accepts every improving relaxation (exact Algorithm 1).
struct AlwaysPush {
  bool operator()(DoorId, double) const { return true; }
};

/// Heap-frontier door Dijkstra from `ds`. dist/visited are assigned to the
/// door count; `prev_out` may be null. See the header comment for the
/// policy contracts.
template <typename OnSettle = SettleAll, typename PushOk = AlwaysPush>
void RunDoorDijkstraHeap(const DistanceGraph& graph, DoorId ds,
                         std::vector<double>* dist_out,
                         std::vector<char>* visited_buf,
                         MinHeap<std::pair<double, DoorId>>* heap,
                         std::vector<PrevEntry>* prev_out,
                         OnSettle&& on_settle = {}, PushOk&& push_ok = {}) {
  const size_t n = graph.plan().door_count();
  INDOOR_CHECK(ds < n);

  std::vector<double>& dist = *dist_out;
  dist.assign(n, kInfDistance);
  if (prev_out != nullptr) prev_out->assign(n, PrevEntry{});
  std::vector<char>& visited = *visited_buf;
  visited.assign(n, 0);

  heap->clear();
  dist[ds] = 0.0;
  heap->push({0.0, ds});

  INDOOR_METRICS_ONLY(internal::DijkstraRunStats stats;)
  while (!heap->empty()) {
    const auto [d, di] = heap->top();
    heap->pop();
    if (visited[di]) continue;
    visited[di] = 1;
    INDOOR_METRICS_ONLY(++stats.settles;)
    if (!on_settle(di, d)) return;
    // Relax from the settled (popped) value, as the bucket loop does. It
    // equals dist[di] unless a door-dependent PushOk refused di's best
    // candidate after accepting a larger one.
    for (const DoorGraphEdge& e : graph.DoorEdges(di)) {
      if (visited[e.to]) continue;
      if (d + e.weight < dist[e.to]) {
        dist[e.to] = d + e.weight;
        if (prev_out != nullptr) (*prev_out)[e.to] = {e.via, di};
        if (!push_ok(e.to, dist[e.to])) continue;
        heap->push({dist[e.to], e.to});
        INDOOR_METRICS_ONLY(++stats.relaxations;)
      }
    }
  }
}

/// Bucket-frontier door Dijkstra with SIMD batch relaxation, bitwise
/// identical to RunDoorDijkstraHeap under identical policies (see
/// d2d_distance.h: lexicographic extraction + pre-span filter + scalar
/// re-check reproduce the heap's relaxation sequence exactly).
template <typename OnSettle = SettleAll, typename PushOk = AlwaysPush>
void RunDoorDijkstraBucket(const DistanceGraph& graph, DoorId ds,
                           std::vector<double>* dist_out,
                           std::vector<char>* visited_buf, BucketQueue* queue,
                           std::vector<double>* cand_buf,
                           std::vector<uint32_t>* idx_buf,
                           std::vector<PrevEntry>* prev_out,
                           OnSettle&& on_settle = {}, PushOk&& push_ok = {}) {
  const size_t n = graph.plan().door_count();
  INDOOR_CHECK(ds < n);

  std::vector<double>& dist = *dist_out;
  dist.assign(n, kInfDistance);
  if (prev_out != nullptr) prev_out->assign(n, PrevEntry{});
  std::vector<char>& visited = *visited_buf;
  visited.assign(n, 0);
  cand_buf->resize(graph.max_door_out_degree());
  idx_buf->resize(graph.max_door_out_degree());
  double* const cand = cand_buf->data();
  uint32_t* const idx = idx_buf->data();

  queue->Prepare(graph.max_door_edge_weight());
  dist[ds] = 0.0;
  queue->push({0.0, ds});

  INDOOR_METRICS_ONLY(internal::DijkstraRunStats stats;
                      stats.queue = QueueKind::kBucket;)
  while (!queue->empty()) {
    const auto [d, di] = queue->top();
    queue->pop();
    if (visited[di]) continue;
    visited[di] = 1;
    INDOOR_METRICS_ONLY(++stats.settles;)
    if (!on_settle(di, d)) return;
    const std::span<const DoorGraphEdge> edges = graph.DoorEdges(di);
    const size_t m = edges.size();
    if (m == 0) continue;
    simd::AddBase(d, graph.DoorEdgeWeights(di), cand, m);
    const size_t improved = simd::FilterImprovements(
        cand, graph.DoorEdgeTargets(di), dist.data(), m, idx);
    for (size_t k = 0; k < improved; ++k) {
      const size_t i = idx[k];
      const DoorId to = edges[i].to;
      if (cand[i] < dist[to]) {  // re-check: duplicate targets in one span
        dist[to] = cand[i];
        if (prev_out != nullptr) (*prev_out)[to] = {edges[i].via, di};
        if (!push_ok(to, cand[i])) continue;
        queue->push({cand[i], to});
        INDOOR_METRICS_ONLY(++stats.relaxations;)
      }
    }
  }
}

/// Frontier-dispatching convenience over a DoorDijkstraScratch; the
/// hierarchy query paths call this with their stop/prune policies.
template <typename OnSettle = SettleAll, typename PushOk = AlwaysPush>
void RunDoorDijkstra(const DistanceGraph& graph, DoorId ds,
                     DoorDijkstraScratch* scratch, QueueKind kind,
                     std::vector<PrevEntry>* prev_out,
                     OnSettle&& on_settle = {}, PushOk&& push_ok = {}) {
  if (kind == QueueKind::kBucket) {
    RunDoorDijkstraBucket(graph, ds, &scratch->dist, &scratch->visited,
                          &scratch->bucket, &scratch->relax_cand,
                          &scratch->relax_idx, prev_out,
                          std::forward<OnSettle>(on_settle),
                          std::forward<PushOk>(push_ok));
    return;
  }
  RunDoorDijkstraHeap(graph, ds, &scratch->dist, &scratch->visited,
                      &scratch->heap, prev_out,
                      std::forward<OnSettle>(on_settle),
                      std::forward<PushOk>(push_ok));
}

}  // namespace indoor

#endif  // INDOOR_CORE_DISTANCE_D2D_RUNNER_H_
