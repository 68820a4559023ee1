// DoorDistanceOracle: the door-graph half of every distance-aware query.
//
// Algorithms 5 and 6 (paper §V) reach the partitions beyond the host
// through one door-expansion step over Md2d/Midx (§IV-A). This oracle is
// the only place that knows the three ways the framework serves it:
//
//   kMidxScan     Md2d row read in Midx (distance, id) order, stopping at
//                 the first door beyond the bound;
//   kFullRowScan  the whole Md2d row in door-id order, ALT landmark lower
//                 bounds counting the rejected entries they would prune
//                 (use_index_matrix = false);
//   kHierarchy    IndexOptions::use_hierarchy: a cell block row below the
//                 door's escape radius, else a bounded door Dijkstra.
//
// All three report door distances bit-equal to Md2d (the settle-prefix
// property, d2d_runner.h). Visitors are templates, so no virtual call or
// std::function sits on the per-door path.

#ifndef INDOOR_CORE_QUERY_DOOR_DISTANCE_ORACLE_H_
#define INDOOR_CORE_QUERY_DOOR_DISTANCE_ORACLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/distance/d2d_runner.h"
#include "core/distance/query_scratch.h"
#include "core/index/index_framework.h"

namespace indoor {

class QueryCache;

/// The three door-expansion implementations.
enum class DoorEngine : uint8_t { kMidxScan, kFullRowScan, kHierarchy };

/// Result-cache kinds (QueryCache's `uint8_t kind`), one per (engine x
/// query kind), so cached answers of different engines never mix.
inline constexpr uint8_t kRangeKindMidx = 0;
inline constexpr uint8_t kKnnKindMidx = 1;
inline constexpr uint8_t kRangeKindFullRow = 2;
inline constexpr uint8_t kKnnKindFullRow = 3;
inline constexpr uint8_t kRangeKindHierarchy = 4;
inline constexpr uint8_t kKnnKindHierarchy = 5;
// Indexed by DoorEngine.
inline constexpr uint8_t kRangeKinds[] = {kRangeKindMidx, kRangeKindFullRow,
                                          kRangeKindHierarchy};
inline constexpr uint8_t kKnnKinds[] = {kKnnKindMidx, kKnnKindFullRow,
                                        kKnnKindHierarchy};

/// The doors reachable from one source door in (distance, id) order: the
/// Midx/Md2d rows read in place, or the recorded settle sequence of one
/// hierarchy door Dijkstra (which pops in the same order).
class DoorCursor {
 public:
  /// The next door and its distance; false once none is left.
  bool Next(DoorId* door, double* distance) {
    if (order_ != nullptr) {
      if (pos_ == row_size_ || row_[order_[pos_]] == kInfDistance) {
        return false;
      }
      *door = order_[pos_++];
      *distance = row_[*door];
      return true;
    }
    if (pos_ == settled_.size()) return false;
    *door = settled_[pos_].first;
    *distance = settled_[pos_++].second;
    return true;
  }

 private:
  friend class DoorDistanceOracle;

  const DoorId* order_ = nullptr;  // flat: Midx row
  const double* row_ = nullptr;    // flat: Md2d row
  size_t row_size_ = 0;
  std::vector<std::pair<DoorId, double>> settled_;  // hierarchy
  size_t pos_ = 0;
};

/// The door-graph oracle of one query: a few pointers plus the query's
/// expansion counters (published by FlushStats).
class DoorDistanceOracle {
 public:
  /// The hierarchy when the framework has no flat matrices (the flag is
  /// then ignored), else the Midx scan or, without Midx, the full row.
  explicit DoorDistanceOracle(const IndexFramework& index,
                              bool use_index_matrix = true)
      : index_(&index),
        engine_(!index.has_flat_matrix() ? DoorEngine::kHierarchy
                : use_index_matrix       ? DoorEngine::kMidxScan
                                         : DoorEngine::kFullRowScan) {}

  uint8_t range_result_kind() const { return kRangeKinds[Engine()]; }
  uint8_t knn_result_kind() const { return kKnnKinds[Engine()]; }

  /// d(a -> b).
  double Distance(DoorId a, DoorId b) const;

  /// Pt2PtDistanceMatrix, or Pt2PtDistanceHierarchy on the hierarchy.
  double Pt2Pt(PartitionId vs, const Point& ps, PartitionId vt,
               const Point& pt, QueryScratch* scratch,
               const QueryCache* cache) const;

  /// Range step: visit(dj, d) for every door with d = d(di -> dj) <= r.
  /// Every engine visits the same (door, distance) set in its own order.
  template <typename Visit>
  void VisitWithin(DoorId di, double r, DoorDijkstraScratch* door,
                   Visit&& visit);

  /// kNN step: visit(dj, base + d(di -> dj)) for the doors an Algorithm 6
  /// scan offers under bound(), which never rises during the call. The
  /// collector breaks boundary ties by offer order, so order is contract:
  /// Midx order (then unreachable doors by id) for the Midx scan and the
  /// hierarchy, door-id order for the full-row scan.
  template <typename Bound, typename Visit>
  void ExpandUnderBound(DoorId di, double base, Bound&& bound,
                        DoorDijkstraScratch* door, Visit&& visit);

  /// Browsing cursor from `di`; the hierarchy runs its Dijkstra on `door`.
  DoorCursor Cursor(DoorId di, DoorDijkstraScratch* door) const;

  /// Publishes and resets the expansion counters (docs/METRICS.md).
  void FlushStats();

 private:
  size_t Engine() const { return static_cast<size_t>(engine_); }

  struct Stats {
    uint64_t md2d_rows = 0;
    uint64_t midx_rows = 0;
    uint64_t entries = 0;
    uint64_t landmark_prunes = 0;
    uint64_t hier_block_scans = 0;
    uint64_t hier_runs = 0;
  };

  const IndexFramework* index_;
  DoorEngine engine_;
  Stats stats_;
};

template <typename Visit>
void DoorDistanceOracle::VisitWithin(DoorId di, double r,
                                     DoorDijkstraScratch* door,
                                     Visit&& visit) {
  // With a fixed bound the visit order is free, so the hierarchy can serve
  // the r-ball from a cell block row when di is interior to cell c and r
  // stays strictly below its escape radius: every door within r is then
  // provably a member of c (entries bit-equal to Md2d).
  if (engine_ == DoorEngine::kHierarchy) {
    const HierarchyIndex& hier = index_->hierarchy_index();
    const auto cells = hier.CellsOfDoor(di);
    const uint32_t local = hier.LocalIndex(cells[0], di);
    if (cells[1] == HierarchyIndex::kNone &&
        r < hier.EscapeRadius(cells[0], local)) {
      const double* brow = hier.BlockRow(cells[0], local);
      const auto members = hier.CellMembers(cells[0]);
      INDOOR_METRICS_ONLY(++stats_.hier_block_scans;)
      for (size_t j = 0; j < members.size(); ++j) {
        if (brow[j] <= r) visit(members[j], brow[j]);
      }
      return;
    }
  }
  // Otherwise the kNN step under the constant bound r from base 0 (exact:
  // 0 + d == d) enumerates precisely the doors with d <= r.
  ExpandUnderBound(di, 0.0, [r] { return r; }, door, visit);
}

template <typename Bound, typename Visit>
void DoorDistanceOracle::ExpandUnderBound(DoorId di, double base,
                                          Bound&& bound,
                                          DoorDijkstraScratch* door,
                                          Visit&& visit) {
  const size_t n = index_->plan().door_count();
  if (engine_ == DoorEngine::kMidxScan) {
    const double* row = index_->d2d_matrix().Row(di);
    const DoorId* order = index_->index_matrix().Row(di);
    INDOOR_METRICS_ONLY(++stats_.md2d_rows; ++stats_.midx_rows;
                        uint64_t entries = 0;)
    for (size_t j = 0; j < n; ++j) {
      const DoorId dj = order[j];
      INDOOR_METRICS_ONLY(++entries;)
      if (base + row[dj] > bound()) break;
      visit(dj, base + row[dj]);
    }
    INDOOR_METRICS_ONLY(stats_.entries += entries;)
    return;
  }
  if (engine_ == DoorEngine::kFullRowScan) {
    // The exact row entry decides every offer. A landmark lower bound
    // cannot beat that one contiguous load, so it is consulted only for
    // the entries the row rejects, to count those it would have pruned
    // (BoundExceeds exits at the first deciding landmark term).
    const double* row = index_->d2d_matrix().Row(di);
    [[maybe_unused]] const LandmarkIndex* const lm = index_->landmarks();
    INDOOR_METRICS_ONLY(++stats_.md2d_rows; stats_.entries += n;
                        uint64_t prunes = 0;)
    for (DoorId dj = 0; dj < n; ++dj) {
      if (base + row[dj] > bound()) {
        INDOOR_METRICS_ONLY(
            if (lm != nullptr && lm->BoundExceeds(di, dj, base, bound())) {
              ++prunes;
            })
        continue;
      }
      visit(dj, base + row[dj]);
    }
    INDOOR_METRICS_ONLY(stats_.landmark_prunes += prunes;)
    return;
  }
  // The hierarchy must reproduce the Midx scan's offer SEQUENCE. Midx
  // rows are sorted by (distance, id), which is exactly the settle order
  // of the door Dijkstra (ties co-reside in the frontier because edge
  // weights are positive, and both frontiers pop lexicographically), so a
  // bounded run that checks the Midx break condition BEFORE each offer
  // emits the identical sequence. The push prune (candidate above the
  // bound, which never rises) suppresses only offers the collector would
  // reject; when it fires, the Midx scan breaks at the first suppressed
  // door, so the stop check fires before any post-prune offer diverges.
  // The inf tail: when every reachable door settles unpruned, the Midx
  // scan reaches its unreachable entries (id-ordered by the stable sort)
  // and offers base + inf until the break; a prune implies a finite
  // bound, which breaks that tail at once, so the replay below runs
  // exactly when no stop and no prune occurred. (Cell blocks serve only
  // VisitWithin: an adaptive bound would need the offer order re-derived.)
  INDOOR_METRICS_ONLY(++stats_.hier_runs;)
  bool stopped = false;
  bool pruned = false;
  RunDoorDijkstra(
      index_->graph(), di, door, index_->queue_kind(), nullptr,
      [&](DoorId dj, double d) {
        if (base + d > bound()) {
          stopped = true;
          return false;
        }
        visit(dj, base + d);
        return true;
      },
      [&](DoorId, double cand) {
        if (base + cand > bound()) {
          pruned = true;
          return false;
        }
        return true;
      });
  if (stopped || pruned) return;
  const std::vector<char>& visited = door->visited;
  for (DoorId dj = 0; dj < n; ++dj) {
    if (visited[dj]) continue;
    if (base + kInfDistance > bound()) break;
    visit(dj, kInfDistance);
  }
}

}  // namespace indoor

#endif  // INDOOR_CORE_QUERY_DOOR_DISTANCE_ORACLE_H_
