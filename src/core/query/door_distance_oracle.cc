#include "core/query/door_distance_oracle.h"

#include "core/distance/hierarchy_distance.h"
#include "core/distance/matrix_distance.h"
#include "util/metrics.h"

namespace indoor {

double DoorDistanceOracle::Distance(DoorId a, DoorId b) const {
  if (engine_ == DoorEngine::kHierarchy) {
    return HierarchyDoorDistance(index_->graph(), index_->hierarchy_index(),
                                 a, b, nullptr, index_->queue_kind());
  }
  return index_->d2d_matrix().At(a, b);
}

double DoorDistanceOracle::Pt2Pt(PartitionId vs, const Point& ps,
                                 PartitionId vt, const Point& pt,
                                 QueryScratch* scratch,
                                 const QueryCache* cache) const {
  if (engine_ == DoorEngine::kHierarchy) {
    return Pt2PtDistanceHierarchy(index_->plan(), index_->graph(),
                                  index_->hierarchy_index(), vs, ps, vt, pt,
                                  scratch, cache, index_->queue_kind());
  }
  return Pt2PtDistanceMatrix(index_->plan(), index_->d2d_matrix(), vs, ps,
                             vt, pt, scratch, cache);
}

DoorCursor DoorDistanceOracle::Cursor(DoorId di,
                                      DoorDijkstraScratch* door) const {
  DoorCursor cursor;
  if (engine_ != DoorEngine::kHierarchy) {
    cursor.order_ = index_->index_matrix().Row(di);
    cursor.row_ = index_->d2d_matrix().Row(di);
    cursor.row_size_ = index_->plan().door_count();
    return cursor;
  }
  RunDoorDijkstra(index_->graph(), di, door, index_->queue_kind(), nullptr,
                  [&](DoorId dj, double d) {
                    cursor.settled_.emplace_back(dj, d);
                    return true;
                  });
  return cursor;
}

void DoorDistanceOracle::FlushStats() {
  // One literal per counter: INDOOR_COUNTER_ADD caches its registry slot
  // per call site.
  if (engine_ == DoorEngine::kHierarchy) {
    INDOOR_COUNTER_ADD("index.hier.block_scans", stats_.hier_block_scans);
    INDOOR_COUNTER_ADD("index.hier.runs", stats_.hier_runs);
  } else {
    INDOOR_COUNTER_ADD("index.md2d.row_fetches", stats_.md2d_rows);
    INDOOR_COUNTER_ADD("index.midx.row_fetches", stats_.midx_rows);
    INDOOR_COUNTER_ADD("index.scan.entries", stats_.entries);
  }
  if (stats_.landmark_prunes != 0) {
    INDOOR_COUNTER_ADD("distance.dijkstra.prunes.landmark",
                       stats_.landmark_prunes);
  }
  stats_ = Stats{};
}

}  // namespace indoor
