// Best-first incremental nearest-neighbor search (distance browsing in the
// style of Hjaltason & Samet), built natively on the paper's index
// framework: one priority queue mixes
//   * DOOR CURSORS — the doors reachable from source door di in (distance,
//     id) order (door_distance_oracle.h: a Midx row on the flat engines, a
//     recorded Dijkstra settle sequence on the hierarchy), keyed by
//     distV(q, di) + d(di, door);
//   * GRID CELLS — a partition's sub-buckets anchored at the entry door,
//     keyed by the Euclidean lower bound of the cell;
//   * OBJECTS — keyed by their exact walking distance.
// Every key lower-bounds everything the entry can produce, so objects pop
// in exact non-descending distance order and the browser does work
// proportional to what the consumer actually pulls.

#ifndef INDOOR_CORE_QUERY_INCREMENTAL_KNN_H_
#define INDOOR_CORE_QUERY_INCREMENTAL_KNN_H_

#include <queue>
#include <unordered_set>

#include "core/distance/query_scratch.h"
#include "core/index/index_framework.h"
#include "core/query/door_distance_oracle.h"

namespace indoor {

/// Streams the objects of the index's store in non-descending walking
/// distance from `q`, computing lazily. The index must outlive the
/// browser; object mutations during browsing invalidate it.
class DistanceBrowser {
 public:
  DistanceBrowser(const IndexFramework& index, const Point& q);

  /// True if another (not yet yielded) object is reachable.
  bool HasNext();

  /// The next-nearest object. Requires HasNext().
  Neighbor Next();

  /// Number of objects yielded so far.
  size_t yielded() const { return yielded_.size(); }

 private:
  enum class Kind { kDoor, kCell, kObject };

  struct Entry {
    double key;
    Kind kind;
    // kDoor: distV(q, cursor source); kCell: walking distance to anchor.
    double base = 0;
    // kDoor: the door a cursor yielded and the cursor.
    DoorId door = kInvalidId;
    size_t cursor = 0;
    // kCell: partition + cell ordinal + anchor (door midpoint or q).
    PartitionId partition = kInvalidId;
    size_t cell = 0;
    Point anchor;
    // kObject:
    ObjectId object = kInvalidId;

    bool operator>(const Entry& o) const { return key > o.key; }
  };

  /// Pushes the grid cells of `partition` anchored at `anchor` with the
  /// accumulated distance `base`.
  void PushCells(PartitionId partition, const Point& anchor, double base);

  /// Pushes the next door of cursor `c` (source leg `base`), if any.
  void PushDoor(size_t c, double base);

  /// Advances the heap until an unyielded object surfaces on top.
  void Settle();

  const IndexFramework* index_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::unordered_set<ObjectId> yielded_;
  std::unordered_set<uint64_t> partitions_entered_;  // (partition<<32)|door
  std::vector<DoorCursor> cursors_;  // one per leaveable host door
  // Browser-owned scratch: cell settlement batches all objects of a cell
  // through one geodesic solve anchored at the cell's entry point.
  QueryScratch scratch_;
};

}  // namespace indoor

#endif  // INDOOR_CORE_QUERY_INCREMENTAL_KNN_H_
