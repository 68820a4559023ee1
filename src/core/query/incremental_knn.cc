#include "core/query/incremental_knn.h"

namespace indoor {

DistanceBrowser::DistanceBrowser(const IndexFramework& index, const Point& q)
    : index_(&index) {
  const auto host = index.locator().GetHostPartition(q);
  if (!host.ok()) return;  // the heap stays empty
  const PartitionId v = host.value();
  // The host partition's own cells, anchored at the query itself.
  PushCells(v, q, 0.0);
  // One door cursor per leaveable door of the host partition; all distV
  // legs come from one batched geodesic solve rooted at q.
  const FloorPlan& plan = index.plan();
  const DoorDistanceOracle oracle(index);
  const auto& src_doors = plan.LeaveDoors(v);
  auto& src_leg = scratch_.src_leg;
  src_leg.resize(src_doors.size());
  index.locator().DistVMany(v, q, src_doors, &scratch_.geo, src_leg.data());
  for (size_t i = 0; i < src_doors.size(); ++i) {
    const double base = src_leg[i];
    if (base == kInfDistance) continue;
    cursors_.push_back(oracle.Cursor(src_doors[i], &scratch_.door));
    PushDoor(cursors_.size() - 1, base);
  }
}

void DistanceBrowser::PushDoor(size_t c, double base) {
  Entry entry;
  entry.kind = Kind::kDoor;
  entry.cursor = c;
  entry.base = base;
  double d;
  if (!cursors_[c].Next(&entry.door, &d)) return;
  entry.key = base + d;
  heap_.push(entry);
}

void DistanceBrowser::PushCells(PartitionId partition, const Point& anchor,
                                double base) {
  const GridBucket& bucket = index_->objects().bucket(partition);
  if (bucket.size() == 0) return;
  const double scale = index_->plan().partition(partition).metric_scale();
  for (size_t c = 0; c < bucket.cell_count(); ++c) {
    if (bucket.CellContents(c).empty()) continue;
    Entry entry;
    entry.kind = Kind::kCell;
    entry.partition = partition;
    entry.cell = c;
    entry.anchor = anchor;
    entry.base = base;
    entry.key = base + bucket.CellRectAt(c).MinDistance(anchor) * scale;
    heap_.push(entry);
  }
}

void DistanceBrowser::Settle() {
  const FloorPlan& plan = index_->plan();
  while (!heap_.empty()) {
    const Entry top = heap_.top();
    if (top.kind == Kind::kObject) {
      if (yielded_.count(top.object)) {
        heap_.pop();
        continue;
      }
      return;  // next object ready
    }
    heap_.pop();
    if (top.kind == Kind::kDoor) {
      // Enter the door's partitions unless a cheaper entry already did.
      const DoorId dj = top.door;
      const DptRecord& rec = index_->dpt()[dj];
      for (PartitionId part : {rec.part1, rec.part2}) {
        if (part == kInvalidId) continue;
        const uint64_t tag = (static_cast<uint64_t>(part) << 32) | dj;
        if (!partitions_entered_.insert(tag).second) continue;
        PushCells(part, plan.door(dj).Midpoint(), top.key);
      }
      PushDoor(top.cursor, top.base);
    } else {  // kCell
      const Partition& part = plan.partition(top.partition);
      const GridBucket& bucket = index_->objects().bucket(top.partition);
      const auto& contents = bucket.CellContents(top.cell);
      // One batched geodesic solve from the anchor covers every unyielded
      // object of the cell (identical values to per-object IntraDistance).
      auto& pts = scratch_.geo.points;
      pts.clear();
      for (const auto& [id, pos] : contents) {
        if (!yielded_.count(id)) pts.push_back(pos);
      }
      if (pts.empty()) continue;
      auto& legs = scratch_.src_leg;
      legs.resize(pts.size());
      part.IntraDistancesToMany(top.anchor, pts, &scratch_.geo, legs.data());
      size_t next_leg = 0;
      for (const auto& [id, pos] : contents) {
        if (yielded_.count(id)) continue;
        const double leg = legs[next_leg++];
        if (leg == kInfDistance) continue;
        Entry entry;
        entry.kind = Kind::kObject;
        entry.object = id;
        entry.key = top.base + leg;
        heap_.push(entry);
      }
    }
  }
}

bool DistanceBrowser::HasNext() {
  Settle();
  return !heap_.empty();
}

Neighbor DistanceBrowser::Next() {
  INDOOR_CHECK(HasNext()) << "DistanceBrowser exhausted";
  const Entry top = heap_.top();
  heap_.pop();
  yielded_.insert(top.object);
  return {top.object, top.key};
}

}  // namespace indoor
