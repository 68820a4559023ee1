#include "core/index/object_store.h"

#include <algorithm>
#include <sstream>

#include "util/metrics.h"
#include "util/timer.h"

namespace indoor {

ObjectStore::ObjectStore(const FloorPlan& plan, double grid_cell_size)
    : plan_(&plan),
      grid_cell_size_(grid_cell_size),
      epochs_(plan.partition_count()),
      journal_(plan.partition_count() * kChangeJournalCapacity),
      door_lists_(new DoorListSlot[plan.partition_count()]) {
  buckets_.reserve(plan.partition_count());
  for (const Partition& part : plan.partitions()) {
    buckets_.emplace_back(part, grid_cell_size);
  }
}

Result<ObjectId> ObjectStore::Insert(PartitionId partition,
                                     const Point& position) {
  if (partition >= plan_->partition_count()) {
    return Status::InvalidArgument("unknown partition id " +
                                   std::to_string(partition));
  }
  if (!plan_->partition(partition).Contains(position)) {
    std::ostringstream msg;
    msg << "position " << position << " is outside partition '"
        << plan_->partition(partition).name() << "'";
    return Status::InvalidArgument(msg.str());
  }
  const ObjectId id = static_cast<ObjectId>(objects_.size());
  objects_.push_back({id, partition, position});
  buckets_[partition].Insert(id, position);
  AddToDoorLists(partition, id, position);
  BumpEpoch(partition, id);
  return id;
}

Status ObjectStore::MoveObject(ObjectId id, PartitionId partition,
                               const Point& position) {
  if (id >= objects_.size()) {
    return Status::NotFound("unknown object id " + std::to_string(id));
  }
  if (partition >= plan_->partition_count()) {
    return Status::InvalidArgument("unknown partition id " +
                                   std::to_string(partition));
  }
  if (!plan_->partition(partition).Contains(position)) {
    std::ostringstream msg;
    msg << "position " << position << " is outside partition '"
        << plan_->partition(partition).name() << "'";
    return Status::InvalidArgument(msg.str());
  }
  IndoorObject& obj = objects_[id];
  INDOOR_CHECK(buckets_[obj.partition].Remove(id, obj.position))
      << "object store and bucket out of sync for object" << id;
  const PartitionId source = obj.partition;
  RemoveFromDoorLists(source, id);
  obj.partition = partition;
  obj.position = position;
  buckets_[partition].Insert(id, position);
  AddToDoorLists(partition, id, position);
  // Only the two partitions whose populations changed are re-versioned;
  // every other partition's cached object-dependent state stays valid.
  BumpEpoch(source, id);
  if (partition != source) BumpEpoch(partition, id);
  return Status::OK();
}

std::span<const DoorListEntry> ObjectStore::DoorList(PartitionId v,
                                                    DoorId d) const {
  INDOOR_CHECK(v < buckets_.size());
  const std::vector<DoorId>& doors = plan_->TouchingDoors(v);
  const auto it = std::lower_bound(doors.begin(), doors.end(), d);
  INDOOR_CHECK(it != doors.end() && *it == d)
      << "door " << d << " does not touch partition " << v;
  const DoorLists* lists =
      door_lists_[v].lists.load(std::memory_order_acquire);
  if (lists == nullptr) lists = BuildDoorLists(v);
  return (*lists)[static_cast<size_t>(it - doors.begin())];
}

ObjectStore::DoorLists* ObjectStore::BuildDoorLists(PartitionId v) const {
  DoorListSlot& slot = door_lists_[v];
  const std::lock_guard<std::mutex> lock(slot.build_mu);
  if (DoorLists* built = slot.lists.load(std::memory_order_acquire)) {
    return built;  // a racing reader published first
  }
  const Partition& part = plan_->partition(v);
  const std::vector<DoorId>& doors = plan_->TouchingDoors(v);
  auto lists = std::make_unique<DoorLists>(doors.size());
  GeodesicScratch geo;
  for (size_t i = 0; i < doors.size(); ++i) {
    std::vector<DoorListEntry>& list = (*lists)[i];
    list.reserve(buckets_[v].size());
    buckets_[v].AppendAdmissionKeys(part, plan_->door(doors[i]).Midpoint(),
                                    &list, &geo);
    std::sort(list.begin(), list.end());
  }
  const uint64_t entries =
      static_cast<uint64_t>(doors.size()) * buckets_[v].size();
  door_list_entries_.v.fetch_add(entries, std::memory_order_relaxed);
  INDOOR_COUNTER_INC("index.door_list.builds");
  PublishDoorListBytes();
  slot.owned = std::move(lists);
  slot.lists.store(slot.owned.get(), std::memory_order_release);
  return slot.owned.get();
}

void ObjectStore::AddToDoorLists(PartitionId v, ObjectId id,
                                 const Point& position) {
  DoorLists* lists = door_lists_[v].lists.load(std::memory_order_acquire);
  if (lists == nullptr) return;  // built from the bucket on first read
  const Partition& part = plan_->partition(v);
  const std::vector<DoorId>& doors = plan_->TouchingDoors(v);
  for (size_t i = 0; i < doors.size(); ++i) {
    const DoorListEntry entry{
        buckets_[v].AdmissionKey(part, plan_->door(doors[i]).Midpoint(),
                                 position),
        id};
    std::vector<DoorListEntry>& list = (*lists)[i];
    list.insert(std::upper_bound(list.begin(), list.end(), entry), entry);
  }
  door_list_entries_.v.fetch_add(doors.size(), std::memory_order_relaxed);
  PublishDoorListBytes();
}

void ObjectStore::RemoveFromDoorLists(PartitionId v, ObjectId id) {
  DoorLists* lists = door_lists_[v].lists.load(std::memory_order_acquire);
  if (lists == nullptr) return;
  for (std::vector<DoorListEntry>& list : *lists) {
    const auto it =
        std::find_if(list.begin(), list.end(),
                     [id](const DoorListEntry& e) { return e.id == id; });
    INDOOR_CHECK(it != list.end())
        << "door list out of sync with bucket for object " << id;
    list.erase(it);
  }
  door_list_entries_.v.fetch_sub(lists->size(), std::memory_order_relaxed);
  PublishDoorListBytes();
}

bool ObjectStore::ChangedSince(PartitionId v, uint64_t since,
                               std::vector<ObjectId>* out) const {
  const uint64_t cur = epoch(v);
  if (cur == since) return true;
  if (cur < since || cur - since > kChangeJournalCapacity) return false;
  const size_t base = static_cast<size_t>(v) * kChangeJournalCapacity;
  for (uint64_t e = since + 1; e <= cur; ++e) {
    const PartitionChange& c =
        journal_[base + static_cast<size_t>(e % kChangeJournalCapacity)];
    if (c.epoch != e) return false;  // defensive: slot not from this window
    out->push_back(c.id);
  }
  return true;
}

Status ObjectStore::ApplyMoves(std::span<const MoveOp> moves,
                               size_t* applied) {
  const WallTimer timer;
  size_t done = 0;
  Status status = Status::OK();
  for (const MoveOp& op : moves) {
    status = MoveObject(op.id, op.partition, op.position);
    if (!status.ok()) break;
    ++done;
  }
  if (applied != nullptr) *applied = done;
  INDOOR_COUNTER_ADD("update.moves", done);
  INDOOR_COUNTER_INC("update.move_batches");
  INDOOR_HISTOGRAM_RECORD("update.batch_ms", timer.ElapsedMillis());
  return status;
}

}  // namespace indoor
