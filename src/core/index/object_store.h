// Indoor objects (POIs, tracked people, ...) bucketed per partition with a
// grid sub-bucket index (paper §IV-B). Objects can move between partitions
// (moving populations) via MoveObject.

#ifndef INDOOR_CORE_INDEX_OBJECT_STORE_H_
#define INDOOR_CORE_INDEX_OBJECT_STORE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/index/grid_index.h"
#include "indoor/floor_plan.h"
#include "util/metrics.h"
#include "util/result.h"

namespace indoor {

/// An indoor spatial object: a position inside a known host partition.
struct IndoorObject {
  ObjectId id = kInvalidId;
  PartitionId partition = kInvalidId;
  Point position;
};

/// One relocation request: move `id` to `position` inside `partition`.
/// The wire shape matches MoveObject's arguments so a batch of MoveOps is
/// exactly a recorded sequence of MoveObject calls.
struct MoveOp {
  ObjectId id = kInvalidId;
  PartitionId partition = kInvalidId;
  Point position;
};

/// Owns all objects, the per-partition grid buckets and the door lists.
/// The plan must outlive the store.
///
/// Door lists: for every door d touching a partition v, the objects of v
/// sorted by their admission key from d's midpoint (GridBucket::
/// AdmissionKey), so Algorithm 5's side search RangeSearch(v, d, r2) is
/// the list prefix with key <= r2. A partition's lists are built on the
/// first DoorList read and kept current in place by every later write.
/// Like the buckets they are object state, outside IndexMemoryBytes.
///
/// Thread-safety: the const read surface (object, size, objects, bucket,
/// epoch, DoorList, DoorListBytes) is safe for concurrent readers. The
/// first DoorList read of a partition builds its lists under a
/// per-partition mutex and publishes them with a release store; readers
/// racing on that build all get the one published copy. Insert/MoveObject/
/// ApplyMoves mutate the object table, buckets and built lists; callers
/// must serialize them externally and keep them from overlapping readers
/// (single-writer / multi-reader with an external barrier — the library
/// adds no per-query locking on purpose).
///
/// Epochs: every partition carries a monotonically increasing *object
/// epoch* that is bumped whenever that partition's object population
/// changes (Insert into it, or an object moving in or out). Epochs version
/// only object-dependent state — geometry (distance fields, host-partition
/// lookups) never changes and is never versioned. Consumers such as the
/// query cache snapshot `(partition, epoch)` pairs when deriving an
/// object-dependent result and lazily reject the entry at lookup when any
/// recorded epoch no longer matches, so writes need no locked cache sweep.
/// Epoch values are opaque version numbers: only equality is meaningful.
///
/// Change journal: alongside the epoch, each partition keeps the ids
/// behind its last kChangeJournalCapacity bumps in a fixed ring.
/// ChangedSince(v, e) recovers exactly which objects account for the
/// epoch delta (e, epoch(v)] — the query cache uses this to *repair* a
/// stale cached result by re-testing only the objects that moved, instead
/// of rejecting it outright. A delta older than the ring is reported as
/// uncoverable and the consumer falls back to a full reject.
class ObjectStore {
 public:
  /// `grid_cell_size` configures every partition's grid (paper §V-B leaves
  /// the configuration open; the ablation bench sweeps it).
  explicit ObjectStore(const FloorPlan& plan, double grid_cell_size = 2.0);

  /// Adds an object, assigning the next dense id. The position must lie in
  /// the free space of `partition`.
  Result<ObjectId> Insert(PartitionId partition, const Point& position);

  /// Relocates an object (possibly across partitions).
  Status MoveObject(ObjectId id, PartitionId partition,
                    const Point& position);

  /// Applies a batch of moves in submission order, equivalent to calling
  /// MoveObject for each op and stopping at the first failure: ops before
  /// the failing one stay applied, ops after it are not attempted, and the
  /// failing op's status is returned. `applied` (optional) receives the
  /// number of ops applied, == moves.size() on success. This is the
  /// batched update-ingest entry point: it publishes one `update.batch_ms`
  /// observation per call and `update.moves` per applied op.
  Status ApplyMoves(std::span<const MoveOp> moves,
                    size_t* applied = nullptr);

  /// Current object epoch of `v` (relaxed load; see class comment).
  uint64_t epoch(PartitionId v) const {
    INDOOR_CHECK(v < epochs_.size());
    return epochs_[v].load(std::memory_order_relaxed);
  }

  /// Store-wide object epoch: bumped alongside every per-partition bump,
  /// so whole-store consumers (the approximate-kNN embeddings) get an O(1)
  /// freshness check instead of scanning every partition epoch. Opaque
  /// like the per-partition epochs: only equality is meaningful.
  uint64_t global_epoch() const {
    return global_epoch_.v.load(std::memory_order_relaxed);
  }

  /// Ring capacity of each partition's change journal.
  static constexpr size_t kChangeJournalCapacity = 128;

  /// Appends to `out` the id recorded for every epoch in (since, epoch(v)]
  /// — the objects whose membership in `v` changed since `since` — and
  /// returns true. Returns false (appending nothing reliable) when the
  /// delta exceeds the journal ring, i.e. the window is no longer
  /// coverable. The same id may appear multiple times; `since` must be a
  /// snapshot previously read from epoch(v). Reader-safe under the same
  /// external single-writer barrier as the rest of the const surface.
  bool ChangedSince(PartitionId v, uint64_t since,
                    std::vector<ObjectId>* out) const;

  /// The object with dense id `id` (checked).
  const IndoorObject& object(ObjectId id) const {
    INDOOR_CHECK(id < objects_.size());
    return objects_[id];
  }

  /// Number of stored objects (ids are dense in [0, size())).
  size_t size() const { return objects_.size(); }

  /// All objects, indexed by id.
  const std::vector<IndoorObject>& objects() const { return objects_; }

  /// The grid bucket holding partition `v`'s objects.
  const GridBucket& bucket(PartitionId v) const {
    INDOOR_CHECK(v < buckets_.size());
    return buckets_[v];
  }

  /// The door list of (partition v, door d touching v): v's objects with
  /// their admission keys from d's midpoint, ascending by (key, id). Builds
  /// v's lists on first use (see class comment). The span stays valid
  /// until the next write.
  std::span<const DoorListEntry> DoorList(PartitionId v, DoorId d) const;

  /// Bytes held by the entries of every built door list.
  size_t DoorListBytes() const {
    return door_list_entries_.v.load(std::memory_order_relaxed) *
           sizeof(DoorListEntry);
  }

  /// Grid cell edge length (meters) every bucket was built with.
  double grid_cell_size() const { return grid_cell_size_; }

  /// The plan this store was built against.
  const FloorPlan& plan() const { return *plan_; }

 private:
  /// One journal slot: the object behind one epoch bump.
  struct PartitionChange {
    uint64_t epoch = 0;  // 0 = never written (real epochs start at 1)
    ObjectId id = kInvalidId;
  };

  /// Movable relaxed atomic counter (a bare std::atomic member would
  /// delete the store's implicit moves).
  struct RelaxedCounter {
    std::atomic<uint64_t> v{0};
    RelaxedCounter() = default;
    RelaxedCounter(RelaxedCounter&& o) noexcept
        : v(o.v.load(std::memory_order_relaxed)) {}
    RelaxedCounter& operator=(RelaxedCounter&& o) noexcept {
      v.store(o.v.load(std::memory_order_relaxed), std::memory_order_relaxed);
      return *this;
    }
  };

  /// One list per TouchingDoors(v) entry, in the same order.
  using DoorLists = std::vector<std::vector<DoorListEntry>>;

  /// A partition's lazily built door lists.
  struct DoorListSlot {
    std::mutex build_mu;
    std::unique_ptr<DoorLists> owned;        // set once, under build_mu
    std::atomic<DoorLists*> lists{nullptr};  // owned.get(), once published
  };

  /// Builds and publishes partition v's lists unless a racing reader
  /// already did; returns the published lists.
  DoorLists* BuildDoorLists(PartitionId v) const;

  /// Writer-side upkeep of v's lists, if built: add or drop one object.
  void AddToDoorLists(PartitionId v, ObjectId id, const Point& position);
  void RemoveFromDoorLists(PartitionId v, ObjectId id);

  void PublishDoorListBytes() const {
    INDOOR_GAUGE_SET("index.door_list.bytes",
                     static_cast<double>(DoorListBytes()));
  }

  void BumpEpoch(PartitionId v, ObjectId id) {
    const uint64_t e = epochs_[v].fetch_add(1, std::memory_order_relaxed) + 1;
    journal_[static_cast<size_t>(v) * kChangeJournalCapacity +
             static_cast<size_t>(e % kChangeJournalCapacity)] = {e, id};
    global_epoch_.v.fetch_add(1, std::memory_order_relaxed);
  }

  const FloorPlan* plan_;
  double grid_cell_size_;
  std::vector<IndoorObject> objects_;
  std::vector<GridBucket> buckets_;        // one per partition
  std::vector<std::atomic<uint64_t>> epochs_;  // one per partition
  // Flat per-partition rings of the ids behind recent epoch bumps; slot of
  // epoch e in partition v is [v * cap + e % cap] (consecutive epochs land
  // in distinct slots, so a coverable window is always intact).
  std::vector<PartitionChange> journal_;
  RelaxedCounter global_epoch_;
  std::unique_ptr<DoorListSlot[]> door_lists_;  // one per partition
  mutable RelaxedCounter door_list_entries_;
};

}  // namespace indoor

#endif  // INDOOR_CORE_INDEX_OBJECT_STORE_H_
