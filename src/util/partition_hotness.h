// Per-partition hotness: a lock-free visit/settle accumulator fed by the
// range/kNN door expansions and sampled by the flight recorder
// (util/timeseries.h).

#ifndef INDOOR_UTIL_PARTITION_HOTNESS_H_
#define INDOOR_UTIL_PARTITION_HOTNESS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace indoor {
namespace tseries {

/// Lock-free per-partition activity accumulator. One cell per partition:
/// `visits` counts door-expansion searches that reached the partition,
/// `settles` counts intra-partition object distance evaluations settled
/// there. Query paths stage (partition, settles) pairs in their
/// per-thread BucketScratch and flush once per query through
/// FlushVisits, so the hot loops never touch these atomics directly.
class PartitionHotness {
 public:
  PartitionHotness() = default;

  /// (Re)sizes to `slots` cells and zeroes them. Writer-side: must not
  /// overlap Record/Snapshot (call at build time, like index mutation).
  void Reset(size_t slots);

  /// Number of cells (0 until Reset).
  size_t slots() const { return slots_; }

  /// Adds activity to one cell (relaxed atomics; out-of-range slots are
  /// dropped rather than trusted).
  void Record(uint32_t slot, uint64_t visits, uint64_t settles);

  /// Drains a query's staged (partition, settles) pairs: coalesces
  /// duplicates, issues one Record per distinct partition, bumps the
  /// aggregate `partition.hot.*` counters, and clears the buffer.
  void FlushVisits(std::vector<std::pair<uint32_t, uint32_t>>* staged);

  /// One active cell in a snapshot or an interval delta.
  struct Entry {
    uint32_t slot = 0;
    uint64_t visits = 0;
    uint64_t settles = 0;
  };

  /// Every cell with nonzero activity, ascending by slot.
  std::vector<Entry> Snapshot() const;

 private:
  struct Cell {
    std::atomic<uint64_t> visits{0};
    std::atomic<uint64_t> settles{0};
  };
  std::unique_ptr<Cell[]> cells_;
  size_t slots_ = 0;
};

}  // namespace tseries
}  // namespace indoor

#endif  // INDOOR_UTIL_PARTITION_HOTNESS_H_
