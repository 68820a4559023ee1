#include "util/partition_hotness.h"

#include <algorithm>

#include "util/metrics.h"

namespace indoor {
namespace tseries {

void PartitionHotness::Reset(size_t slots) {
  slots_ = slots;
  cells_ = slots == 0 ? nullptr : std::make_unique<Cell[]>(slots);
}

void PartitionHotness::Record(uint32_t slot, uint64_t visits,
                              uint64_t settles) {
  if (slot >= slots_) return;
  Cell& cell = cells_[slot];
  if (visits != 0) cell.visits.fetch_add(visits, std::memory_order_relaxed);
  if (settles != 0) cell.settles.fetch_add(settles, std::memory_order_relaxed);
}

void PartitionHotness::FlushVisits(
    std::vector<std::pair<uint32_t, uint32_t>>* staged) {
  if (staged->empty()) return;
  std::sort(staged->begin(), staged->end());
  uint64_t total_visits = 0;
  uint64_t total_settles = 0;
  size_t i = 0;
  while (i < staged->size()) {
    const uint32_t slot = (*staged)[i].first;
    uint64_t visits = 0;
    uint64_t settles = 0;
    for (; i < staged->size() && (*staged)[i].first == slot; ++i) {
      ++visits;
      settles += (*staged)[i].second;
    }
    Record(slot, visits, settles);
    total_visits += visits;
    total_settles += settles;
  }
  INDOOR_COUNTER_ADD("partition.hot.visits", total_visits);
  INDOOR_COUNTER_ADD("partition.hot.settles", total_settles);
  staged->clear();
}

std::vector<PartitionHotness::Entry> PartitionHotness::Snapshot() const {
  std::vector<Entry> entries;
  for (size_t slot = 0; slot < slots_; ++slot) {
    const uint64_t visits = cells_[slot].visits.load(std::memory_order_relaxed);
    const uint64_t settles =
        cells_[slot].settles.load(std::memory_order_relaxed);
    if (visits == 0 && settles == 0) continue;
    entries.push_back({static_cast<uint32_t>(slot), visits, settles});
  }
  return entries;
}

}  // namespace tseries
}  // namespace indoor
