// Span recorder of the traced benchmark run. Spans are recorded from the
// benchmark's own files around calls into the library's layers: each has a
// name, start, end, parent span and the stream index of the request it
// serves. Every thread writes only its own preallocated lane, so recording
// takes no lock and allocates nothing; the lanes are merged and written
// out after the run.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  /// Static string naming the layer call (e.g. "query.range").
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Index of the parent span within the same lane, or kNoParent.
  uint32_t parent = kNoParent;
  uint32_t lane = 0;
  /// Stream index of the request the span belongs to.
  uint64_t request = 0;
};

/// One thread's span buffer. Spans past the capacity are counted as
/// dropped rather than recorded.
class SpanLane {
 public:
  SpanLane(uint32_t lane, size_t capacity);

  /// Opens a span; returns its index (kNoParent when dropped).
  uint32_t Begin(const char* name, uint64_t request,
                 uint32_t parent = kNoParent);
  void End(uint32_t span);

  std::span<const Span> spans() const { return spans_; }
  uint64_t dropped() const { return dropped_; }

 private:
  uint32_t lane_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

/// RAII span on a lane; a null lane records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLane* lane, const char* name, uint64_t request,
             uint32_t parent = kNoParent)
      : lane_(lane),
        index_(lane != nullptr ? lane->Begin(name, request, parent)
                               : kNoParent) {}
  ~ScopedSpan() {
    if (lane_ != nullptr) lane_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint32_t index() const { return index_; }

 private:
  SpanLane* lane_;
  uint32_t index_;
};

/// Per span name: call count, total duration and self time (duration
/// minus the part covered by its child spans).
struct SelfTime {
  std::string name;
  uint64_t calls = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

/// Aggregates the spans of every lane, sorted by descending self time.
std::vector<SelfTime> SelfTimes(const std::vector<SpanLane>& lanes);

/// Writes every span as one tab-separated line: name, lane, span index,
/// parent index (-1 for a root), request, start and end in ns relative to
/// the earliest span.
bool WriteSpans(const std::string& path, const std::vector<SpanLane>& lanes);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
