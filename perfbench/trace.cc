#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

SpanLane::SpanLane(uint32_t lane, size_t capacity) : lane_(lane) {
  spans_.reserve(capacity);
}

uint32_t SpanLane::Begin(const char* name, uint64_t request,
                         uint32_t parent) {
  if (spans_.size() == spans_.capacity() || spans_.size() >= kNoParent) {
    ++dropped_;
    return kNoParent;
  }
  Span span;
  span.name = name;
  span.parent = parent;
  span.lane = lane_;
  span.request = request;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<uint32_t>(spans_.size() - 1);
}

void SpanLane::End(uint32_t span) {
  if (span == kNoParent) return;
  spans_[span].end_ns = NowNs();
}

std::vector<SelfTime> SelfTimes(const std::vector<SpanLane>& lanes) {
  std::map<std::string, SelfTime> by_name;
  for (const SpanLane& lane : lanes) {
    const std::span<const Span> spans = lane.spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent != kNoParent && span.parent < spans.size()) {
        child_ns[span.parent] +=
            static_cast<double>(span.end_ns - span.start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const double total =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      SelfTime& entry = by_name[spans[i].name];
      entry.name = spans[i].name;
      ++entry.calls;
      entry.total_ns += total;
      entry.self_ns += std::max(0.0, total - child_ns[i]);
    }
  }
  std::vector<SelfTime> out;
  for (auto& [name, entry] : by_name) out.push_back(entry);
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_ns > b.self_ns;
  });
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<SpanLane>& lanes) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  uint64_t origin = UINT64_MAX;
  for (const SpanLane& lane : lanes) {
    for (const Span& span : lane.spans()) {
      origin = std::min(origin, span.start_ns);
    }
  }
  std::fprintf(f, "name\tlane\tspan\tparent\trequest\tstart_ns\tend_ns\n");
  for (const SpanLane& lane : lanes) {
    const std::span<const Span> spans = lane.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      std::fprintf(f, "%s\t%u\t%zu\t%lld\t%llu\t%llu\t%llu\n", span.name,
                   span.lane, i,
                   span.parent == kNoParent
                       ? -1LL
                       : static_cast<long long>(span.parent),
                   static_cast<unsigned long long>(span.request),
                   static_cast<unsigned long long>(span.start_ns - origin),
                   static_cast<unsigned long long>(span.end_ns - origin));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
