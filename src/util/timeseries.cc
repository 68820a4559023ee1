#include "util/timeseries.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "util/query_log.h"

namespace indoor {
namespace tseries {

// -------------------------------------------------------------- derived stats

const metrics::HistogramSnapshot* FindHistogram(
    const metrics::RegistrySnapshot& snapshot, std::string_view name) {
  const auto it = std::lower_bound(
      snapshot.histograms.begin(), snapshot.histograms.end(), name,
      [](const metrics::HistogramSnapshot& h, std::string_view n) {
        return h.name < n;
      });
  if (it == snapshot.histograms.end() || it->name != name) return nullptr;
  return &*it;
}

uint64_t CounterValue(const metrics::RegistrySnapshot& snapshot,
                      std::string_view name) {
  const auto it = std::lower_bound(
      snapshot.counters.begin(), snapshot.counters.end(), name,
      [](const std::pair<std::string, uint64_t>& c, std::string_view n) {
        return c.first < n;
      });
  if (it == snapshot.counters.end() || it->first != name) return 0;
  return it->second;
}

namespace {

constexpr std::string_view kQueryPrefix = "query.";
constexpr std::string_view kLatencySuffix = ".latency_ns";

bool IsQueryLatencyName(const std::string& name) {
  return name.size() > kQueryPrefix.size() + kLatencySuffix.size() &&
         name.compare(0, kQueryPrefix.size(), kQueryPrefix) == 0 &&
         name.compare(name.size() - kLatencySuffix.size(),
                      kLatencySuffix.size(), kLatencySuffix) == 0;
}

}  // namespace

IntervalStats ComputeIntervalStats(const IntervalSample& sample) {
  IntervalStats stats;
  stats.seconds = static_cast<double>(sample.duration_us) / 1e6;
  for (const metrics::HistogramSnapshot& h : sample.delta.histograms) {
    if (IsQueryLatencyName(h.name)) stats.queries += h.count;
  }
  uint64_t hits = 0;
  uint64_t lookups = 0;
  for (const char* cache : {"cache.field", "cache.host", "cache.result"}) {
    const uint64_t h = CounterValue(sample.delta, std::string(cache) + ".hits");
    hits += h;
    lookups += h + CounterValue(sample.delta, std::string(cache) + ".misses");
  }
  if (lookups != 0) {
    stats.cache_hit_rate =
        static_cast<double>(hits) / static_cast<double>(lookups);
  }
  if (stats.seconds > 0.0) {
    stats.qps = static_cast<double>(stats.queries) / stats.seconds;
    stats.repairs_per_sec =
        static_cast<double>(CounterValue(sample.delta, "cache.result.repairs")) /
        stats.seconds;
    stats.settles_per_sec =
        static_cast<double>(
            CounterValue(sample.delta, "distance.dijkstra.settles")) /
        stats.seconds;
    stats.moves_per_sec =
        static_cast<double>(CounterValue(sample.delta, "update.moves")) /
        stats.seconds;
  }
  return stats;
}

double QueryPercentileNs(const IntervalSample& sample, std::string_view kind,
                         double q) {
  std::string name;
  name.reserve(kQueryPrefix.size() + kind.size() + kLatencySuffix.size());
  name.append(kQueryPrefix).append(kind).append(kLatencySuffix);
  const metrics::HistogramSnapshot* h = FindHistogram(sample.delta, name);
  return h == nullptr ? 0.0 : h->Percentile(q);
}

std::vector<std::string> ActiveQueryKinds(const Recording& recording) {
  std::vector<std::string> kinds;
  for (const IntervalSample& sample : recording.samples) {
    for (const metrics::HistogramSnapshot& h : sample.delta.histograms) {
      if (h.count == 0 || !IsQueryLatencyName(h.name)) continue;
      kinds.push_back(h.name.substr(
          kQueryPrefix.size(),
          h.name.size() - kQueryPrefix.size() - kLatencySuffix.size()));
    }
  }
  std::sort(kinds.begin(), kinds.end());
  kinds.erase(std::unique(kinds.begin(), kinds.end()), kinds.end());
  return kinds;
}

// ------------------------------------------------------------ recording files

namespace {

struct RecordingHeader {
  char magic[8];
  uint32_t version;
  uint32_t interval_ms;
  uint64_t sample_count;
  uint32_t context_len;
  uint32_t reserved;
};
static_assert(sizeof(RecordingHeader) == 32, "recording header layout");

struct SampleHeader {
  uint64_t index;
  uint64_t start_us;
  uint64_t duration_us;
  uint32_t text_len;
  uint32_t hot_count;
};
static_assert(sizeof(SampleHeader) == 32, "recording sample layout");

struct HotRecord {
  uint64_t visits;
  uint64_t settles;
  uint32_t slot;
  uint32_t reserved;
};
static_assert(sizeof(HotRecord) == 24, "recording hot-entry layout");

bool EndsWith(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void AppendJsonNumber(std::string* out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out->append(buf);
}

Status WriteBinary(const Recording& recording, std::FILE* out) {
  RecordingHeader header{};
  std::memcpy(header.magic, kRecordingMagic, sizeof(header.magic));
  header.version = kRecordingVersion;
  header.interval_ms = recording.interval_ms;
  header.sample_count = recording.samples.size();
  header.context_len = static_cast<uint32_t>(recording.context.size());
  std::fwrite(&header, sizeof(header), 1, out);
  std::fwrite(recording.context.data(), 1, recording.context.size(), out);
  for (const IntervalSample& sample : recording.samples) {
    const std::string text = qlog::SerializeSnapshotText(sample.delta);
    SampleHeader sh{};
    sh.index = sample.index;
    sh.start_us = sample.start_us;
    sh.duration_us = sample.duration_us;
    sh.text_len = static_cast<uint32_t>(text.size());
    sh.hot_count = static_cast<uint32_t>(sample.hot.size());
    std::fwrite(&sh, sizeof(sh), 1, out);
    std::fwrite(text.data(), 1, text.size(), out);
    for (const HotDelta& hot : sample.hot) {
      HotRecord record{hot.visits, hot.settles, hot.slot, 0};
      std::fwrite(&record, sizeof(record), 1, out);
    }
  }
  return std::ferror(out) != 0 ? Status::IOError("recording write failed")
                               : Status::OK();
}

void WriteJsonl(const Recording& recording, std::FILE* out) {
  std::string line = "{\"recording\": {\"version\": " +
                     std::to_string(kRecordingVersion) +
                     ", \"interval_ms\": " +
                     std::to_string(recording.interval_ms) +
                     ", \"samples\": " +
                     std::to_string(recording.samples.size()) +
                     ", \"context\": \"";
  metrics::AppendJsonEscaped(&line, recording.context);
  line.append("\"}}\n");
  std::fwrite(line.data(), 1, line.size(), out);
  for (const IntervalSample& sample : recording.samples) {
    line.clear();
    AppendIntervalJson(&line, sample);
    line.push_back('\n');
    std::fwrite(line.data(), 1, line.size(), out);
  }
}

}  // namespace

void AppendIntervalJson(std::string* out, const IntervalSample& sample) {
  const IntervalStats stats = ComputeIntervalStats(sample);
  out->append("{\"interval\": " + std::to_string(sample.index));
  out->append(", \"start_us\": " + std::to_string(sample.start_us));
  out->append(", \"duration_us\": " + std::to_string(sample.duration_us));
  out->append(", \"queries\": " + std::to_string(stats.queries));
  out->append(", \"qps\": ");
  AppendJsonNumber(out, stats.qps);
  out->append(", \"cache_hit_rate\": ");
  AppendJsonNumber(out, stats.cache_hit_rate);
  out->append(", \"settles_per_sec\": ");
  AppendJsonNumber(out, stats.settles_per_sec);
  out->append(", \"moves_per_sec\": ");
  AppendJsonNumber(out, stats.moves_per_sec);
  out->append(", \"counters\": {");
  bool first = true;
  for (const auto& [name, value] : sample.delta.counters) {
    if (value == 0) continue;
    if (!first) out->append(", ");
    first = false;
    out->push_back('"');
    metrics::AppendJsonEscaped(out, name);
    out->append("\": " + std::to_string(value));
  }
  out->append("}, \"gauges\": {");
  first = true;
  for (const auto& [name, value] : sample.delta.gauges) {
    if (value == 0.0) continue;
    if (!first) out->append(", ");
    first = false;
    out->push_back('"');
    metrics::AppendJsonEscaped(out, name);
    out->append("\": ");
    AppendJsonNumber(out, value);
  }
  out->append("}, \"histograms\": {");
  first = true;
  for (const metrics::HistogramSnapshot& h : sample.delta.histograms) {
    if (h.count == 0) continue;
    if (!first) out->append(", ");
    first = false;
    out->push_back('"');
    metrics::AppendJsonEscaped(out, h.name);
    out->append("\": {\"count\": " + std::to_string(h.count) +
                ", \"sum\": " + std::to_string(h.sum) +
                ", \"max\": " + std::to_string(h.max) + ", \"p50\": ");
    AppendJsonNumber(out, h.Percentile(0.50));
    out->append(", \"p95\": ");
    AppendJsonNumber(out, h.Percentile(0.95));
    out->append(", \"p99\": ");
    AppendJsonNumber(out, h.Percentile(0.99));
    out->push_back('}');
  }
  out->append("}, \"hot\": [");
  first = true;
  for (const HotDelta& hot : sample.hot) {
    if (!first) out->append(", ");
    first = false;
    out->append("[" + std::to_string(hot.slot) + ", " +
                std::to_string(hot.visits) + ", " +
                std::to_string(hot.settles) + "]");
  }
  out->append("]}");
}

Status WriteRecordingFile(const Recording& recording,
                          const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  if (out == nullptr) {
    return Status::IOError("cannot open recording '" + path + "'");
  }
  Status status = Status::OK();
  if (EndsWith(path, ".jsonl")) {
    WriteJsonl(recording, out);
    if (std::ferror(out) != 0) status = Status::IOError("recording write failed");
  } else {
    status = WriteBinary(recording, out);
  }
  std::fclose(out);
  return status;
}

Result<Recording> ReadRecording(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    return Status::IOError("cannot open recording '" + path + "'");
  }
  const auto fail = [&](const std::string& message) -> Status {
    std::fclose(in);
    return Status::InvalidArgument("recording '" + path + "': " + message);
  };
  RecordingHeader header{};
  if (std::fread(&header, sizeof(header), 1, in) != 1) {
    return fail("truncated header");
  }
  if (std::memcmp(header.magic, kRecordingMagic, sizeof(header.magic)) != 0) {
    return fail("bad magic (not a binary flight recording; note that .jsonl "
                "exports are one-way)");
  }
  if (header.version != kRecordingVersion) {
    return fail("unsupported version " + std::to_string(header.version));
  }
  Recording recording;
  recording.label = path;
  recording.interval_ms = header.interval_ms;
  recording.context.resize(header.context_len);
  if (header.context_len != 0 &&
      std::fread(recording.context.data(), 1, header.context_len, in) !=
          header.context_len) {
    return fail("truncated context");
  }
  recording.samples.reserve(header.sample_count);
  for (uint64_t i = 0; i < header.sample_count; ++i) {
    SampleHeader sh{};
    if (std::fread(&sh, sizeof(sh), 1, in) != 1) {
      return fail("truncated sample header");
    }
    IntervalSample sample;
    sample.index = sh.index;
    sample.start_us = sh.start_us;
    sample.duration_us = sh.duration_us;
    std::string text(sh.text_len, '\0');
    if (sh.text_len != 0 &&
        std::fread(text.data(), 1, sh.text_len, in) != sh.text_len) {
      return fail("truncated sample snapshot");
    }
    sample.delta = qlog::ParseSnapshotText(text);
    sample.hot.reserve(sh.hot_count);
    for (uint32_t j = 0; j < sh.hot_count; ++j) {
      HotRecord record{};
      if (std::fread(&record, sizeof(record), 1, in) != 1) {
        return fail("truncated hot entries");
      }
      sample.hot.push_back({record.slot, record.visits, record.settles});
    }
    recording.samples.push_back(std::move(sample));
  }
  std::fclose(in);
  return recording;
}

// ------------------------------------------------------------- FlightRecorder

struct FlightRecorder::Impl {
  mutable std::mutex mu;  // guards the ring and the session flags
  std::condition_variable cv;
  std::thread sampler;
  bool running = false;
  bool stop = false;
  FlightRecorderOptions options;
  std::deque<IntervalSample> ring;
  std::atomic<uint64_t> next_index{0};
  std::atomic<uint64_t> evictions{0};

  // Sampler-thread state: written only between Start and the join in
  // Stop, so it needs no lock.
  metrics::RegistrySnapshot prev;
  std::vector<PartitionHotness::Entry> prev_hot;
  std::chrono::steady_clock::time_point origin;
  std::chrono::steady_clock::time_point last;

  /// prev -> now hotness delta, ascending by slot (both inputs are
  /// ascending). A cell that shrank (accumulator Reset mid-run) reports
  /// its current value, mirroring the counter-restart rule of
  /// RegistrySnapshot::DeltaSince.
  std::vector<HotDelta> DiffHot(
      const std::vector<PartitionHotness::Entry>& now) const {
    std::vector<HotDelta> delta;
    size_t j = 0;
    for (const PartitionHotness::Entry& entry : now) {
      while (j < prev_hot.size() && prev_hot[j].slot < entry.slot) ++j;
      uint64_t visits = entry.visits;
      uint64_t settles = entry.settles;
      if (j < prev_hot.size() && prev_hot[j].slot == entry.slot &&
          prev_hot[j].visits <= entry.visits) {
        visits -= prev_hot[j].visits;
        settles -= std::min(prev_hot[j].settles, settles);
      }
      if (visits == 0 && settles == 0) continue;
      delta.push_back({entry.slot, visits, settles});
    }
    if (delta.size() > options.hot_slots_max) {
      // Keep the busiest cells; count what falls off so truncation is
      // visible in the registry rather than silent.
      std::nth_element(delta.begin(), delta.begin() + options.hot_slots_max,
                       delta.end(), [](const HotDelta& a, const HotDelta& b) {
                         return a.visits > b.visits;
                       });
      INDOOR_COUNTER_ADD("timeseries.hot_truncated",
                         delta.size() - options.hot_slots_max);
      delta.resize(options.hot_slots_max);
      std::sort(delta.begin(), delta.end(),
                [](const HotDelta& a, const HotDelta& b) {
                  return a.slot < b.slot;
                });
    }
    return delta;
  }

  void TakeSample() {
    const auto now = std::chrono::steady_clock::now();
    const uint64_t duration_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - last)
            .count());
    if (duration_us == 0) return;  // degenerate interval: nothing to attribute
    metrics::RegistrySnapshot snap = metrics::MetricsRegistry::Global().Snapshot();
    std::vector<PartitionHotness::Entry> hot_now;
    if (options.hotness != nullptr) hot_now = options.hotness->Snapshot();
    IntervalSample sample;
    sample.index = next_index.fetch_add(1, std::memory_order_relaxed);
    sample.start_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(last - origin)
            .count());
    sample.duration_us = duration_us;
    sample.delta = snap.DeltaSince(prev);
    sample.hot = DiffHot(hot_now);
    INDOOR_GAUGE_SET("partition.hot.active", sample.hot.size());
    {
      std::lock_guard<std::mutex> lock(mu);
      ring.push_back(std::move(sample));
      while (ring.size() > options.ring_capacity) {
        ring.pop_front();
        evictions.fetch_add(1, std::memory_order_relaxed);
        INDOOR_COUNTER_INC("timeseries.evictions");
      }
    }
    prev = std::move(snap);
    prev_hot = std::move(hot_now);
    last = now;
    INDOOR_COUNTER_INC("timeseries.intervals");
  }

  void Loop() {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      cv.wait_for(lock, std::chrono::milliseconds(options.interval_ms),
                  [&] { return stop; });
      if (stop) break;
      lock.unlock();
      TakeSample();
      lock.lock();
    }
    lock.unlock();
    TakeSample();  // the final partial interval
  }
};

FlightRecorder::FlightRecorder() : impl_(new Impl()) {}

FlightRecorder::~FlightRecorder() {
  Stop();
  delete impl_;
}

FlightRecorder& FlightRecorder::Global() {
  // Leaked like the registry: serve paths may dump during teardown.
  static FlightRecorder* global = new FlightRecorder();
  return *global;
}

Status FlightRecorder::Start(const FlightRecorderOptions& options) {
#ifndef INDOOR_METRICS_ENABLED
  (void)options;
  return Status::FailedPrecondition(
      "flight recorder unavailable: metrics disabled in this build "
      "(-DINDOOR_METRICS=OFF); a recording would be empty");
#else
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  if (im.running) {
    return Status::FailedPrecondition("flight recorder already running");
  }
  if (options.interval_ms == 0) {
    return Status::InvalidArgument("recording interval must be > 0 ms");
  }
  if (options.ring_capacity == 0) {
    return Status::InvalidArgument("recording ring capacity must be > 0");
  }
  im.options = options;
  im.ring.clear();
  im.next_index.store(0, std::memory_order_relaxed);
  im.evictions.store(0, std::memory_order_relaxed);
  im.stop = false;
  im.origin = im.last = std::chrono::steady_clock::now();
  im.prev = metrics::MetricsRegistry::Global().Snapshot();
  im.prev_hot.clear();
  if (options.hotness != nullptr) im.prev_hot = options.hotness->Snapshot();
  im.running = true;
  INDOOR_GAUGE_SET("timeseries.interval_ms", options.interval_ms);
  im.sampler = std::thread([this] { impl_->Loop(); });
  return Status::OK();
#endif
}

void FlightRecorder::Stop() {
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    if (!im.running) return;
    im.stop = true;
  }
  im.cv.notify_all();
  im.sampler.join();
  std::lock_guard<std::mutex> lock(im.mu);
  im.running = false;
}

bool FlightRecorder::running() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->running;
}

Recording FlightRecorder::Snapshot() const {
  Impl& im = *impl_;
  Recording recording;
  std::lock_guard<std::mutex> lock(im.mu);
  recording.context = im.options.context;
  recording.interval_ms = im.options.interval_ms;
  recording.samples.assign(im.ring.begin(), im.ring.end());
  return recording;
}

Status FlightRecorder::Dump(const std::string& path) const {
  const Status status = WriteRecordingFile(Snapshot(), path);
  if (status.ok()) INDOOR_COUNTER_INC("timeseries.dumps");
  return status;
}

uint64_t FlightRecorder::intervals() const {
  return impl_->next_index.load(std::memory_order_relaxed);
}

uint64_t FlightRecorder::evictions() const {
  return impl_->evictions.load(std::memory_order_relaxed);
}

}  // namespace tseries
}  // namespace indoor
