// Continuous telemetry: the flight recorder.
//
// The metrics registry (util/metrics.h) answers "what has happened since
// the process started"; the query log (util/query_log.h) answers "what
// happened to one query". This header answers "what happened to the
// *service* over the last N seconds": a FlightRecorder samples the global
// registry on a background thread at a fixed interval, stores the
// RegistrySnapshot *delta* of each interval (so interval QPS, per-kind
// p50/p95/p99 from histogram-bucket subtraction, cache hit/repair rates,
// Dijkstra settle rates and ingest rates all fall out directly), keeps a
// fixed-size ring of the most recent intervals, and can dump the ring at
// any moment to a compact binary recording or a JSONL export. The SLO
// engine (util/slo.h) computes burn rates over the ring, and
// `indoor_tool dashboard` renders recordings to self-contained HTML
// (util/dashboard.h).
//
// The recorder also folds the per-interval delta of a PartitionHotness
// accumulator (util/partition_hotness.h) into each sample, which is what
// the cell-eviction policy of ROADMAP item 3 will consume.
//
// Metrics-OFF builds: the recording/reader/stat types are always
// compiled (tools must load and render recordings in either mode, like
// the registry report classes), but FlightRecorder::Start and the
// hotness recording hooks compile to an immediate "metrics disabled"
// error / nothing respectively — a -DINDOOR_METRICS=OFF serve path is
// bit-identical to the uninstrumented one and can never silently write
// an empty recording.

#ifndef INDOOR_UTIL_TIMESERIES_H_
#define INDOOR_UTIL_TIMESERIES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/metrics.h"
#include "util/partition_hotness.h"
#include "util/result.h"
#include "util/status.h"

namespace indoor {
namespace tseries {

// ---------------------------------------------------------------------------
// Recordings.

/// Per-partition activity during one interval (sparse: active cells only).
struct HotDelta {
  uint32_t slot = 0;
  uint64_t visits = 0;
  uint64_t settles = 0;
};

/// One flight-recorder interval: the registry *delta* over the interval
/// (HistogramSnapshot::Percentile on it reports interval quantiles) plus
/// the sparse hotness delta.
struct IntervalSample {
  /// Monotone interval number since Start (evictions leave gaps at the
  /// front, never in the middle).
  uint64_t index = 0;
  /// Interval start, microseconds since the recording started.
  uint64_t start_us = 0;
  /// Measured interval length (the sampler aims for the configured
  /// interval; the recorded truth is this).
  uint64_t duration_us = 0;
  /// Registry delta over the interval (counters/histograms subtract;
  /// gauges keep their end-of-interval value).
  metrics::RegistrySnapshot delta;
  /// Hotness delta over the interval, ascending by slot (may be
  /// truncated to the busiest cells; see FlightRecorderOptions).
  std::vector<HotDelta> hot;
};

/// A dumped (or loaded) flight recording.
struct Recording {
  /// Display label (readers set it to the file path; tools may override).
  std::string label;
  /// Flat "key=value" context lines (same convention as query-log
  /// captures: plan path, workload knobs).
  std::string context;
  /// Configured sampling interval.
  uint32_t interval_ms = 0;
  /// Ring contents in interval order.
  std::vector<IntervalSample> samples;
};

/// Derived per-interval service stats, shared by the SLO engine, the
/// dashboard, and `serve --report`.
struct IntervalStats {
  /// Interval length in seconds (0 when the sample is degenerate).
  double seconds = 0.0;
  /// Queries completed in the interval (sum over query.*.latency_ns).
  uint64_t queries = 0;
  /// queries / seconds.
  double qps = 0.0;
  /// Cross-query cache hit fraction over field+host+result lookups
  /// (0 when the interval made no lookups).
  double cache_hit_rate = 0.0;
  /// Cached-result repairs per second (cache.result.repairs).
  double repairs_per_sec = 0.0;
  /// Door-graph Dijkstra settles per second.
  double settles_per_sec = 0.0;
  /// Object moves ingested per second (update.moves).
  double moves_per_sec = 0.0;
};

/// The histogram named `name` in `snapshot`, or nullptr (sorted-name
/// binary search).
const metrics::HistogramSnapshot* FindHistogram(
    const metrics::RegistrySnapshot& snapshot, std::string_view name);

/// The counter named `name` in `snapshot`, or 0.
uint64_t CounterValue(const metrics::RegistrySnapshot& snapshot,
                      std::string_view name);

/// Derives IntervalStats from one sample's registry delta.
IntervalStats ComputeIntervalStats(const IntervalSample& sample);

/// Interval quantile of `query.<kind>.latency_ns` in nanoseconds
/// (0 when the kind recorded nothing in the interval).
double QueryPercentileNs(const IntervalSample& sample, std::string_view kind,
                         double q);

/// Query kinds (the `<kind>` of query.<kind>.latency_ns) with at least
/// one sample anywhere in the recording, in name order.
std::vector<std::string> ActiveQueryKinds(const Recording& recording);

// ---------------------------------------------------------------------------
// Recording files.

/// Magic + version of the binary recording format (header: magic,
/// version, interval_ms, sample count, context length; per sample: a
/// fixed header, the compact snapshot text of the delta — the query-log
/// trailer format — and the packed hot entries). Host-endian, like the
/// query-log capture format.
inline constexpr char kRecordingMagic[8] = {'I', 'N', 'D', 'O',
                                            'O', 'R', 'T', 'S'};
inline constexpr uint32_t kRecordingVersion = 1;

/// Writes `recording` to `path`: JSONL export when the path ends in
/// ".jsonl" (one meta line, then one self-contained JSON object per
/// interval with derived stats and interval percentiles), the binary
/// format otherwise.
Status WriteRecordingFile(const Recording& recording, const std::string& path);

/// Reads a binary recording (JSONL exports are one-way). Sets `label`
/// to `path`.
Result<Recording> ReadRecording(const std::string& path);

/// Appends one interval as a single JSON line (no trailing newline).
/// Every embedded string (context, instrument names) is JSON-escaped.
void AppendIntervalJson(std::string* out, const IntervalSample& sample);

// ---------------------------------------------------------------------------
// The flight recorder.

/// FlightRecorder configuration.
struct FlightRecorderOptions {
  /// Sampling interval. Every interval costs one registry snapshot plus
  /// one delta merge — at the default the recorder is cheap enough to
  /// leave always-on in serve (see docs/OBSERVABILITY.md).
  uint32_t interval_ms = 250;
  /// Ring capacity in intervals; the oldest interval is evicted when
  /// full (timeseries.evictions counts them).
  size_t ring_capacity = 1024;
  /// Optional hotness accumulator to fold into every sample (not owned;
  /// must outlive the recorder).
  const PartitionHotness* hotness = nullptr;
  /// At most this many hot cells per interval, keeping the busiest by
  /// visits (timeseries.hot_truncated counts dropped cells — truncation
  /// is never silent).
  size_t hot_slots_max = 512;
  /// Flat "key=value" context lines embedded in dumps.
  std::string context;
};

/// Samples the global MetricsRegistry on a background thread into a ring
/// of interval deltas. Start/Stop delimit one recording session and must
/// not run concurrently with each other; Snapshot/Dump are safe at any
/// moment, including while the sampler is mid-interval.
class FlightRecorder {
 public:
  FlightRecorder();
  ~FlightRecorder();  // stops a running session

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder (what `serve --record` uses).
  static FlightRecorder& Global();

  /// Starts sampling. Fails if already running, on a degenerate
  /// interval, and in metrics-OFF builds (FailedPrecondition: a build
  /// with -DINDOOR_METRICS=OFF has nothing to record, and silently
  /// writing empty recordings would masquerade as a healthy service).
  Status Start(const FlightRecorderOptions& options);

  /// Stops the sampler thread, folding the final partial interval into
  /// the ring. No-op when not running.
  void Stop();

  /// True between a successful Start and the matching Stop.
  bool running() const;

  /// A copy of the current ring (dump-while-sampling safe).
  Recording Snapshot() const;

  /// Dumps the current ring via WriteRecordingFile.
  Status Dump(const std::string& path) const;

  /// Intervals sampled this session (monotone; evicted intervals count).
  uint64_t intervals() const;

  /// Intervals evicted from the ring this session.
  uint64_t evictions() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace tseries
}  // namespace indoor

#endif  // INDOOR_UTIL_TIMESERIES_H_
