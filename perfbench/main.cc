// The repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR]
//
// Builds the workload's plan and objects from the seed, wakes the cores,
// sets the index up several times (reporting the median as setup_s), and
// serves the workload's request stream for S seconds, split over three
// trials on freshly built indexes. Reads are a closed loop of four reader
// threads, each owning a QueryScratch; moving_objects instead runs one
// BatchExecutor with move batches between query batches. Answers are
// checked outside the timed windows and the result is printed as one JSON
// line.
//
// --trace 0 reports the end-to-end metrics. --trace 1 is the separate
// traced run: it serves an untraced, a traced and another untraced window,
// with one span per layer call in the traced one, times each layer's
// public functions on the workload's own inputs, reads registry counter
// deltas around them, and reports the per-layer metrics plus a self-time
// table; the spans are written to DIR/trace_<workload>_<seed>.tsv.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/distance/hierarchy_distance.h"
#include "core/distance/matrix_distance.h"
#include "core/query/query_cache.h"
#include "oracle.h"
#include "trace.h"
#include "util/metrics.h"
#include "workload.h"

using namespace indoor;
using namespace perfbench;

namespace {

constexpr unsigned kReaders = 4;
/// Each trial sets the index up at least this many times and for at least
/// kSetupSeconds; setup_s is the median over all trials, so the set-ups
/// are spread over the run like the serving windows.
constexpr int kSetupRepeats = 5;
constexpr double kSetupSeconds = 0.4;
/// Seconds of untimed serving before a timed window: code, scratches,
/// allocator and cache reach steady state.
constexpr double kWarmupSeconds = 2.0;
/// Timed windows are split into this many sub-windows; qps is their median,
/// which a burst of host steal (time the hypervisor gives this machine's
/// cores to others) moves less than it moves a mean.
constexpr int kSubWindows = 30;
/// The timed window is split over this many fresh indexes: with the query
/// cache on, a run's speed depends on how its cache filled, so each trial
/// builds, warms and serves its own index and the metrics pool all trials.
constexpr int kTrials = 3;
/// Latency samples kept per reader and kind; longer windows decimate.
constexpr size_t kLatencyCap = size_t{1} << 19;
/// Oracle budget: sampled answers checked per run.
constexpr size_t kMaxSamples = 1536;
/// Executor batch size of the traced run's tail on the reader workloads.
constexpr size_t kTailBatchSize = 128;
/// Batches of each moving_objects trial recomputed by the cache-off replay.
constexpr size_t kReplayBatches = 160;
constexpr size_t kSpanCap = size_t{1} << 17;

const char* const kKindNames[3] = {"pt2pt", "range", "knn"};

int KindIndex(QueryRequest::Kind kind) {
  switch (kind) {
    case QueryRequest::Kind::kDistance:
      return 0;
    case QueryRequest::Kind::kRange:
      return 1;
    case QueryRequest::Kind::kKnn:
      return 2;
  }
  return 0;
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Steal and total jiffies of all CPUs (/proc/stat); zeros when absent.
/// Steal is time the hypervisor ran something else on this machine's
/// cores: the report prints its share of the timed window, the first thing
/// to look at when a run reads slower than its neighbours.
std::pair<double, double> CpuJiffies() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0.0, 0.0};
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return {0.0, 0.0};
  double total = 0;
  for (unsigned long long x : v) total += static_cast<double>(x);
  return {static_cast<double>(v[7]), total};
}

/// Keeps every core busy for `seconds`. On a virtual machine whose cores
/// were idle before the run, the first second or so of parallel work runs
/// at a fraction of full speed; set-up and serving are timed only after it.
void SpinUpCores(double seconds) {
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kReaders; ++t) {
    threads.emplace_back([seconds] {
      const uint64_t start = NowNs();
      volatile uint64_t x = 0;
      while (SecondsSince(start) < seconds) {
        for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ull + i;
      }
    });
  }
  for (std::thread& th : threads) th.join();
}

uint64_t CounterValue(const metrics::RegistrySnapshot& snap,
                      const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

const metrics::HistogramSnapshot* FindHistogram(
    const metrics::RegistrySnapshot& snap, const std::string& name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Registry counter deltas between two snapshots.
struct Delta {
  metrics::RegistrySnapshot before, after;

  static metrics::RegistrySnapshot Take() {
    return metrics::MetricsRegistry::Global().Snapshot();
  }
  double Counter(const std::string& name) const {
    return static_cast<double>(CounterValue(after, name) -
                               CounterValue(before, name));
  }
  /// (count delta, sum delta) of one histogram.
  std::pair<double, double> Histogram(const std::string& name) const {
    const auto* a = FindHistogram(after, name);
    if (a == nullptr) return {0.0, 0.0};
    const auto* b = FindHistogram(before, name);
    const double count = static_cast<double>(a->count - (b ? b->count : 0));
    const double sum = static_cast<double>(a->sum - (b ? b->sum : 0));
    return {count, sum};
  }
  double HistogramRecords() const {
    double total = 0;
    for (const auto& h : after.histograms) total += Histogram(h.name).first;
    return total;
  }
};

struct CacheTotals {
  CacheStats field, host, result;
  uint64_t repairs = 0, rejects = 0;

  static CacheTotals Of(const QueryCache* cache) {
    CacheTotals t;
    if (cache == nullptr) return t;
    t.field = cache->FieldStats();
    t.host = cache->HostStats();
    t.result = cache->ResultStats();
    t.repairs = cache->Repairs();
    t.rejects = cache->EpochRejects();
    return t;
  }
};

double HitRatio(const CacheStats& a, const CacheStats& b) {
  const double hits = static_cast<double>(b.hits - a.hits);
  const double misses = static_cast<double>(b.misses - a.misses);
  return Ratio(hits, hits + misses);
}

/// Everything one run measures, printed as the result line.
struct Report {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  uint64_t attempted = 0;
  uint64_t errors = 0;
  OracleReport oracle;
  bool unresolved = false;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Prints a latency percentile with its sample count and, when
  /// `in_result`, adds it to the result; an unresolved p99 is flagged
  /// instead (and then no result is reported).
  void AddPercentile(const std::string& name, std::vector<double>* samples,
                     double q, const std::string& unit, bool in_result) {
    const Percentile p = ExactPercentile(*samples, q);
    if (!p.resolved) {
      std::printf("  %-28s UNRESOLVED: %zu samples, %zu beyond the rank\n",
                  name.c_str(), p.count, p.beyond);
      unresolved = unresolved || in_result;
      return;
    }
    std::printf("  %-28s %14.4f %-9s (n=%zu)%s\n", name.c_str(), p.value,
                unit.c_str(), p.count, in_result ? "" : " [report only]");
    if (in_result) Add(name, p.value, unit);
  }
};

void PrintResult(const Report& report) {
  const uint64_t failed = report.errors + report.oracle.wrong;
  const bool correct = failed == 0 && !report.unresolved;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, vu] : report.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

/// One reader thread's private state. Latency buffers are reserved before
/// the window so the timed loop never allocates for them.
struct alignas(64) Reader {
  QueryScratch scratch;
  QueryResult result;
  std::vector<uint32_t> latency_ns[3];
  uint64_t kind_calls[3] = {0, 0, 0};
  std::vector<SampledResult> samples;
  std::atomic<uint64_t> completed{0};
  /// Set by the reader once its span lane has dropped a span.
  std::atomic<bool> lane_full{false};
  SpanLane* lane = nullptr;
};

struct ReaderConfig {
  uint64_t domain = 0;           // stream index offset
  uint64_t latency_stride = 1;   // record every n-th call per kind
  uint64_t sample_stride = 0;    // 0 = take no oracle samples
  bool trace = false;
};

/// The closed loop of kReaders reader threads over one index.
class ReaderPool {
 public:
  ReaderPool(const IndexFramework& index, const RequestStream& stream)
      : index_(index), stream_(stream), readers_(kReaders) {}

  void PrepareBuffers(bool latency) {
    for (Reader& r : readers_) {
      if (latency) {
        for (auto& buf : r.latency_ns) buf.reserve(kLatencyCap);
      }
      r.samples.reserve(kMaxSamples / kReaders + 1);
    }
  }
  /// Gives reader t the span lane lanes[t].
  void AttachLanes(std::vector<SpanLane>* lanes) {
    for (unsigned t = 0; t < kReaders; ++t) readers_[t].lane = &(*lanes)[t];
  }

  /// Runs the loop for `seconds`, split into `windows` equal sub-windows;
  /// returns the per-sub-window rates (queries/s). A traced run stops
  /// early when a span lane fills up.
  std::vector<double> Run(const ReaderConfig& config, double seconds,
                          int windows) {
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> next{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kReaders; ++t) {
      readers_[t].completed.store(0);
      threads.emplace_back([&, t] { Loop(&readers_[t], config, &next, &stop); });
    }
    std::vector<double> rates;
    uint64_t last_count = 0;
    uint64_t last_ns = NowNs();
    for (int w = 0; w < windows; ++w) {
      const uint64_t until =
          last_ns + static_cast<uint64_t>(seconds / windows * 1e9);
      while (NowNs() < until && !(config.trace && LaneFull())) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      const uint64_t now = NowNs();
      const uint64_t count = Completed();
      rates.push_back(static_cast<double>(count - last_count) /
                      (static_cast<double>(now - last_ns) / 1e9));
      last_count = count;
      last_ns = now;
      if (config.trace && LaneFull()) break;
    }
    stop.store(true);
    for (std::thread& th : threads) th.join();
    return rates;
  }

  uint64_t Completed() const {
    uint64_t n = 0;
    for (const Reader& r : readers_) n += r.completed.load();
    return n;
  }
  std::vector<Reader>& readers() { return readers_; }

 private:
  bool LaneFull() const {
    for (const Reader& r : readers_) {
      if (r.lane_full.load(std::memory_order_relaxed)) return true;
    }
    return false;
  }

  void Loop(Reader* r, const ReaderConfig& config, std::atomic<uint64_t>* next,
            const std::atomic<bool>* stop) {
    constexpr uint64_t kChunk = 16;
    static const char* const kRequestSpan[3] = {
        "request.pt2pt", "request.range", "request.knn"};
    static const char* const kQuerySpan[3] = {"query.pt2pt", "query.range",
                                              "query.knn"};
    SpanLane* lane = config.trace ? r->lane : nullptr;
    uint64_t done = 0;
    while (!stop->load(std::memory_order_relaxed)) {
      if (lane != nullptr && lane->dropped() > 0) {
        r->lane_full.store(true, std::memory_order_relaxed);
      }
      const uint64_t base = next->fetch_add(kChunk, std::memory_order_relaxed);
      for (uint64_t i = config.domain + base;
           i < config.domain + base + kChunk; ++i) {
        const QueryRequest request = stream_.At(i);
        const int kind = KindIndex(request.kind);
        ScopedSpan root(lane, kRequestSpan[kind], i);
        uint64_t elapsed = 0;
        {
          ScopedSpan call(lane, kQuerySpan[kind], i, root.index());
          const uint64_t t0 = NowNs();
          Execute(index_, request, &r->scratch, &r->result);
          elapsed = NowNs() - t0;
        }
        if (r->kind_calls[kind]++ % config.latency_stride == 0 &&
            r->latency_ns[kind].size() < r->latency_ns[kind].capacity()) {
          r->latency_ns[kind].push_back(static_cast<uint32_t>(
              std::min<uint64_t>(elapsed, UINT32_MAX)));
        }
        if (config.sample_stride > 0 && i % config.sample_stride == 0 &&
            r->samples.size() < r->samples.capacity()) {
          r->samples.push_back(MakeSample(i, request, r->result));
        }
        r->completed.store(++done, std::memory_order_relaxed);
      }
    }
  }

  const IndexFramework& index_;
  const RequestStream& stream_;
  std::vector<Reader> readers_;
};

/// Index set-up: build the framework and load the objects, at least
/// `repeats` times and until `min_seconds` have passed; returns the last
/// framework and appends each wall time (s) to `times`.
std::unique_ptr<IndexFramework> SetUp(const FloorPlan& plan,
                                      const std::vector<GeneratedObject>& objs,
                                      int repeats, double min_seconds,
                                      std::vector<double>* times,
                                      IndexOptions options) {
  std::unique_ptr<IndexFramework> index;
  const uint64_t start = NowNs();
  for (int i = 0; i < repeats || SecondsSince(start) < min_seconds; ++i) {
    index.reset();
    const uint64_t t0 = NowNs();
    index = std::make_unique<IndexFramework>(plan, options);
    PopulateStore(objs, &index->objects());
    times->push_back(SecondsSince(t0));
  }
  return index;
}

/// The pool warm-up pass: every pooled request of every kind once, in
/// order, on one thread, so the cache starts each window identically.
void WarmPool(const IndexFramework& index, const RequestStream& stream) {
  QueryScratch scratch;
  QueryResult result;
  const WorkloadSpec& spec = stream.spec();
  for (const auto& [a, b] : stream.pool_pairs()) {
    Execute(index, QueryRequest::Distance(a, b), &scratch, &result);
  }
  for (const Point& p : stream.pool_positions()) {
    Execute(index, QueryRequest::Range(p, spec.range_radius), &scratch,
            &result);
    Execute(index, QueryRequest::Knn(p, spec.knn_k), &scratch, &result);
  }
}

std::vector<double> ToMicros(const std::vector<Reader>& readers, int kind) {
  std::vector<double> out;
  for (const Reader& r : readers) {
    for (uint32_t ns : r.latency_ns[kind]) out.push_back(ns / 1e3);
  }
  return out;
}

std::vector<SampledResult> CollectSamples(const std::vector<Reader>& readers) {
  std::vector<SampledResult> out;
  for (const Reader& r : readers) {
    out.insert(out.end(), r.samples.begin(), r.samples.end());
  }
  std::sort(out.begin(), out.end(),
            [](const SampledResult& a, const SampledResult& b) {
              return a.index < b.index;
            });
  return out;
}

/// The move batch that follows `next_move` in the schedule, grouped by
/// target partition as the serving loop submits it.
std::vector<MoveOp> MoveBatch(const RequestStream& stream, uint64_t first,
                              size_t count) {
  std::vector<MoveOp> moves;
  moves.reserve(count);
  for (size_t j = 0; j < count; ++j) moves.push_back(stream.MoveAt(first + j));
  std::stable_sort(moves.begin(), moves.end(),
                   [](const MoveOp& a, const MoveOp& b) {
                     return a.partition < b.partition;
                   });
  return moves;
}

/// The moving_objects serving loop: executor batches, one probe request of
/// each kind after each batch, and the due move batches. Its schedule
/// depends only on the batch count, so a replay of as many batches
/// repeats it exactly.
struct BatchLoop {
  const RequestStream& stream;
  IndexFramework& index;
  BatchExecutor executor;
  QueryScratch probe_scratch;
  QueryResult probe_result;
  std::vector<QueryRequest> requests;
  double move_due = 0.0;
  uint64_t next_move = 0;
  uint64_t batches = 0;
  uint64_t queries = 0;
  uint64_t moves = 0;
  uint64_t move_errors = 0;
  SpanLane* lane = nullptr;

  BatchLoop(const RequestStream& s, IndexFramework& ix)
      : stream(s), index(ix), executor(ix, kReaders),
        requests(s.spec().batch_size) {}

  /// Runs batch `b`; returns its Run wall time in ns and the digest.
  std::pair<uint64_t, uint64_t> RunBatch(uint64_t domain, uint64_t b) {
    const size_t n = requests.size();
    for (size_t j = 0; j < n; ++j) requests[j] = stream.At(domain + b * n + j);
    ScopedSpan span(lane, "batch.run", domain + b * n);
    const uint64_t t0 = NowNs();
    const std::vector<QueryResult> results = executor.Run(requests);
    const uint64_t elapsed = NowNs() - t0;
    queries += n;
    return {elapsed, BatchDigest(requests, results)};
  }

  /// Probe `p` (kind p % 3); returns its latency in ns.
  uint64_t Probe(uint64_t p, QueryRequest* request) {
    static const char* const kProbeSpan[3] = {"probe.pt2pt", "probe.range",
                                              "probe.knn"};
    static const char* const kQuerySpan[3] = {"query.pt2pt", "query.range",
                                              "query.knn"};
    *request = stream.At(kProbeDomain + p);
    const int kind = KindIndex(request->kind);
    ScopedSpan root(lane, kProbeSpan[kind], kProbeDomain + p);
    ScopedSpan call(lane, kQuerySpan[kind], kProbeDomain + p, root.index());
    const uint64_t t0 = NowNs();
    Execute(index, *request, &probe_scratch, &probe_result);
    const uint64_t elapsed = NowNs() - t0;
    ++queries;
    return elapsed;
  }

  /// Applies every move batch now due; appends each ApplyMoveBatch wall
  /// time (ns) to `ingest_ns` when given.
  void ApplyDueMoves(std::vector<double>* ingest_ns) {
    const size_t m = stream.spec().move_batch;
    move_due += static_cast<double>(requests.size()) * stream.spec().move_rate;
    while (move_due >= static_cast<double>(m)) {
      const std::vector<MoveOp> ops = MoveBatch(stream, next_move, m);
      ScopedSpan span(lane, "ingest.apply", next_move);
      const uint64_t t0 = NowNs();
      const Status status = ApplyMoveBatch(index, ops);
      const uint64_t elapsed = NowNs() - t0;
      if (!status.ok()) move_errors += m;
      if (ingest_ns != nullptr && ingest_ns->size() < ingest_ns->capacity()) {
        ingest_ns->push_back(static_cast<double>(elapsed));
      }
      next_move += m;
      moves += m;
      move_due -= static_cast<double>(m);
    }
  }
};

struct BatchWindow {
  std::vector<double> batch_ns, ingest_ns, probe_us[3];
  std::vector<uint64_t> batch_digests;
  std::vector<SampledResult> probe_samples;
};

/// Serves the moving_objects loop for `seconds` in `windows` sub-windows,
/// appending to `out`; returns the per-sub-window rates (queries/s).
std::vector<double> RunBatchWindow(BatchLoop* loop, double seconds,
                                   int windows, BatchWindow* out) {
  constexpr size_t kCap = size_t{1} << 18;
  if (out->batch_digests.capacity() < kCap) {
    out->batch_ns.reserve(kCap);
    out->ingest_ns.reserve(kCap);
    for (auto& v : out->probe_us) v.reserve(kCap);
    out->batch_digests.reserve(kCap);
    out->probe_samples.reserve(kCap);
  }
  std::vector<double> rates;
  const uint64_t start = NowNs();
  uint64_t last_ns = start;
  uint64_t last_queries = loop->queries;
  const double sub = seconds / windows;
  for (int w = 0; w < windows; ++w) {
    const uint64_t until = start + static_cast<uint64_t>(sub * (w + 1) * 1e9);
    while (NowNs() < until && out->probe_samples.size() + 3 <= kCap) {
      const uint64_t b = loop->batches++;
      const auto [run_ns, digest] = loop->RunBatch(0, b);
      out->batch_ns.push_back(static_cast<double>(run_ns));
      out->batch_digests.push_back(digest);
      for (uint64_t p = 3 * b; p < 3 * b + 3; ++p) {
        QueryRequest probe;
        const uint64_t probe_ns = loop->Probe(p, &probe);
        out->probe_us[KindIndex(probe.kind)].push_back(probe_ns / 1e3);
        out->probe_samples.push_back(
            MakeSample(kProbeDomain + p, probe, loop->probe_result));
      }
      loop->ApplyDueMoves(&out->ingest_ns);
    }
    const uint64_t now = NowNs();
    rates.push_back(static_cast<double>(loop->queries - last_queries) /
                    (static_cast<double>(now - last_ns) / 1e9));
    last_queries = loop->queries;
    last_ns = now;
  }
  return rates;
}

/// Replays the first `batches` steps of the moving_objects schedule on a
/// cache-off framework and compares every `stride`-th batch digest and
/// probe answer with the served ones.
OracleReport ReplayCheck(const FloorPlan& plan, const WorkloadSpec& spec,
                         const std::vector<GeneratedObject>& objects,
                         const RequestStream& stream,
                         const BatchWindow& window) {
  IndexOptions options = ServingOptions(spec);
  options.enable_query_cache = false;
  IndexFramework replay(plan, options);
  PopulateStore(objects, &replay.objects());
  BatchLoop loop(stream, replay);
  const uint64_t batches = window.batch_digests.size();
  const uint64_t stride =
      std::max<uint64_t>(1, (batches + kReplayBatches - 1) / kReplayBatches);
  OracleReport report;
  for (uint64_t b = 0; b < batches; ++b) {
    if (b % stride == 0) {
      const auto [run_ns, digest] = loop.RunBatch(0, b);
      (void)run_ns;
      ++report.checked;
      if (digest != window.batch_digests[b]) {
        report.wrong += stream.spec().batch_size;
        if (report.first_mismatch.empty()) {
          report.first_mismatch =
              "batch " + std::to_string(b) + " digest differs from replay";
        }
      }
      for (uint64_t p = 3 * b; p < 3 * b + 3; ++p) {
        QueryRequest probe;
        loop.Probe(p, &probe);
        const SampledResult& served = window.probe_samples[p];
        const SampledResult want =
            MakeSample(served.index, probe, loop.probe_result);
        ++report.checked;
        if (std::memcmp(&want.value, &served.value, sizeof(double)) != 0 ||
            want.count != served.count) {
          ++report.wrong;
          if (report.first_mismatch.empty()) {
            report.first_mismatch =
                "probe " + std::to_string(p) + " differs from replay";
          }
        }
      }
    }
    loop.ApplyDueMoves(nullptr);
  }
  return report;
}

/// Oracle samples of a reader window: flat workloads against the
/// reference implementations, hierarchy workloads against a flat
/// framework over the same campus.
OracleReport CheckSamples(const FloorPlan& plan, const WorkloadSpec& spec,
                          const std::vector<GeneratedObject>& objects,
                          const IndexFramework& index,
                          const std::vector<SampledResult>& samples) {
  if (!spec.use_hierarchy) return CheckAgainstReference(index, samples);
  IndexOptions options = ServingOptions(spec);
  options.use_hierarchy = false;
  options.enable_query_cache = false;
  IndexFramework flat(plan, options);
  PopulateStore(objects, &flat.objects());
  return CheckAgainstFlat(flat, samples);
}

/// Sample stride of the oracle: about kMaxSamples answers per window at
/// the warm-up rate, never a multiple of 3 so every kind is sampled.
uint64_t SampleStride(double expected_queries) {
  uint64_t stride = std::max<uint64_t>(
      1, static_cast<uint64_t>(expected_queries / kMaxSamples));
  if (stride % 3 == 0) ++stride;
  return stride;
}

/// Share of pt2pt pairs whose endpoints lie in different buildings (the
/// "bN_" prefix of the host partition's name); 0 for single buildings.
double CrossBuildingShare(const IndexFramework& index,
                          const RequestStream& stream, uint64_t n) {
  uint64_t pairs = 0, cross = 0;
  for (uint64_t i = 0; i < n; i += 3) {
    const QueryRequest r = stream.At(i);
    const auto va = index.locator().GetHostPartition(r.a);
    const auto vb = index.locator().GetHostPartition(r.b);
    if (!va.ok() || !vb.ok()) continue;
    const std::string& na = index.plan().partition(*va).name();
    const std::string& nb = index.plan().partition(*vb).name();
    ++pairs;
    if (na.substr(0, na.find('_')) != nb.substr(0, nb.find('_'))) ++cross;
  }
  return Ratio(static_cast<double>(cross), static_cast<double>(pairs));
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// Mean ns of one layer call `fn(c)` over inputs c = 0, 1, ..., each as a
/// root span on `lane`; stops after `max_calls` or `budget_s`. Calls for
/// which `fn` returns false (no valid input) are not counted.
template <typename Fn>
double TimeLayer(SpanLane* lane, const char* name, size_t max_calls,
                 double budget_s, Fn&& fn) {
  const uint64_t start = NowNs();
  uint64_t total = 0, calls = 0;
  for (size_t c = 0; c < max_calls && SecondsSince(start) < budget_s; ++c) {
    const uint32_t span = lane->Begin(name, c);
    const uint64_t t0 = NowNs();
    const bool counted = fn(c);
    const uint64_t t1 = NowNs();
    lane->End(span);
    if (counted) {
      total += t1 - t0;
      ++calls;
    }
  }
  return Ratio(static_cast<double>(total), static_cast<double>(calls));
}

int RunTraced(const Args& args, const WorkloadSpec& spec,
              const FloorPlan& plan,
              const std::vector<GeneratedObject>& objects,
              const RequestStream& stream);

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  const std::optional<WorkloadSpec> found = FindWorkload(args.workload);
  if (!found) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  const FloorPlan plan = MakePlan(spec);
  const std::vector<GeneratedObject> objects =
      MakeObjects(plan, spec, args.seed);
  const RequestStream stream(plan, spec, args.seed);
  std::printf("workload %s seed %llu: %zu partitions, %zu doors, %zu "
              "objects, %s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              plan.partition_count(), plan.door_count(), spec.objects,
              args.trace ? "traced run" : "untraced run");
  SpinUpCores(1.5);
  if (args.trace) return RunTraced(args, spec, plan, objects, stream);

  Report report;
  std::vector<double> setup_times;
  std::unique_ptr<IndexFramework> index;
  std::vector<double> lat[3];
  std::vector<double> batch_ms, ingest_ms;
  std::vector<double> rates;
  double peak_rss = 0;
  double steal = 0, jiffies = 0;  // over the timed windows

  CacheStats result_hits;
  uint64_t served = 0, repairs = 0, rejects = 0, moves = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    index = SetUp(plan, objects, kSetupRepeats, kSetupSeconds, &setup_times,
                  ServingOptions(spec));
    WarmPool(*index, stream);
    const uint64_t domain = static_cast<uint64_t>(trial) << 36;
    const double trial_s = args.seconds / kTrials;
    const CacheTotals cache0 = CacheTotals::Of(index->query_cache());
    std::pair<double, double> j0, j1;
    std::vector<double> trial_rates;
    if (spec.batch_size == 0) {
      ReaderPool pool(*index, stream);
      // Concurrent warm-up on its own index domain: code, scratches,
      // allocator and cache reach steady state; its rate sizes the strides.
      const std::vector<double> warm =
          pool.Run({.domain = kWarmupDomain + domain}, kWarmupSeconds, 1);
      // Peak RSS of the first trial, before the benchmark holds any
      // latency samples: the index, its warm cache and the readers.
      if (trial == 0) peak_rss = PeakRssMb();
      const double expected = warm[0] * trial_s;
      pool.PrepareBuffers(true);
      ReaderConfig config;
      config.domain = domain;
      config.latency_stride = std::max<uint64_t>(
          1, static_cast<uint64_t>(
                 std::ceil(expected * 1.25 / 3 / kReaders / kLatencyCap)));
      config.sample_stride = SampleStride(expected * kTrials);
      j0 = CpuJiffies();
      trial_rates = pool.Run(config, trial_s, kSubWindows / kTrials);
      j1 = CpuJiffies();
      served += pool.Completed();
      for (int k = 0; k < 3; ++k) {
        const std::vector<double> us = ToMicros(pool.readers(), k);
        lat[k].insert(lat[k].end(), us.begin(), us.end());
      }
      report.oracle.Merge(CheckSamples(plan, spec, objects, *index,
                                       CollectSamples(pool.readers())));
    } else {
      BatchLoop loop(stream, *index);
      // Warm-up batches on their own domain, no moves.
      const uint64_t start = NowNs();
      for (uint64_t b = 0; SecondsSince(start) < kWarmupSeconds; ++b) {
        loop.RunBatch(kWarmupDomain + domain, b);
      }
      loop.queries = 0;
      if (trial == 0) peak_rss = PeakRssMb();
      BatchWindow window;
      j0 = CpuJiffies();
      trial_rates =
          RunBatchWindow(&loop, trial_s, kSubWindows / kTrials, &window);
      j1 = CpuJiffies();
      served += loop.queries;
      moves += loop.moves;
      report.errors += loop.move_errors;
      for (int k = 0; k < 3; ++k) {
        lat[k].insert(lat[k].end(), window.probe_us[k].begin(),
                      window.probe_us[k].end());
      }
      for (double ns : window.batch_ns) batch_ms.push_back(ns / 1e6);
      for (double ns : window.ingest_ns) ingest_ms.push_back(ns / 1e6);
      report.oracle.Merge(ReplayCheck(plan, spec, objects, stream, window));
    }
    rates.insert(rates.end(), trial_rates.begin(), trial_rates.end());
    steal += j1.first - j0.first;
    jiffies += j1.second - j0.second;
    const CacheTotals cache1 = CacheTotals::Of(index->query_cache());
    result_hits.hits += cache1.result.hits - cache0.result.hits;
    result_hits.misses += cache1.result.misses - cache0.result.misses;
    repairs += cache1.repairs - cache0.repairs;
    rejects += cache1.rejects - cache0.rejects;
  }
  report.attempted += served + moves;
  std::printf("served %llu queries and %llu moves in %d trials; result-"
              "cache hit ratio %.4f, %llu repairs, %llu epoch rejects\n",
              static_cast<unsigned long long>(served),
              static_cast<unsigned long long>(moves), kTrials,
              HitRatio(CacheStats{}, result_hits),
              static_cast<unsigned long long>(repairs),
              static_cast<unsigned long long>(rejects));
  if (spec.buildings > 0) {
    std::printf("cross-building pt2pt share: %.4f\n",
                CrossBuildingShare(*index, stream, 30000));
  }

  std::printf("host steal during the window: %.4f of CPU time\n",
              Ratio(steal, jiffies));
  std::printf("end-to-end metrics:\n");
  report.Add("qps", Median(rates), "queries/s");
  std::printf("  %-28s %14.1f %-9s (median of %zu sub-windows:", "qps",
              Median(rates), "queries/s", rates.size());
  for (double rate : rates) std::printf(" %.0f", rate);
  std::printf(")\n");
  for (int k = 0; k < 3; ++k) {
    const std::string kind = kKindNames[k];
    report.AddPercentile(kind + "_p50_us", &lat[k], 0.5, "us", true);
    report.AddPercentile(kind + "_p99_us", &lat[k], 0.99, "us", true);
  }
  // Executor-batch and ingest latencies exist on moving_objects only. They
  // are printed but kept out of the result: BENCHMARK.json's end-to-end
  // metrics are those every workload reports.
  if (spec.batch_size > 0) {
    report.AddPercentile("batch_p50_ms", &batch_ms, 0.5, "ms", false);
    report.AddPercentile("batch_p99_ms", &batch_ms, 0.99, "ms", false);
    report.AddPercentile("ingest_p50_ms", &ingest_ms, 0.5, "ms", false);
    report.AddPercentile("ingest_p99_ms", &ingest_ms, 0.99, "ms", false);
  }
  report.Add("setup_s", Median(setup_times), "s");
  report.Add("index_mb", static_cast<double>(index->IndexMemoryBytes()) / 1e6,
             "MB");
  report.Add("peak_rss_mb", peak_rss, "MB");
  for (size_t i = 3; i-- > 0;) {
    const auto& [name, vu] = report.metrics[report.metrics.size() - 1 - i];
    std::printf("  %-28s %14.4f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  const double failed_frac = FailedFrac(report.attempted, report.errors,
                                        report.oracle.wrong);
  std::printf("  %-28s %14.6g %-9s (%llu checked, %llu wrong, %llu errors, "
              "%llu attempted)\n",
              "failed_frac", failed_frac, "fraction",
              static_cast<unsigned long long>(report.oracle.checked),
              static_cast<unsigned long long>(report.oracle.wrong),
              static_cast<unsigned long long>(report.errors),
              static_cast<unsigned long long>(report.attempted));
  if (!report.oracle.first_mismatch.empty()) {
    std::printf("first mismatch: %s\n", report.oracle.first_mismatch.c_str());
  }
  if (report.unresolved) {
    std::fprintf(stderr, "a p99 has fewer than 10 samples beyond it; no "
                         "result is reported\n");
    return 3;
  }
  PrintResult(report);
  return 0;
}

namespace {

struct LayerMetric {
  std::string name;
  double value;
  std::string unit;
};

int RunTraced(const Args& args, const WorkloadSpec& spec,
              const FloorPlan& plan,
              const std::vector<GeneratedObject>& objects,
              const RequestStream& stream) {
  Report report;
  std::vector<SpanLane> lanes;
  lanes.reserve(kReaders + 1);
  for (unsigned t = 0; t <= kReaders; ++t) lanes.emplace_back(t, kSpanCap);
  SpanLane* main_lane = &lanes[kReaders];
  std::vector<LayerMetric> out;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    out.push_back({name, value, unit});
  };

  // ---- build layers: the public constructors on the workload's plan ----
  const IndexOptions options = ServingOptions(spec);
  double setup_s = 0;
  std::unique_ptr<IndexFramework> index;
  {
    std::vector<double> times;
    for (int i = 0; i < 3; ++i) {
      index.reset();
      ScopedSpan span(main_lane, "setup", 0);
      const uint64_t t0 = NowNs();
      index = std::make_unique<IndexFramework>(plan, options);
      PopulateStore(objects, &index->objects());
      times.push_back(SecondsSince(t0));
    }
    setup_s = Median(times);
  }
  const QueueKind queue = index->queue_kind();
  const unsigned threads = options.build_threads;
  std::map<std::string, double> build;
  HierarchyIndex hierarchy;  // flat workloads time (and probe) one too
  // `span_name` is "build.<layer>"; the map key drops the prefix.
  auto time_build = [&](const char* span_name, auto&& fn) {
    std::vector<double> times;
    for (int i = 0; i < 3; ++i) {
      ScopedSpan span(main_lane, span_name, 0);
      const uint64_t t0 = NowNs();
      fn();
      times.push_back(SecondsSince(t0));
    }
    build[span_name + 6] = Median(times);
  };
  const DistanceGraph& graph = index->graph();
  time_build("build.graph", [&] { DistanceGraph g(plan); });
  time_build("build.locator", [&] { PartitionLocator l(plan); });
  std::optional<DistanceMatrix> md2d;
  time_build("build.md2d", [&] { md2d.emplace(graph, threads, queue); });
  time_build("build.midx", [&] { DistanceIndexMatrix m(*md2d, threads); });
  md2d.reset();
  time_build("build.dpt", [&] { DoorPartitionTable d(graph, threads); });
  time_build("build.landmarks", [&] {
    LandmarkIndex::Build(graph, AutoLandmarkCount(plan.door_count()), queue);
  });
  time_build("build.hierarchy", [&] {
    hierarchy = HierarchyIndex::Build(graph, threads,
                                      options.hierarchy_cell_target, queue);
  });
  time_build("build.objects", [&] {
    ObjectStore store(plan, options.grid_cell_size);
    PopulateStore(objects, &store);
  });
  double built = build["graph"] + build["locator"] + build["dpt"] +
                 build["landmarks"] + build["objects"];
  built += spec.use_hierarchy ? build["hierarchy"]
                              : build["md2d"] + build["midx"];
  for (const char* name : {"graph", "locator", "md2d", "midx", "landmarks",
                           "hierarchy", "objects", "dpt"}) {
    add(std::string("build.") + name + "_s", build[name], "s");
  }
  const double sum_share = Ratio(built, setup_s);
  add("build.sum_share", sum_share, "ratio");
  std::printf("build layers sum to %.3f of the %.4f s set-up (%s)\n",
              sum_share, setup_s,
              spec.use_hierarchy ? "hierarchy engine" : "flat engine");

  // ---- serving windows: untraced, traced, untraced ----
  // trace.overhead_frac compares the traced rate with the mean of the
  // untraced windows on either side of it.
  WarmPool(*index, stream);
  const double half = args.seconds / 2;
  double untraced_qps = 0, traced_qps = 0;
  Delta window;
  CacheTotals cache0, cache1;
  double queries = 0, range_knn_queries = 0;
  std::vector<double> batch_ns, ingest_ns;
  double ingest_moves = 0, batch_requests = 0;
  Delta batch_delta;
  const QueryCache* cache = index->query_cache();
  if (spec.batch_size == 0) {
    ReaderPool pool(*index, stream);
    pool.AttachLanes(&lanes);
    const double warm =
        pool.Run({.domain = kWarmupDomain}, kWarmupSeconds, 1)[0];
    pool.PrepareBuffers(false);
    const uint64_t untraced_domain = kWarmupDomain + (uint64_t{1} << 32);
    untraced_qps += pool.Run({.domain = untraced_domain}, half / 2, 1)[0];
    window.before = Delta::Take();
    cache0 = CacheTotals::Of(cache);
    ReaderConfig config;
    config.sample_stride = SampleStride(warm * half);
    config.trace = true;
    traced_qps = pool.Run(config, half, 1)[0];
    window.after = Delta::Take();
    cache1 = CacheTotals::Of(cache);
    queries = static_cast<double>(pool.Completed());
    report.attempted += pool.Completed();
    untraced_qps +=
        pool.Run({.domain = untraced_domain + (uint64_t{1} << 31)}, half / 2,
                 1)[0];
    range_knn_queries = queries * 2 / 3;
    report.oracle = CheckSamples(plan, spec, objects, *index,
                                 CollectSamples(pool.readers()));
    // Executor batches, each followed by a move batch, for the batch
    // executor and ingest layer metrics (moving_objects gets them from its
    // serving loop); move batches record no batch.groups.
    BatchExecutor executor(*index, kReaders);
    std::vector<QueryRequest> requests(kTailBatchSize);
    batch_delta.before = Delta::Take();
    for (size_t b = 0; b < 64; ++b) {
      for (size_t j = 0; j < requests.size(); ++j) {
        requests[j] = stream.At(kTailDomain + b * requests.size() + j);
      }
      {
        ScopedSpan span(main_lane, "batch.run",
                        kTailDomain + b * requests.size());
        const uint64_t t0 = NowNs();
        executor.Run(requests);
        batch_ns.push_back(static_cast<double>(NowNs() - t0));
      }
      batch_requests += requests.size();
      const std::vector<MoveOp> moves =
          MoveBatch(stream, b * spec.move_batch, spec.move_batch);
      ScopedSpan span(main_lane, "ingest.apply", b * spec.move_batch);
      const uint64_t t0 = NowNs();
      if (!ApplyMoveBatch(*index, moves).ok()) report.errors += moves.size();
      ingest_ns.push_back(static_cast<double>(NowNs() - t0));
      ingest_moves += moves.size();
    }
    batch_delta.after = Delta::Take();
    report.attempted += static_cast<uint64_t>(batch_requests + ingest_moves);
  } else {
    BatchLoop loop(stream, *index);
    const uint64_t start = NowNs();
    for (uint64_t b = 0; SecondsSince(start) < kWarmupSeconds; ++b) {
      loop.RunBatch(kWarmupDomain, b);
    }
    loop.queries = 0;
    BatchWindow served;
    untraced_qps += RunBatchWindow(&loop, half / 2, 1, &served)[0];
    const size_t batches0 = served.batch_ns.size();
    const size_t ingests0 = served.ingest_ns.size();
    const uint64_t queries0 = loop.queries;
    window.before = Delta::Take();
    cache0 = CacheTotals::Of(cache);
    loop.lane = main_lane;
    traced_qps = RunBatchWindow(&loop, half, 1, &served)[0];
    loop.lane = nullptr;
    window.after = Delta::Take();
    cache1 = CacheTotals::Of(cache);
    batch_delta = window;
    queries = static_cast<double>(loop.queries - queries0);
    range_knn_queries = queries * 2 / 3;
    batch_ns.assign(served.batch_ns.begin() + batches0,
                    served.batch_ns.end());
    ingest_ns.assign(served.ingest_ns.begin() + ingests0,
                     served.ingest_ns.end());
    batch_requests = static_cast<double>(batch_ns.size() * spec.batch_size);
    ingest_moves = static_cast<double>(ingest_ns.size() * spec.move_batch);
    untraced_qps += RunBatchWindow(&loop, half / 2, 1, &served)[0];
    report.attempted += loop.queries + loop.moves;
    report.errors += loop.move_errors;
    report.oracle = ReplayCheck(plan, spec, objects, stream, served);
  }
  untraced_qps /= 2;

  // ---- per-query registry and cache deltas of the traced window ----
  const auto [range_results, range_sum] =
      window.Histogram("query.range.results");
  add("range.results_per_query", Ratio(range_sum, range_results), "count");
  add("midx.entries_per_query",
      Ratio(window.Counter("index.scan.entries"), range_knn_queries),
      "count");
  add("md2d.rows_per_query",
      Ratio(window.Counter("index.md2d.row_fetches"), range_knn_queries),
      "count");
  add("grid.cells_visited_per_query",
      Ratio(window.Counter("index.grid.cells_visited"), range_knn_queries),
      "count");
  add("grid.objects_tested_per_query",
      Ratio(window.Counter("index.grid.objects_tested"), range_knn_queries),
      "count");
  add("cache.result_hit_ratio", HitRatio(cache0.result, cache1.result),
      "ratio");
  add("cache.field_hit_ratio", HitRatio(cache0.field, cache1.field),
      "ratio");
  add("cache.host_hit_ratio", HitRatio(cache0.host, cache1.host), "ratio");
  const double evictions = static_cast<double>(
      (cache1.result.evictions - cache0.result.evictions) +
      (cache1.field.evictions - cache0.field.evictions) +
      (cache1.host.evictions - cache0.host.evictions));
  add("cache.evictions_per_query", Ratio(evictions, queries), "count");
  add("cache.repairs_per_query",
      Ratio(static_cast<double>(cache1.repairs - cache0.repairs), queries),
      "count");
  add("cache.epoch_rejects_per_query",
      Ratio(static_cast<double>(cache1.rejects - cache0.rejects), queries),
      "count");
  add("telemetry.hist_records_per_query",
      Ratio(window.HistogramRecords(), queries), "count");
  add("scratch.tls_fallback_per_query",
      Ratio(window.Counter("scratch.tls_fallback"), queries), "count");
  double batch_total = 0, ingest_total = 0;
  for (double ns : batch_ns) batch_total += ns;
  for (double ns : ingest_ns) ingest_total += ns;
  const auto [groups_count, groups_sum] = batch_delta.Histogram("batch.groups");
  add("batch.groups_per_batch", Ratio(groups_sum, groups_count), "count");
  add("batch.ns_per_request", Ratio(batch_total, batch_requests), "ns");
  add("ingest.ns_per_move", Ratio(ingest_total, ingest_moves), "ns");
  add("trace.overhead_frac", Ratio(untraced_qps - traced_qps, untraced_qps),
      "ratio");
  std::printf("traced window: %.0f queries; untraced %.0f queries/s, traced "
              "%.0f queries/s\n",
              queries, untraced_qps, traced_qps);

  // ---- layer calls timed one by one on the workload's own inputs ----
  const std::vector<SelfTime> serve_times = SelfTimes(lanes);
  auto mean_span = [&](const char* name) {
    for (const SelfTime& t : serve_times) {
      if (t.name == name) return Ratio(t.total_ns, t.calls);
    }
    return 0.0;
  };
  add("range.call_ns", mean_span("query.range"), "ns");
  add("knn.call_ns", mean_span("query.knn"), "ns");

  constexpr size_t kCalls = 4000;
  constexpr double kBudget = 0.4;
  QueryScratch scratch;
  const PartitionLocator& locator = index->locator();
  auto host_of = [&](const Point& p) -> PartitionId {
    const auto v = locator.GetHostPartition(p);
    return v.ok() ? *v : kInvalidId;
  };
  Delta d;
  d.before = Delta::Take();
  add("locator.locate_ns",
      TimeLayer(main_lane, "locator.locate", kCalls, kBudget,
                [&](size_t c) {
                  return locator.GetHostPartition(stream.At(c).a).ok();
                }),
      "ns");
  d.after = Delta::Take();
  add("locator.rtree_visits_per_lookup",
      Ratio(d.Counter("index.rtree.node_visits"),
            d.Counter("index.rtree.point_queries")),
      "count");

  std::vector<PartitionId> hosts(kCalls);
  for (size_t c = 0; c < kCalls; ++c) hosts[c] = host_of(stream.At(c).a);
  std::vector<double> legs(plan.door_count());
  d.before = Delta::Take();
  add("legs.distv_ns",
      TimeLayer(main_lane, "legs.distv", kCalls, kBudget,
                [&](size_t c) {
                  if (hosts[c] == kInvalidId) return false;
                  const auto& doors = plan.LeaveDoors(hosts[c]);
                  locator.DistVMany(hosts[c], stream.At(c).a, doors,
                                    &scratch.geo, legs.data());
                  return true;
                }),
      "ns");
  d.after = Delta::Take();
  add("legs.doors_per_call",
      Ratio(d.Counter("distance.distv.doors"),
            d.Counter("distance.distv.calls")),
      "count");

  d.before = Delta::Take();
  size_t pt2pt_calls = 0;
  add("pt2pt.uncached_ns",
      TimeLayer(main_lane, "pt2pt.uncached", kCalls, kBudget,
                [&](size_t c) {
                  const QueryRequest r = stream.At(3 * c);
                  if (spec.use_hierarchy) {
                    Pt2PtDistanceHierarchy(locator, graph,
                                           index->hierarchy_index(), r.a,
                                           r.b, &scratch, nullptr, queue);
                  } else {
                    Pt2PtDistanceMatrix(locator, index->d2d_matrix(), r.a,
                                        r.b, &scratch, nullptr);
                  }
                  ++pt2pt_calls;
                  return true;
                }),
      "ns");
  d.after = Delta::Take();
  add("dijkstra.settles_per_query",
      Ratio(d.Counter("distance.dijkstra.settles"), pt2pt_calls), "count");
  add("dijkstra.relaxations_per_query",
      Ratio(d.Counter("distance.dijkstra.relaxations"), pt2pt_calls),
      "count");
  add("dijkstra.landmark_prunes_per_query",
      Ratio(d.Counter("distance.dijkstra.prunes.landmark"), pt2pt_calls),
      "count");

  const HierarchyIndex& hier =
      spec.use_hierarchy ? index->hierarchy_index() : hierarchy;
  d.before = Delta::Take();
  size_t hier_calls = 0;
  add("hier.door_distance_ns",
      TimeLayer(main_lane, "hier.door_distance", kCalls, kBudget,
                [&](size_t c) {
                  const QueryRequest r = stream.At(3 * c);
                  const PartitionId va = host_of(r.a), vb = host_of(r.b);
                  if (va == kInvalidId || vb == kInvalidId) return false;
                  const auto& from = plan.LeaveDoors(va);
                  const auto& to = plan.EnterDoors(vb);
                  if (from.empty() || to.empty()) return false;
                  HierarchyDoorDistance(graph, hier, from[c % from.size()],
                                        to[c % to.size()], &scratch, queue);
                  ++hier_calls;
                  return true;
                }),
      "ns");
  d.after = Delta::Take();
  add("hier.settles_per_query",
      Ratio(d.Counter("distance.dijkstra.settles"), hier_calls), "count");

  // Cache probes on warmed keys: each key is served once (inserting or
  // refreshing its entry), then the lookup alone is timed. The kind byte
  // is the one range_query.cc / knn_query.cc use for default options.
  const uint8_t range_kind = spec.use_hierarchy ? 4 : 0;
  const uint8_t knn_kind = spec.use_hierarchy ? 5 : 1;
  QueryResult warmed;
  double probe_total = 0;
  size_t probe_calls = 0;
  const uint64_t probe_start = NowNs();
  for (size_t c = 0; cache != nullptr && c < kCalls &&
                     SecondsSince(probe_start) < kBudget;
       ++c) {
    const uint64_t i = 3 * c + 1 + c % 2;  // alternately range and kNN
    const QueryRequest r = stream.At(i);
    Execute(*index, r, &scratch, &warmed);
    ScopedSpan span(main_lane, "cache.probe", i);
    const uint64_t t0 = NowNs();
    const bool hit =
        r.kind == QueryRequest::Kind::kRange
            ? cache->LookupRangeResult(r.a, r.radius, range_kind, &warmed.ids)
            : cache->LookupKnnResult(r.a, r.k, knn_kind, &warmed.neighbors);
    const uint64_t t1 = NowNs();
    if (hit) {
      probe_total += static_cast<double>(t1 - t0);
      ++probe_calls;
    }
  }
  add("cache.probe_ns", Ratio(probe_total, probe_calls), "ns");

  // ---- report ----
  const std::vector<SelfTime> self_times = SelfTimes(lanes);
  std::printf("self time by span (ns per call; self = span minus children):\n");
  std::printf("  %-22s %10s %14s %14s\n", "span", "calls", "total_ns",
              "self_ns");
  for (const SelfTime& t : self_times) {
    std::printf("  %-22s %10llu %14.1f %14.1f\n", t.name.c_str(),
                static_cast<unsigned long long>(t.calls),
                Ratio(t.total_ns, t.calls), Ratio(t.self_ns, t.calls));
  }
  uint64_t dropped = 0;
  for (const SpanLane& lane : lanes) dropped += lane.dropped();
  const std::string path = args.out_dir + "/trace_" + spec.name + "_" +
                           std::to_string(args.seed) + ".tsv";
  if (!WriteSpans(path, lanes)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("spans written to %s (%llu dropped past lane capacity)\n",
              path.c_str(), static_cast<unsigned long long>(dropped));
  std::printf("per-layer metrics:\n");
  for (const LayerMetric& m : out) {
    std::printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    report.Add(m.name, m.value, m.unit);
  }
  std::printf("  %-36s %16.6g fraction\n", "failed_frac",
              FailedFrac(report.attempted, report.errors,
                         report.oracle.wrong));
  if (!report.oracle.first_mismatch.empty()) {
    std::printf("first mismatch: %s\n", report.oracle.first_mismatch.c_str());
  }
  PrintResult(report);
  return 0;
}

}  // namespace
