// The flight recorder and per-partition hotness (util/timeseries.h):
// staging/flush/coalescing, interval stats, the binary recording format
// and its JSONL export, and the background sampler under concurrency —
// the recorder tests double as the TSan targets for this subsystem.

#include "util/timeseries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "util/metrics.h"
#include "util/partition_hotness.h"

namespace indoor {
namespace tseries {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  EXPECT_NE(in, nullptr) << path;
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0) out.append(buf, n);
  std::fclose(in);
  return out;
}

/// A named HistogramSnapshot over explicit values (what a registry delta
/// would carry for one instrument).
metrics::HistogramSnapshot MakeHist(const std::string& name,
                                    const std::vector<uint64_t>& values) {
  metrics::Histogram h;
  for (uint64_t v : values) h.Record(v);
  metrics::HistogramSnapshot s;
  s.name = name;
  s.count = h.Count();
  s.sum = h.Sum();
  s.max = h.Max();
  s.buckets.resize(metrics::Histogram::kNumBuckets);
  for (size_t i = 0; i < s.buckets.size(); ++i) s.buckets[i] = h.BucketCount(i);
  return s;
}

/// One hand-built interval. Counters and histograms must stay sorted by
/// name — the snapshot contract FindHistogram/CounterValue rely on.
IntervalSample MakeSample(uint64_t index, uint64_t duration_us) {
  IntervalSample sample;
  sample.index = index;
  sample.start_us = index * duration_us;
  sample.duration_us = duration_us;
  sample.delta.counters = {
      {"cache.field.hits", 30},     {"cache.field.misses", 10},
      {"distance.dijkstra.settles", 5000}, {"update.moves", 20},
  };
  sample.delta.histograms.push_back(
      MakeHist("query.knn.latency_ns", {1000, 2000, 4000, 8000}));
  sample.delta.histograms.push_back(
      MakeHist("query.range.latency_ns", {500, 500, 100000, 200000}));
  sample.hot = {{2, 10, 100}, {7, 3, 9}};
  return sample;
}

// --------------------------------------------------------- PartitionHotness

TEST(PartitionHotnessTest, RecordAndSnapshot) {
  PartitionHotness hotness;
  EXPECT_EQ(hotness.slots(), 0u);
  EXPECT_TRUE(hotness.Snapshot().empty());
  hotness.Reset(8);
  EXPECT_EQ(hotness.slots(), 8u);
  hotness.Record(3, 2, 17);
  hotness.Record(3, 1, 3);
  hotness.Record(5, 1, 0);
  const auto entries = hotness.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].slot, 3u);
  EXPECT_EQ(entries[0].visits, 3u);
  EXPECT_EQ(entries[0].settles, 20u);
  EXPECT_EQ(entries[1].slot, 5u);
  EXPECT_EQ(entries[1].visits, 1u);
}

TEST(PartitionHotnessTest, OutOfRangeSlotsAreDropped) {
  PartitionHotness hotness;
  hotness.Reset(4);
  hotness.Record(4, 1, 1);   // one past the end
  hotness.Record(999, 1, 1);
  EXPECT_TRUE(hotness.Snapshot().empty());
}

TEST(PartitionHotnessTest, FlushVisitsCoalescesAndClears) {
  PartitionHotness hotness;
  hotness.Reset(16);
  // One query that expanded into partition 3 twice and partition 1 once.
  std::vector<std::pair<uint32_t, uint32_t>> staged = {
      {3, 5}, {1, 2}, {3, 7}};
  hotness.FlushVisits(&staged);
  EXPECT_TRUE(staged.empty());
  const auto entries = hotness.Snapshot();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].slot, 1u);
  EXPECT_EQ(entries[0].visits, 1u);
  EXPECT_EQ(entries[0].settles, 2u);
  EXPECT_EQ(entries[1].slot, 3u);
  EXPECT_EQ(entries[1].visits, 2u);  // two stage entries, one per search
  EXPECT_EQ(entries[1].settles, 12u);
}

TEST(PartitionHotnessTest, ConcurrentFlushesLoseNothing) {
  PartitionHotness hotness;
  hotness.Reset(32);
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hotness, t] {
      std::vector<std::pair<uint32_t, uint32_t>> staged;
      for (int q = 0; q < kQueriesPerThread; ++q) {
        staged.push_back({static_cast<uint32_t>(t % 4), 2});
        staged.push_back({static_cast<uint32_t>(8 + q % 3), 1});
        hotness.FlushVisits(&staged);
      }
    });
  }
  for (auto& t : threads) t.join();
  uint64_t visits = 0;
  uint64_t settles = 0;
  for (const auto& entry : hotness.Snapshot()) {
    visits += entry.visits;
    settles += entry.settles;
  }
  EXPECT_EQ(visits, static_cast<uint64_t>(kThreads) * kQueriesPerThread * 2);
  EXPECT_EQ(settles, static_cast<uint64_t>(kThreads) * kQueriesPerThread * 3);
}

// ------------------------------------------------------------ derived stats

TEST(IntervalStatsTest, ComputeIntervalStatsDerivesRates) {
  const IntervalSample sample = MakeSample(0, 2'000'000);  // 2 s
  const IntervalStats stats = ComputeIntervalStats(sample);
  EXPECT_DOUBLE_EQ(stats.seconds, 2.0);
  EXPECT_EQ(stats.queries, 8u);  // 4 knn + 4 range
  EXPECT_DOUBLE_EQ(stats.qps, 4.0);
  EXPECT_DOUBLE_EQ(stats.cache_hit_rate, 0.75);
  EXPECT_DOUBLE_EQ(stats.settles_per_sec, 2500.0);
  EXPECT_DOUBLE_EQ(stats.moves_per_sec, 10.0);
}

TEST(IntervalStatsTest, DegenerateIntervalReportsZeroRates) {
  IntervalSample sample = MakeSample(0, 0);
  const IntervalStats stats = ComputeIntervalStats(sample);
  EXPECT_DOUBLE_EQ(stats.seconds, 0.0);
  EXPECT_DOUBLE_EQ(stats.qps, 0.0);
  EXPECT_EQ(stats.queries, 8u);  // counts still tally; only rates need time
}

TEST(IntervalStatsTest, QueryPercentileAndActiveKinds) {
  Recording recording;
  recording.samples.push_back(MakeSample(0, 1'000'000));
  const auto kinds = ActiveQueryKinds(recording);
  ASSERT_EQ(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], "knn");
  EXPECT_EQ(kinds[1], "range");
  EXPECT_GT(QueryPercentileNs(recording.samples[0], "range", 0.99), 10000.0);
  EXPECT_DOUBLE_EQ(QueryPercentileNs(recording.samples[0], "window", 0.99),
                   0.0);
}

// ---------------------------------------------------------- recording files

TEST(RecordingIoTest, BinaryRoundTripPreservesEverything) {
  Recording recording;
  recording.interval_ms = 250;
  // The context carries operator strings (plan paths) verbatim — hostile
  // bytes must survive the binary round trip untouched.
  recording.context = "plan=/tmp/evil \"quoted\\path\"\nobjects=100\n";
  recording.samples.push_back(MakeSample(0, 250'000));
  recording.samples.push_back(MakeSample(1, 251'000));
  const std::string path = TempPath("roundtrip.rec");
  ASSERT_TRUE(WriteRecordingFile(recording, path).ok());

  auto loaded = ReadRecording(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->label, path);
  EXPECT_EQ(loaded->interval_ms, 250u);
  EXPECT_EQ(loaded->context, recording.context);
  ASSERT_EQ(loaded->samples.size(), 2u);
  const IntervalSample& got = loaded->samples[1];
  const IntervalSample& want = recording.samples[1];
  EXPECT_EQ(got.index, want.index);
  EXPECT_EQ(got.start_us, want.start_us);
  EXPECT_EQ(got.duration_us, want.duration_us);
  ASSERT_EQ(got.delta.counters.size(), want.delta.counters.size());
  EXPECT_EQ(got.delta.counters[0].first, want.delta.counters[0].first);
  EXPECT_EQ(got.delta.counters[0].second, want.delta.counters[0].second);
  ASSERT_EQ(got.delta.histograms.size(), want.delta.histograms.size());
  EXPECT_EQ(got.delta.histograms[0].count, want.delta.histograms[0].count);
  EXPECT_EQ(got.delta.histograms[0].sum, want.delta.histograms[0].sum);
  ASSERT_EQ(got.hot.size(), want.hot.size());
  EXPECT_EQ(got.hot[0].slot, want.hot[0].slot);
  EXPECT_EQ(got.hot[0].visits, want.hot[0].visits);
  EXPECT_EQ(got.hot[1].settles, want.hot[1].settles);
}

TEST(RecordingIoTest, JsonlExportEscapesHostileContext) {
  Recording recording;
  recording.interval_ms = 100;
  recording.context = "plan=/tmp/evil \"quoted\\path\"\nnewline\n";
  recording.samples.push_back(MakeSample(0, 100'000));
  const std::string path = TempPath("export.jsonl");
  ASSERT_TRUE(WriteRecordingFile(recording, path).ok());
  const std::string text = Slurp(path);
  // The raw context must never reach the stream unescaped...
  EXPECT_EQ(text.find("evil \"quoted\\path\""), std::string::npos);
  // ...its escaped form must.
  EXPECT_NE(text.find("evil \\\"quoted\\\\path\\\"\\n"), std::string::npos);
  // One meta line plus one line per interval.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_NE(text.find("\"qps\""), std::string::npos);
  EXPECT_NE(text.find("\"hot\""), std::string::npos);
}

TEST(RecordingIoTest, ReadRejectsJsonlAndGarbage) {
  Recording recording;
  recording.interval_ms = 100;
  recording.samples.push_back(MakeSample(0, 100'000));
  const std::string jsonl = TempPath("one_way.jsonl");
  ASSERT_TRUE(WriteRecordingFile(recording, jsonl).ok());
  const auto from_jsonl = ReadRecording(jsonl);
  ASSERT_FALSE(from_jsonl.ok());
  EXPECT_NE(from_jsonl.status().message().find("magic"), std::string::npos);

  const std::string truncated = TempPath("truncated.rec");
  std::FILE* f = std::fopen(truncated.c_str(), "wb");
  std::fwrite(kRecordingMagic, 1, sizeof(kRecordingMagic), f);
  std::fclose(f);
  EXPECT_FALSE(ReadRecording(truncated).ok());
  EXPECT_FALSE(ReadRecording(TempPath("does_not_exist.rec")).ok());
}

TEST(RecordingIoTest, AppendIntervalJsonEscapesInstrumentNames) {
  IntervalSample sample = MakeSample(0, 100'000);
  sample.delta.counters.push_back({"evil.\"name\"\n", 7});
  std::sort(sample.delta.counters.begin(), sample.delta.counters.end());
  std::string line;
  AppendIntervalJson(&line, sample);
  EXPECT_EQ(line.find("evil.\"name\"\n"), std::string::npos);
  EXPECT_NE(line.find("evil.\\\"name\\\"\\n"), std::string::npos);
  // One JSON object per line: no raw newline may survive inside it.
  EXPECT_EQ(line.find('\n'), std::string::npos);
}

// ------------------------------------------------------------ FlightRecorder

#ifdef INDOOR_METRICS_ENABLED

TEST(FlightRecorderTest, StartStopCollectsIntervalDeltas) {
  metrics::Counter& counter =
      metrics::MetricsRegistry::Global().GetCounter("test.tsrec.activity");
  FlightRecorder recorder;
  FlightRecorderOptions options;
  options.interval_ms = 5;
  options.context = "source=timeseries_test\n";
  ASSERT_TRUE(recorder.Start(options).ok());
  EXPECT_TRUE(recorder.running());
  for (int i = 0; i < 10; ++i) {
    counter.Add(100);
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  recorder.Stop();
  EXPECT_FALSE(recorder.running());
  const Recording recording = recorder.Snapshot();
  EXPECT_EQ(recording.context, "source=timeseries_test\n");
  EXPECT_EQ(recording.interval_ms, 5u);
  ASSERT_FALSE(recording.samples.empty());
  EXPECT_EQ(recorder.intervals(), recording.samples.size());
  // The interval deltas must add up to exactly what the workload did:
  // nothing lost at interval boundaries, nothing double-counted.
  uint64_t total = 0;
  uint64_t prev_index = 0;
  for (size_t i = 0; i < recording.samples.size(); ++i) {
    total += CounterValue(recording.samples[i].delta, "test.tsrec.activity");
    if (i > 0) {
      EXPECT_EQ(recording.samples[i].index, prev_index + 1);
    }
    prev_index = recording.samples[i].index;
    EXPECT_GT(recording.samples[i].duration_us, 0u);
  }
  EXPECT_EQ(total, 1000u);
}

TEST(FlightRecorderTest, StartValidatesOptionsAndRejectsDoubleStart) {
  FlightRecorder recorder;
  FlightRecorderOptions bad;
  bad.interval_ms = 0;
  EXPECT_FALSE(recorder.Start(bad).ok());
  bad.interval_ms = 10;
  bad.ring_capacity = 0;
  EXPECT_FALSE(recorder.Start(bad).ok());

  FlightRecorderOptions good;
  good.interval_ms = 50;
  ASSERT_TRUE(recorder.Start(good).ok());
  EXPECT_FALSE(recorder.Start(good).ok());  // already running
  recorder.Stop();
  recorder.Stop();  // idempotent
  ASSERT_TRUE(recorder.Start(good).ok());  // restartable after Stop
  recorder.Stop();
}

TEST(FlightRecorderTest, RingOverflowEvictsOldestAndCounts) {
  metrics::Counter& counter =
      metrics::MetricsRegistry::Global().GetCounter("test.tsrec.overflow");
  FlightRecorder recorder;
  FlightRecorderOptions options;
  options.interval_ms = 2;
  options.ring_capacity = 3;
  ASSERT_TRUE(recorder.Start(options).ok());
  // Run until eviction actually happened (bounded: slow CI machines may
  // stretch the 2 ms sampling interval considerably).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (recorder.evictions() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    counter.Increment();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  recorder.Stop();
  const Recording recording = recorder.Snapshot();
  EXPECT_LE(recording.samples.size(), 3u);
  EXPECT_GT(recorder.evictions(), 0u);
  EXPECT_EQ(recorder.intervals(),
            recording.samples.size() + recorder.evictions());
  // Eviction drops from the front: surviving indexes stay contiguous.
  for (size_t i = 1; i < recording.samples.size(); ++i) {
    EXPECT_EQ(recording.samples[i].index,
              recording.samples[i - 1].index + 1);
  }
}

TEST(FlightRecorderTest, DumpWhileSamplingIsSafeAndLoadable) {
  metrics::Counter& counter =
      metrics::MetricsRegistry::Global().GetCounter("test.tsrec.dump");
  FlightRecorder recorder;
  FlightRecorderOptions options;
  options.interval_ms = 1;  // sample as fast as possible while we dump
  ASSERT_TRUE(recorder.Start(options).ok());
  const std::string path = TempPath("mid_flight.rec");
  for (int i = 0; i < 20; ++i) {
    counter.Add(3);
    ASSERT_TRUE(recorder.Dump(path).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto mid = ReadRecording(path);
  ASSERT_TRUE(mid.ok()) << mid.status();
  recorder.Stop();
}

TEST(FlightRecorderTest, EightThreadWorkloadUnderSampler) {
  // The TSan workhorse: 8 writer threads hammer the registry and the
  // hotness accumulator while the sampler snapshots, diffs, and evicts,
  // and the main thread dumps mid-flight.
  PartitionHotness hotness;
  hotness.Reset(64);
  FlightRecorder recorder;
  FlightRecorderOptions options;
  options.interval_ms = 1;
  options.ring_capacity = 8;  // force evictions under load
  options.hotness = &hotness;
  options.hot_slots_max = 16;  // force truncation under load
  ASSERT_TRUE(recorder.Start(options).ok());

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 300;
  std::atomic<uint64_t> done{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      metrics::MetricsRegistry& reg = metrics::MetricsRegistry::Global();
      std::vector<std::pair<uint32_t, uint32_t>> staged;
      for (int q = 0; q < kQueriesPerThread; ++q) {
        reg.GetCounter("test.tsrec.mt").Increment();
        reg.GetHistogram("query.range.latency_ns")
            .Record(static_cast<uint64_t>(1000 + q));
        staged.push_back({static_cast<uint32_t>((t * 7 + q) % 64), 2});
        hotness.FlushVisits(&staged);
        done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  const std::string path = TempPath("mt.rec");
  while (done.load(std::memory_order_relaxed) <
         static_cast<uint64_t>(kThreads) * kQueriesPerThread) {
    ASSERT_TRUE(recorder.Dump(path).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& t : threads) t.join();
  recorder.Stop();
  EXPECT_GT(recorder.intervals(), 0u);
  uint64_t hot_visits = 0;
  for (const auto& entry : hotness.Snapshot()) hot_visits += entry.visits;
  EXPECT_EQ(hot_visits,
            static_cast<uint64_t>(kThreads) * kQueriesPerThread);
}

TEST(FlightRecorderTest, StopCapturesTheFinalPartialInterval) {
  metrics::Counter& counter =
      metrics::MetricsRegistry::Global().GetCounter("test.tsrec.partial");
  FlightRecorder recorder;
  FlightRecorderOptions options;
  options.interval_ms = 60'000;  // the timer alone would never fire
  ASSERT_TRUE(recorder.Start(options).ok());
  counter.Add(42);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  recorder.Stop();
  const Recording recording = recorder.Snapshot();
  ASSERT_EQ(recording.samples.size(), 1u);
  EXPECT_EQ(CounterValue(recording.samples[0].delta, "test.tsrec.partial"),
            42u);
}

TEST(FlightRecorderTest, HotnessDeltasLandInSamples) {
  PartitionHotness hotness;
  hotness.Reset(8);
  FlightRecorder recorder;
  FlightRecorderOptions options;
  options.interval_ms = 60'000;  // single final sample carries everything
  options.hotness = &hotness;
  ASSERT_TRUE(recorder.Start(options).ok());
  hotness.Record(2, 4, 40);
  hotness.Record(5, 1, 5);
  recorder.Stop();
  const Recording recording = recorder.Snapshot();
  ASSERT_EQ(recording.samples.size(), 1u);
  const auto& hot = recording.samples[0].hot;
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0].slot, 2u);
  EXPECT_EQ(hot[0].visits, 4u);
  EXPECT_EQ(hot[0].settles, 40u);
  EXPECT_EQ(hot[1].slot, 5u);
}

TEST(FlightRecorderTest, HotTruncationKeepsTheBusiest) {
  PartitionHotness hotness;
  hotness.Reset(8);
  FlightRecorder recorder;
  FlightRecorderOptions options;
  options.interval_ms = 60'000;
  options.hotness = &hotness;
  options.hot_slots_max = 2;
  ASSERT_TRUE(recorder.Start(options).ok());
  hotness.Record(0, 1, 0);
  hotness.Record(1, 100, 0);
  hotness.Record(2, 3, 0);
  hotness.Record(3, 50, 0);
  recorder.Stop();
  const Recording recording = recorder.Snapshot();
  ASSERT_EQ(recording.samples.size(), 1u);
  const auto& hot = recording.samples[0].hot;
  ASSERT_EQ(hot.size(), 2u);  // busiest two, back in slot order
  EXPECT_EQ(hot[0].slot, 1u);
  EXPECT_EQ(hot[1].slot, 3u);
}

#else  // !INDOOR_METRICS_ENABLED

TEST(FlightRecorderTest, StartFailsLoudlyWithoutMetrics) {
  // A metrics-OFF build has nothing to record; Start must refuse with a
  // self-explanatory error instead of silently writing empty recordings.
  FlightRecorder recorder;
  const Status status = recorder.Start(FlightRecorderOptions{});
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("metrics disabled"), std::string::npos);
  EXPECT_FALSE(recorder.running());
}

#endif  // INDOOR_METRICS_ENABLED

}  // namespace
}  // namespace tseries
}  // namespace indoor
