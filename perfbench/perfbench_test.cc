// Tests of the benchmark's own machinery: percentiles, stream determinism,
// metric names, the oracle's wrong-answer accounting and span self times.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <regex>
#include <sstream>
#include <string>

#include "core/query/result_digest.h"
#include "oracle.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace indoor;

TEST(PercentileTest, ExactOnKnownDistribution) {
  // 1..1000 shuffled: nearest-rank p50 is 500, p99 is 990 with exactly 10
  // samples beyond it.
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);
  std::swap(values[3], values[700]);
  const Percentile p50 = ExactPercentile(values, 0.5);
  EXPECT_EQ(p50.value, 500);
  EXPECT_EQ(p50.count, 1000u);
  EXPECT_TRUE(p50.resolved);
  const Percentile p99 = ExactPercentile(values, 0.99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.resolved);
}

TEST(PercentileTest, FlagsThinTail) {
  std::vector<double> values(999);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i;
  const Percentile p99 = ExactPercentile(values, 0.99);
  EXPECT_EQ(p99.beyond, 9u);
  EXPECT_FALSE(p99.resolved);
  std::vector<double> empty;
  EXPECT_FALSE(ExactPercentile(empty, 0.5).resolved);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
}

TEST(StreamTest, SameSeedSameDigestOtherSeedDiffers) {
  for (const WorkloadSpec& spec : Workloads()) {
    WorkloadSpec small = spec;
    small.floors = 2;
    const FloorPlan plan = MakePlan(small);
    const RequestStream a(plan, small, 7);
    const RequestStream b(plan, small, 7);
    const RequestStream c(plan, small, 8);
    EXPECT_EQ(StreamDigest(a, 0, 300), StreamDigest(b, 0, 300)) << spec.name;
    EXPECT_NE(StreamDigest(a, 0, 300), StreamDigest(c, 0, 300)) << spec.name;
    // Any index can be materialized in any order.
    EXPECT_EQ(StreamDigest(a, 150, 151), StreamDigest(b, 150, 151));
    // Kinds follow the 1:1:1 mix.
    EXPECT_EQ(a.At(0).kind, QueryRequest::Kind::kDistance);
    EXPECT_EQ(a.At(1).kind, QueryRequest::Kind::kRange);
    EXPECT_EQ(a.At(2).kind, QueryRequest::Kind::kKnn);
  }
}

TEST(StreamTest, FreshWorkloadsNeverRepeatAPosition) {
  const WorkloadSpec spec = *FindWorkload("cold_reads");
  WorkloadSpec small = spec;
  small.floors = 2;
  const FloorPlan plan = MakePlan(small);
  const RequestStream stream(plan, small, 3);
  std::set<std::pair<double, double>> seen;
  for (uint64_t i = 0; i < 3000; ++i) {
    const Point p = stream.At(i).a;
    EXPECT_TRUE(seen.insert({p.x, p.y}).second) << i;
  }
}

/// Every metric name the benchmark declares, read from BENCHMARK.json at
/// the repository root, and every workload name, is a legal name, and the
/// declared workloads are exactly the ones the benchmark knows.
TEST(MetricNameTest, DeclaredNamesAreLegal) {
  std::ifstream in(std::string(PERFBENCH_SOURCE_DIR) + "/../BENCHMARK.json");
  ASSERT_TRUE(in.good());
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  const std::regex name_re("\"name\":\\s*\"([^\"]*)\"");
  size_t names = 0;
  std::vector<std::string> declared;
  for (auto it = std::sregex_iterator(json.begin(), json.end(), name_re);
       it != std::sregex_iterator(); ++it) {
    const std::string name = (*it)[1];
    EXPECT_TRUE(ValidMetricName(name)) << name;
    declared.push_back(name);
    ++names;
  }
  EXPECT_GT(names, 10u);
  for (const WorkloadSpec& spec : Workloads()) {
    EXPECT_NE(std::find(declared.begin(), declared.end(), spec.name),
              declared.end())
        << spec.name;
  }
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName("p99 us"));
  EXPECT_FALSE(ValidMetricName("latency/ms"));
  EXPECT_TRUE(ValidMetricName("cache.result_hit_ratio"));
}

TEST(OracleTest, InjectedWrongAnswerCountsInFailedFrac) {
  WorkloadSpec spec = *FindWorkload("cold_reads");
  spec.floors = 2;
  spec.objects = 300;
  const FloorPlan plan = MakePlan(spec);
  IndexFramework index(plan, ServingOptions(spec));
  PopulateStore(MakeObjects(plan, spec, 5), &index.objects());
  const RequestStream stream(plan, spec, 5);
  QueryScratch scratch;
  std::vector<SampledResult> samples;
  for (uint64_t i = 0; i < 30; ++i) {
    QueryResult result;
    const QueryRequest request = stream.At(i);
    Execute(index, request, &scratch, &result);
    samples.push_back(MakeSample(i, request, result));
  }
  const OracleReport clean = CheckAgainstReference(index, samples);
  EXPECT_EQ(clean.checked, 30u);
  EXPECT_EQ(clean.wrong, 0u) << clean.first_mismatch;
  EXPECT_EQ(FailedFrac(30, 0, clean.wrong), 0.0);

  // A range answer missing one object, and a pt2pt answer 1 m too long.
  samples[1].value = qdigest::RangeDigest({});
  samples[1].count = 0;
  samples[3].value += 1.0;
  const OracleReport bad = CheckAgainstReference(index, samples);
  EXPECT_EQ(bad.wrong, 2u);
  EXPECT_FALSE(bad.first_mismatch.empty());
  EXPECT_DOUBLE_EQ(FailedFrac(30, 0, bad.wrong), 2.0 / 30.0);
  EXPECT_DOUBLE_EQ(FailedFrac(30, 1, bad.wrong), 3.0 / 30.0);
}

TEST(OracleTest, HierarchyMatchesFlatBitwise) {
  WorkloadSpec spec = *FindWorkload("campus_hierarchy");
  spec.buildings = 2;
  spec.floors = 2;
  spec.objects = 300;
  const FloorPlan plan = MakePlan(spec);
  const auto objects = MakeObjects(plan, spec, 9);
  IndexFramework hier(plan, ServingOptions(spec));
  PopulateStore(objects, &hier.objects());
  IndexOptions flat_options = ServingOptions(spec);
  flat_options.use_hierarchy = false;
  IndexFramework flat(plan, flat_options);
  PopulateStore(objects, &flat.objects());
  const RequestStream stream(plan, spec, 9);
  QueryScratch scratch;
  std::vector<SampledResult> samples;
  for (uint64_t i = 0; i < 30; ++i) {
    QueryResult result;
    Execute(hier, stream.At(i), &scratch, &result);
    samples.push_back(MakeSample(i, stream.At(i), result));
  }
  const OracleReport report = CheckAgainstFlat(flat, samples);
  EXPECT_EQ(report.checked, 30u);
  EXPECT_EQ(report.wrong, 0u) << report.first_mismatch;
  samples[5].value = -1.0;
  EXPECT_EQ(CheckAgainstFlat(flat, samples).wrong, 1u);
}

TEST(TraceTest, SelfTimeSubtractsChildren) {
  std::vector<SpanLane> lanes;
  lanes.emplace_back(0, 8);
  SpanLane& lane = lanes[0];
  const uint32_t root = lane.Begin("root", 1);
  const uint32_t child = lane.Begin("child", 1, root);
  lane.End(child);
  lane.End(root);
  const std::vector<SelfTime> times = SelfTimes(lanes);
  ASSERT_EQ(times.size(), 2u);
  double root_total = 0, root_self = 0, child_total = 0;
  for (const SelfTime& t : times) {
    if (t.name == "root") {
      root_total = t.total_ns;
      root_self = t.self_ns;
    } else {
      child_total = t.total_ns;
    }
  }
  EXPECT_DOUBLE_EQ(root_self, root_total - child_total);
  // A full lane drops spans instead of growing.
  for (int i = 0; i < 10; ++i) lane.End(lane.Begin("x", 2));
  EXPECT_EQ(lane.spans().size(), 8u);
  EXPECT_EQ(lane.dropped(), 4u);
}

}  // namespace
}  // namespace perfbench
