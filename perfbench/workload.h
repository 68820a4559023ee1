// Workload definitions of the repository benchmark: the four serving
// workloads, their seeded request and move streams, and the small
// statistics helpers the benchmark reports with.
//
// The floor plan and the hot-position pool of a workload are fixed (the
// deployment); the seed drives everything that arrives: the object
// population, the request stream and the move schedule. Every input is a
// pure function of (workload, seed, index): request i of a stream is
// generated from its own Rng seeded by (seed, i), so any thread may
// materialize any request, the stream never runs out, and two runs with
// the same seed issue identical requests in identical positions.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/index/index_framework.h"
#include "core/query/batch_executor.h"
#include "gen/object_generator.h"
#include "gen/query_generator.h"

namespace perfbench {

/// One benchmark workload. Sizes are fixed per workload; only the seed
/// varies between runs.
struct WorkloadSpec {
  std::string name;
  /// Campus of `buildings` buildings when > 0, one building otherwise.
  int buildings = 0;
  int floors = 10;
  int rooms_per_floor = 30;
  double obstacle_probability = 0.5;
  size_t objects = 10000;
  /// Query positions/pairs are drawn Zipf(`zipf`) from a pool of `pool`
  /// entries; pool == 0 draws every position fresh.
  size_t pool = 0;
  double zipf = 0.0;
  double range_radius = 20.0;
  size_t knn_k = 10;
  bool use_hierarchy = false;
  /// Reads go through one BatchExecutor in batches of `batch_size`,
  /// with `move_rate` moves per query applied in ApplyMoveBatch calls of
  /// `move_batch` between query batches. batch_size == 0: closed loop of
  /// reader threads.
  size_t batch_size = 0;
  double move_rate = 0.0;
  size_t move_batch = 64;
};

/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& Workloads();
/// The workload named `name`, or nullopt.
std::optional<WorkloadSpec> FindWorkload(const std::string& name);

/// The floor plan of a workload (GenerateBuilding or GenerateCampus with
/// the generators' default jitter seed).
indoor::FloorPlan MakePlan(const WorkloadSpec& spec);

/// The index options every workload serves with: the library defaults
/// (query cache, landmarks and bucket queue on) plus a parallel build on
/// all cores, as `indoor_tool serve` builds.
indoor::IndexOptions ServingOptions(const WorkloadSpec& spec);

/// The initial object population (generation is not part of set-up time).
std::vector<indoor::GeneratedObject> MakeObjects(
    const indoor::FloorPlan& plan, const WorkloadSpec& spec, uint64_t seed);

/// Index domains of one stream: measured requests use [0, 2^40); warm-up,
/// probe and traced-tail requests live in disjoint domains so they never
/// repeat a measured position by construction.
inline constexpr uint64_t kWarmupDomain = uint64_t{1} << 41;
inline constexpr uint64_t kProbeDomain = uint64_t{1} << 42;
inline constexpr uint64_t kTailDomain = uint64_t{1} << 43;

/// The seeded request stream of a workload over one plan. Request i has
/// kind i % 3 (pt2pt, range, kNN: a 1:1:1 mix). Thread-safe (const).
class RequestStream {
 public:
  RequestStream(const indoor::FloorPlan& plan, const WorkloadSpec& spec,
                uint64_t seed);

  indoor::QueryRequest At(uint64_t i) const;

  /// Pool entries (empty for fresh-position workloads); the warm-up pass
  /// runs every pooled request of every kind once.
  const std::vector<indoor::Point>& pool_positions() const {
    return positions_;
  }
  const std::vector<std::pair<indoor::Point, indoor::Point>>& pool_pairs()
      const {
    return pairs_;
  }

  /// The move schedule: move j relocates a uniformly drawn object to a
  /// random position of a two-stage-sampled partition.
  indoor::MoveOp MoveAt(uint64_t j) const;

  const WorkloadSpec& spec() const { return spec_; }

 private:
  indoor::Point FreshPosition(indoor::Rng* rng) const;

  const indoor::FloorPlan* plan_;
  WorkloadSpec spec_;
  uint64_t seed_;
  indoor::PartitionSampler sampler_;
  std::vector<indoor::Point> positions_;
  std::vector<std::pair<indoor::Point, indoor::Point>> pairs_;
  std::optional<indoor::ZipfSampler> zipf_;
};

/// A stable 64-bit digest of requests [begin, end) of a stream (kinds,
/// coordinate bit patterns, radius, k).
uint64_t StreamDigest(const RequestStream& stream, uint64_t begin,
                      uint64_t end);

/// One exact percentile read from a sample set.
struct Percentile {
  /// The sample at nearest rank ceil(q * n) of the sorted samples.
  double value = 0.0;
  size_t count = 0;
  /// Samples strictly above the percentile's rank.
  size_t beyond = 0;
  /// A tail percentile is reported only with at least 10 samples beyond
  /// it; below that it is flagged instead.
  bool resolved = false;
};

/// Nearest-rank percentile q in (0, 1] of `samples` (reordered in place
/// by nth_element). Empty input gives an unresolved zero.
Percentile ExactPercentile(std::span<double> samples, double q);

/// Median of a small sample (copied), 0 for an empty one.
double Median(std::vector<double> values);

/// True when `name` is a legal metric name: [A-Za-z0-9_.-]+.
bool ValidMetricName(const std::string& name);

/// (errors + wrong answers) / attempted operations.
double FailedFrac(uint64_t attempted, uint64_t errors, uint64_t wrong);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
