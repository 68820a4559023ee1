#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "gen/building_generator.h"

namespace perfbench {

using namespace indoor;

namespace {

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// Salts keep the object, request and move streams of one seed independent
// of each other; the pool is seeded by its salt alone.
constexpr uint64_t kObjectSalt = 0x6f626a656374ull;
constexpr uint64_t kPoolSalt = 0x706f6f6cull;
constexpr uint64_t kRequestSalt = 0x72657175657374ull;
constexpr uint64_t kMoveSalt = 0x6d6f7665ull;

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    std::vector<WorkloadSpec> w;
    // Almost every query is a result-cache hit: time goes to the cache
    // probe, result copies and shared telemetry, not the door graph.
    WorkloadSpec hot;
    hot.name = "hot_reads";
    hot.floors = 10;
    hot.objects = 10000;
    hot.pool = 1024;
    hot.zipf = 0.99;
    w.push_back(hot);
    // The paper's setup (Figs. 8-9): every position fresh, so every query
    // runs locate -> legs -> Midx expansion -> grid scan.
    WorkloadSpec cold;
    cold.name = "cold_reads";
    cold.floors = 30;
    cold.objects = 50000;
    w.push_back(cold);
    // Writes beside reads: epochs, journals, cache repair, batch grouping.
    WorkloadSpec moving = hot;
    moving.name = "moving_objects";
    moving.batch_size = 256;
    moving.move_rate = 0.1;
    moving.move_batch = 64;
    w.push_back(moving);
    // The hierarchy engine over a multi-building campus.
    WorkloadSpec campus;
    campus.name = "campus_hierarchy";
    campus.buildings = 4;
    campus.floors = 10;
    campus.objects = 10000;
    campus.use_hierarchy = true;
    w.push_back(campus);
    return w;
  }();
  return workloads;
}

std::optional<WorkloadSpec> FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

FloorPlan MakePlan(const WorkloadSpec& spec) {
  BuildingConfig building;
  building.floors = spec.floors;
  building.rooms_per_floor = spec.rooms_per_floor;
  building.obstacle_probability = spec.obstacle_probability;
  if (spec.buildings > 0) {
    CampusConfig campus;
    campus.buildings = spec.buildings;
    campus.building = building;
    return GenerateCampus(campus);
  }
  return GenerateBuilding(building);
}

IndexOptions ServingOptions(const WorkloadSpec& spec) {
  IndexOptions options;
  options.build_threads = 0;
  options.use_hierarchy = spec.use_hierarchy;
  return options;
}

std::vector<GeneratedObject> MakeObjects(const FloorPlan& plan,
                                         const WorkloadSpec& spec,
                                         uint64_t seed) {
  Rng rng(Mix64(seed ^ kObjectSalt));
  return GenerateObjects(plan, spec.objects, &rng);
}

RequestStream::RequestStream(const FloorPlan& plan, const WorkloadSpec& spec,
                             uint64_t seed)
    : plan_(&plan), spec_(spec), seed_(seed), sampler_(plan) {
  if (spec.pool > 0) {
    Rng rng(kPoolSalt);
    positions_ = GenerateQueryPositions(plan, spec.pool, &rng);
    pairs_ = GeneratePositionPairs(plan, spec.pool, &rng);
    zipf_.emplace(spec.pool, spec.zipf);
  }
}

Point RequestStream::FreshPosition(Rng* rng) const {
  return RandomPointInPartition(plan_->partition(sampler_.Sample(rng)), rng);
}

QueryRequest RequestStream::At(uint64_t i) const {
  Rng rng(Mix64(seed_ ^ kRequestSalt) + Mix64(i));
  switch (i % 3) {
    case 0: {
      if (zipf_) {
        const auto& [a, b] = pairs_[zipf_->Sample(&rng)];
        return QueryRequest::Distance(a, b);
      }
      const Point a = FreshPosition(&rng);
      return QueryRequest::Distance(a, FreshPosition(&rng));
    }
    case 1:
      return QueryRequest::Range(
          zipf_ ? positions_[zipf_->Sample(&rng)] : FreshPosition(&rng),
          spec_.range_radius);
    default:
      return QueryRequest::Knn(
          zipf_ ? positions_[zipf_->Sample(&rng)] : FreshPosition(&rng),
          spec_.knn_k);
  }
}

MoveOp RequestStream::MoveAt(uint64_t j) const {
  Rng rng(Mix64(seed_ ^ kMoveSalt) + Mix64(j));
  MoveOp op;
  op.id = static_cast<ObjectId>(rng.NextIndex(spec_.objects));
  op.partition = sampler_.Sample(&rng);
  op.position = RandomPointInPartition(plan_->partition(op.partition), &rng);
  return op;
}

uint64_t StreamDigest(const RequestStream& stream, uint64_t begin,
                      uint64_t end) {
  uint64_t h = 0;
  for (uint64_t i = begin; i < end; ++i) {
    const QueryRequest r = stream.At(i);
    h = Mix64(h ^ static_cast<uint64_t>(r.kind));
    for (double v : {r.a.x, r.a.y, r.b.x, r.b.y, r.radius}) {
      h = Mix64(h ^ Bits(v));
    }
    h = Mix64(h ^ r.k);
  }
  return h;
}

Percentile ExactPercentile(std::span<double> samples, double q) {
  Percentile p;
  p.count = samples.size();
  if (samples.empty()) return p;
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(p.count))), 1,
      p.count);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.beyond = p.count - rank;
  p.resolved = q <= 0.5 || p.beyond >= 10;
  return p;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  return ExactPercentile(values, 0.5).value;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

double FailedFrac(uint64_t attempted, uint64_t errors, uint64_t wrong) {
  if (attempted == 0) return 1.0;
  return static_cast<double>(errors + wrong) /
         static_cast<double>(attempted);
}

}  // namespace perfbench
