// Correctness oracle of the benchmark. The timed loop records the digest
// of a deterministic sample of its results (and of every executor batch);
// after the window these checks recompute the same answers by an
// independent route and count every disagreement as a wrong answer.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <span>
#include <string>

#include "core/distance/query_scratch.h"
#include "core/index/index_framework.h"
#include "core/query/batch_executor.h"

namespace perfbench {

/// The production answer to one sampled request, as result digests.
struct SampledResult {
  uint64_t index = 0;
  indoor::QueryRequest request;
  double value = 0.0;   // qdigest::DigestValue
  uint32_t count = 0;   // qdigest::DigestCount
};

SampledResult MakeSample(uint64_t index, const indoor::QueryRequest& request,
                         const indoor::QueryResult& result);

struct OracleReport {
  uint64_t checked = 0;
  uint64_t wrong = 0;
  /// Description of the first disagreement (empty when none).
  std::string first_mismatch;

  void Merge(const OracleReport& other);
};

/// Runs one request through the serving path the readers use: the
/// Md2d matrix pt2pt (or the hierarchy solver), RangeQuery and KnnQuery
/// with default options and the index's own cache.
void Execute(const indoor::IndexFramework& index,
             const indoor::QueryRequest& request,
             indoor::QueryScratch* scratch, indoor::QueryResult* out);

/// Flat workloads: range and kNN must equal reference::RangeQuery /
/// reference::KnnQuery exactly; pt2pt must match
/// reference::Pt2PtDistanceRefined within 1e-9 (relative above 1 m), the
/// tolerance of the matrix distance tests.
OracleReport CheckAgainstReference(const indoor::IndexFramework& index,
                                   std::span<const SampledResult> samples);

/// Hierarchy workloads: every answer must be bitwise identical to the one
/// a flat framework over the same plan and objects gives.
OracleReport CheckAgainstFlat(const indoor::IndexFramework& flat,
                              std::span<const SampledResult> samples);

/// Order-dependent digest of one executor batch (every result's
/// qdigest value and count, in request order).
uint64_t BatchDigest(std::span<const indoor::QueryRequest> requests,
                     std::span<const indoor::QueryResult> results);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
