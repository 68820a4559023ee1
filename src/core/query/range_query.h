// Range query Qr(q, r) (paper §V-A1, Algorithm 5): all indoor objects
// within indoor walking distance r of position q.

#ifndef INDOOR_CORE_QUERY_RANGE_QUERY_H_
#define INDOOR_CORE_QUERY_RANGE_QUERY_H_

#include <vector>

#include "core/index/index_framework.h"

namespace indoor {

struct BucketScratch;
struct QueryScratch;
struct ResultGate;

/// Query knobs.
struct RangeQueryOptions {
  /// Use Midx to scan doors nearest-first with early termination. When
  /// false, every row entry of Md2d is examined (Fig. 8's "without d2d
  /// index"). Ignored under IndexOptions::use_hierarchy.
  bool use_index_matrix = true;
};

/// Executes Qr(q, r). Returns the qualifying object ids, sorted and unique
/// (one partition can be reached through several doors). Returns an empty
/// result when q is not inside any partition. A null `scratch` falls back
/// to the calling thread's TlsQueryScratch().
std::vector<ObjectId> RangeQuery(const IndexFramework& index, const Point& q,
                                 double r, RangeQueryOptions options = {},
                                 QueryScratch* scratch = nullptr);

namespace internal {

/// Lines 11-20 of Algorithm 5 for one DPT side (partition `part` with
/// fdv(dj, part) = `fdv`, reached at door `dj` with residual radius r2):
/// appends the whole partition when fdv <= r2, else the objects whose
/// intra-partition distance from dj's midpoint is <= r2 — the prefix of
/// the store's (part, dj) door list, equal to GridBucket::RangeSearch's
/// answer. A kInvalidId side is skipped. `deps`/`gates` (optional,
/// paired) accumulate the epoch dependency set and the repair budgets of
/// the query's cached result: every partition reached here is recorded,
/// including empty ones — reaching a partition means its population
/// matters, whether or not it currently holds objects. The reach set and
/// the budgets are object-independent (pruning uses only door distances
/// and r), so a cached result is exactly as valid as the recorded
/// partitions' epochs, and a stale one can be repaired by re-testing just
/// the moved objects against the gates. `scratch` receives telemetry.
void RangeSearchSide(const IndexFramework& index, PartitionId part,
                     double fdv, DoorId dj, double r2, BucketScratch* scratch,
                     std::vector<ObjectId>* result,
                     std::vector<PartitionId>* deps = nullptr,
                     std::vector<ResultGate>* gates = nullptr);

}  // namespace internal

}  // namespace indoor

#endif  // INDOOR_CORE_QUERY_RANGE_QUERY_H_
