// Range query Qr(q, r) (paper §V-A1, Algorithm 5): all indoor objects
// within indoor walking distance r of position q.

#ifndef INDOOR_CORE_QUERY_RANGE_QUERY_H_
#define INDOOR_CORE_QUERY_RANGE_QUERY_H_

#include <vector>

#include "core/index/index_framework.h"

namespace indoor {

struct QueryScratch;

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

}  // namespace indoor

#endif  // INDOOR_CORE_QUERY_RANGE_QUERY_H_
