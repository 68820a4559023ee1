#include "oracle.h"

#include <cmath>
#include <cstdio>
#include <cstring>

#include "core/distance/hierarchy_distance.h"
#include "core/distance/matrix_distance.h"
#include "core/query/knn_query.h"
#include "core/query/range_query.h"
#include "core/query/reference_impls.h"
#include "core/query/result_digest.h"

namespace perfbench {

using namespace indoor;

namespace {

const char* KindName(QueryRequest::Kind kind) {
  switch (kind) {
    case QueryRequest::Kind::kDistance:
      return "pt2pt";
    case QueryRequest::Kind::kRange:
      return "range";
    case QueryRequest::Kind::kKnn:
      return "knn";
  }
  return "?";
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

void Record(const SampledResult& sample, double want_value,
            uint32_t want_count, bool agree, OracleReport* report) {
  ++report->checked;
  if (agree) return;
  ++report->wrong;
  if (report->first_mismatch.empty()) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s request %llu at (%.6f, %.6f): got %.17g/%u, oracle "
                  "%.17g/%u",
                  KindName(sample.request.kind),
                  static_cast<unsigned long long>(sample.index),
                  sample.request.a.x, sample.request.a.y, sample.value,
                  sample.count, want_value, want_count);
    report->first_mismatch = buf;
  }
}

}  // namespace

SampledResult MakeSample(uint64_t index, const QueryRequest& request,
                         const QueryResult& result) {
  SampledResult sample;
  sample.index = index;
  sample.request = request;
  sample.value = qdigest::DigestValue(request, result);
  sample.count = qdigest::DigestCount(request, result);
  return sample;
}

void OracleReport::Merge(const OracleReport& other) {
  checked += other.checked;
  wrong += other.wrong;
  if (first_mismatch.empty()) first_mismatch = other.first_mismatch;
}

void Execute(const IndexFramework& index, const QueryRequest& request,
             QueryScratch* scratch, QueryResult* out) {
  switch (request.kind) {
    case QueryRequest::Kind::kDistance:
      out->distance =
          index.has_flat_matrix()
              ? Pt2PtDistanceMatrix(index.locator(), index.d2d_matrix(),
                                    request.a, request.b, scratch,
                                    index.query_cache())
              : Pt2PtDistanceHierarchy(index.locator(), index.graph(),
                                       index.hierarchy_index(), request.a,
                                       request.b, scratch,
                                       index.query_cache(),
                                       index.queue_kind());
      return;
    case QueryRequest::Kind::kRange:
      out->ids = RangeQuery(index, request.a, request.radius, {}, scratch);
      return;
    case QueryRequest::Kind::kKnn:
      out->neighbors = KnnQuery(index, request.a, request.k, {}, scratch);
      return;
  }
}

OracleReport CheckAgainstReference(const IndexFramework& index,
                                   std::span<const SampledResult> samples) {
  OracleReport report;
  const DistanceContext ctx(index.graph(), index.locator());
  for (const SampledResult& sample : samples) {
    const QueryRequest& r = sample.request;
    QueryResult want;
    switch (r.kind) {
      case QueryRequest::Kind::kDistance:
        want.distance =
            reference::Pt2PtDistanceRefined(ctx, r.a, r.b);
        break;
      case QueryRequest::Kind::kRange:
        want.ids = reference::RangeQuery(index, r.a, r.radius);
        break;
      case QueryRequest::Kind::kKnn:
        want.neighbors = reference::KnnQuery(index, r.a, r.k);
        break;
    }
    const double value = qdigest::DigestValue(r, want);
    const uint32_t count = qdigest::DigestCount(r, want);
    bool agree = false;
    if (r.kind == QueryRequest::Kind::kDistance) {
      agree = BitEqual(sample.value, value) ||
              std::fabs(sample.value - value) <=
                  1e-9 * std::max(1.0, std::fabs(value));
    } else {
      agree = BitEqual(sample.value, value) && sample.count == count;
    }
    Record(sample, value, count, agree, &report);
  }
  return report;
}

OracleReport CheckAgainstFlat(const IndexFramework& flat,
                              std::span<const SampledResult> samples) {
  OracleReport report;
  QueryScratch scratch;
  for (const SampledResult& sample : samples) {
    QueryResult want;
    Execute(flat, sample.request, &scratch, &want);
    const double value = qdigest::DigestValue(sample.request, want);
    const uint32_t count = qdigest::DigestCount(sample.request, want);
    Record(sample, value, count,
           BitEqual(sample.value, value) && sample.count == count, &report);
  }
  return report;
}

uint64_t BatchDigest(std::span<const QueryRequest> requests,
                     std::span<const QueryResult> results) {
  uint64_t h = requests.size();
  for (size_t i = 0; i < requests.size() && i < results.size(); ++i) {
    uint64_t bits = 0;
    const double value = qdigest::DigestValue(requests[i], results[i]);
    std::memcpy(&bits, &value, sizeof(bits));
    h = qdigest::Mix(h ^ bits) ^
        qdigest::Mix(qdigest::DigestCount(requests[i], results[i]));
  }
  return h;
}

}  // namespace perfbench
