#include "sgm/matcher.h"

#include <algorithm>
#include <utility>

#include "sgm/plan.h"

namespace sgm {

const char* AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kQuickSI:
      return "QSI";
    case Algorithm::kGraphQL:
      return "GQL";
    case Algorithm::kCFL:
      return "CFL";
    case Algorithm::kCECI:
      return "CECI";
    case Algorithm::kDPiso:
      return "DP";
    case Algorithm::kRI:
      return "RI";
    case Algorithm::kVF2pp:
      return "2PP";
  }
  return "unknown";
}

MatchOptions MatchOptions::Classic(Algorithm algorithm) {
  MatchOptions options;
  switch (algorithm) {
    case Algorithm::kQuickSI:
      options.filter = FilterMethod::kLDF;
      options.order = OrderMethod::kQuickSI;
      options.lc_method = LocalCandidateMethod::kNeighborScan;
      options.aux_scope = AuxEdgeScope::kNone;
      break;
    case Algorithm::kGraphQL:
      options.filter = FilterMethod::kGraphQL;
      options.order = OrderMethod::kGraphQL;
      options.lc_method = LocalCandidateMethod::kCandidateScan;
      options.aux_scope = AuxEdgeScope::kNone;
      break;
    case Algorithm::kCFL:
      options.filter = FilterMethod::kCFL;
      options.order = OrderMethod::kCFL;
      options.lc_method = LocalCandidateMethod::kPivotIndex;
      options.aux_scope = AuxEdgeScope::kTreeEdges;
      break;
    case Algorithm::kCECI:
      options.filter = FilterMethod::kCECI;
      options.order = OrderMethod::kCECI;
      options.lc_method = LocalCandidateMethod::kIntersect;
      options.aux_scope = AuxEdgeScope::kAllEdges;
      break;
    case Algorithm::kDPiso:
      options.filter = FilterMethod::kDPiso;
      options.order = OrderMethod::kDPiso;
      options.lc_method = LocalCandidateMethod::kIntersect;
      options.aux_scope = AuxEdgeScope::kAllEdges;
      options.adaptive_order = true;
      options.use_failing_sets = true;  // DP-iso proposed and ships with it
      options.postpone_degree_one = true;  // DP-iso's leaf decomposition
      break;
    case Algorithm::kRI:
      options.filter = FilterMethod::kLDF;
      options.order = OrderMethod::kRI;
      options.lc_method = LocalCandidateMethod::kNeighborScan;
      options.aux_scope = AuxEdgeScope::kNone;
      break;
    case Algorithm::kVF2pp:
      options.filter = FilterMethod::kLDF;
      options.order = OrderMethod::kVF2pp;
      options.lc_method = LocalCandidateMethod::kNeighborScan;
      options.aux_scope = AuxEdgeScope::kNone;
      options.vf2pp_lookahead = true;
      break;
  }
  return options;
}

MatchOptions MatchOptions::Optimized(Algorithm algorithm) {
  MatchOptions options = Classic(algorithm);
  // The §5.2 optimization: maintain candidate edges for every query edge and
  // compute local candidates by set intersection; drop VF2++'s extra rules.
  options.lc_method = LocalCandidateMethod::kIntersect;
  options.aux_scope = AuxEdgeScope::kAllEdges;
  options.vf2pp_lookahead = false;
  options.use_failing_sets = false;
  // §5.3: the direct-enumeration algorithms get GraphQL's candidate sets so
  // the comparison isolates the ordering method.
  if (algorithm == Algorithm::kQuickSI || algorithm == Algorithm::kRI ||
      algorithm == Algorithm::kVF2pp) {
    options.filter = FilterMethod::kGraphQL;
  }
  // The optimized DP keeps its adaptive ordering but, like the others in
  // §5.3, failing sets stay off unless the caller turns them on.
  return options;
}

MatchOptions MatchOptions::Recommended(uint32_t query_vertex_count) {
  MatchOptions options = Optimized(Algorithm::kGraphQL);
  options.use_failing_sets = query_vertex_count > 8;
  return options;
}

double MatchResult::LoadImbalance() const {
  double max_busy = 0.0;
  double total_busy = 0.0;
  for (const WorkerStats& w : worker_stats) {
    max_busy = std::max(max_busy, w.busy_ms);
    total_busy += w.busy_ms;
  }
  if (worker_stats.empty() || total_busy <= 0.0) return 1.0;
  return max_busy * static_cast<double>(worker_stats.size()) / total_busy;
}

MatchResult MatchQuery(const Graph& query, const Graph& data,
                       const MatchOptions& options,
                       const MatchCallback& callback) {
  // Build-then-execute: the preprocessing phases live in BuildMatchPlan so
  // the plan cache of service/service.h can retain and replay them; a
  // one-shot call composes the two halves back into the original pipeline.
  const auto plan = BuildMatchPlan(query, data, options);
  return ExecutePlan(query, data, *plan, options, callback);
}

bool ContainsSubgraph(const Graph& query, const Graph& data,
                      const MatchOptions& options) {
  MatchOptions first_match = options;
  first_match.max_matches = 1;
  return MatchQuery(query, data, first_match).match_count > 0;
}

std::vector<std::vector<Vertex>> CollectMatches(const Graph& query,
                                                const Graph& data,
                                                const MatchOptions& options) {
  std::vector<std::vector<Vertex>> matches;
  MatchQuery(query, data, options,
             [&matches](std::span<const Vertex> mapping) {
               matches.emplace_back(mapping.begin(), mapping.end());
               return true;
             });
  return matches;
}

}  // namespace sgm
