#include "sgm/explain.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>

#include "sgm/plan.h"

namespace sgm {

QueryPlan ExplainQuery(const Graph& query, const Graph& data,
                       const MatchOptions& options) {
  QueryPlan plan;
  plan.filter = options.filter;
  plan.order = options.order;
  plan.lc_method = options.lc_method;
  plan.use_failing_sets = options.use_failing_sets;
  plan.adaptive_order = options.adaptive_order;

  // The explanation always builds the all-edges structure: it is what the
  // tree-embedding estimate needs, and a superset of every scope.
  MatchOptions build_options = options;
  build_options.aux_scope = AuxEdgeScope::kAllEdges;
  const std::unique_ptr<MatchPlan> built =
      BuildMatchPlan(query, data, build_options);
  plan.filter_ms = built->filter_ms;
  plan.aux_build_ms = built->aux_build_ms;
  plan.order_ms = built->order_ms;
  plan.candidate_memory_bytes = built->candidate_memory_bytes;
  plan.aux_memory_bytes = built->aux_memory_bytes;
  plan.candidate_counts.resize(query.vertex_count());
  for (Vertex u = 0; u < query.vertex_count(); ++u) {
    plan.candidate_counts[u] = built->candidates.Count(u);
    plan.log10_cartesian_bound +=
        std::log10(std::max<uint32_t>(1, plan.candidate_counts[u]));
  }
  if (built->empty_candidates) {
    plan.no_match_possible = true;
    return plan;
  }
  plan.matching_order = built->matching_order;

  // Tree-embedding estimate: DP-iso's weight array over the chosen order;
  // summing the root weights over its candidates estimates the number of
  // embeddings of the order's tree-like skeleton. Adaptive plans carry the
  // array already.
  DpisoWeights own_weights;
  if (!options.adaptive_order) {
    own_weights = DpisoWeights::Build(query, built->candidates, built->aux,
                                      built->matching_order);
  }
  const DpisoWeights& weights =
      options.adaptive_order ? built->weights : own_weights;
  const Vertex root = plan.matching_order.front();
  double total = 0.0;
  for (uint32_t ci = 0; ci < built->candidates.Count(root); ++ci) {
    total += weights.WeightByIndex(root, ci);
  }
  plan.estimated_tree_embeddings = total;
  return plan;
}

std::string QueryPlan::ToString(const Graph& query) const {
  std::ostringstream out;
  out << "plan: filter=" << FilterMethodName(filter)
      << " order=" << OrderMethodName(order)
      << " lc=" << LocalCandidateMethodName(lc_method)
      << (adaptive_order ? " adaptive" : "")
      << (use_failing_sets ? " failing-sets" : "") << "\n";
  if (no_match_possible) {
    out << "  no match possible: some candidate set is empty\n";
  }
  out << "  candidates:";
  for (Vertex u = 0; u < query.vertex_count(); ++u) {
    out << " C(u" << u << ")=" << candidate_counts[u];
  }
  out << "\n  order:";
  for (const Vertex u : matching_order) out << " u" << u;
  out << "\n  log10 cartesian bound = " << log10_cartesian_bound
      << ", est. tree embeddings = " << estimated_tree_embeddings << "\n";
  out << "  memory: candidates " << candidate_memory_bytes << " B, aux "
      << aux_memory_bytes << " B\n";
  out << "  preprocessing: filter " << filter_ms << " ms, aux "
      << aux_build_ms << " ms, order " << order_ms << " ms\n";
  return out.str();
}

}  // namespace sgm
