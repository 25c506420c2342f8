// Tests of the EXPLAIN facility (sgm/explain.h): plan construction on the
// paper's Figure 1 example, the human-readable rendering, the
// no-match-possible early exit, the preprocessing spans it shares with the
// matcher through the observability layer, and the agreement of its order
// with the plan the engine executes.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sgm/explain.h"
#include "sgm/obs/collector.h"
#include "sgm/obs/phase_timer.h"
#include "test_support.h"

namespace sgm {
namespace {

using sgm::testing::kLabelD;
using sgm::testing::MakeGraph;
using sgm::testing::PaperData;
using sgm::testing::PaperQuery;

TEST(ExplainTest, PaperExamplePlanIsComplete) {
  const Graph query = PaperQuery();
  const QueryPlan plan = ExplainQuery(query, PaperData());

  EXPECT_FALSE(plan.no_match_possible);
  // Figure 1: C(u0) is exactly {v0}; every set is non-empty and no larger
  // than the label frequency allows (3 B's, 4 C's, 4 D's).
  ASSERT_EQ(plan.candidate_counts.size(), 4u);
  EXPECT_EQ(plan.candidate_counts[0], 1u);
  EXPECT_GE(plan.candidate_counts[1], 2u);
  EXPECT_LE(plan.candidate_counts[1], 3u);
  EXPECT_GE(plan.candidate_counts[2], 2u);
  EXPECT_LE(plan.candidate_counts[2], 4u);
  EXPECT_EQ(plan.candidate_counts[3], 2u);

  // The order is a permutation of the query vertices.
  std::vector<Vertex> sorted = plan.matching_order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<Vertex>{0, 1, 2, 3}));

  // The Cartesian bound is the product of the reported counts, and the
  // tree estimate is at least the true match count (2): the spanning tree
  // relaxes the query's edge constraints.
  double expected_log10 = 0.0;
  for (const uint32_t count : plan.candidate_counts) {
    expected_log10 += std::log10(static_cast<double>(count));
  }
  EXPECT_DOUBLE_EQ(plan.log10_cartesian_bound, expected_log10);
  EXPECT_GE(plan.estimated_tree_embeddings, 2.0);

  EXPECT_GT(plan.candidate_memory_bytes, 0u);
  EXPECT_GT(plan.aux_memory_bytes, 0u);
  EXPECT_GE(plan.filter_ms, 0.0);
  EXPECT_GE(plan.aux_build_ms, 0.0);
  EXPECT_GE(plan.order_ms, 0.0);
}

TEST(ExplainTest, ToStringRendersEverySection) {
  const Graph query = PaperQuery();
  MatchOptions options;
  options.use_failing_sets = true;
  const QueryPlan plan = ExplainQuery(query, PaperData(), options);
  const std::string text = plan.ToString(query);

  EXPECT_NE(text.find(std::string("filter=") + FilterMethodName(plan.filter)),
            std::string::npos);
  EXPECT_NE(text.find(std::string("order=") + OrderMethodName(plan.order)),
            std::string::npos);
  EXPECT_NE(text.find("failing-sets"), std::string::npos);
  EXPECT_NE(text.find("C(u0)=1"), std::string::npos);
  EXPECT_NE(text.find("order:"), std::string::npos);
  EXPECT_NE(text.find("est. tree embeddings"), std::string::npos);
  EXPECT_NE(text.find("memory:"), std::string::npos);
  EXPECT_NE(text.find("preprocessing:"), std::string::npos);
  EXPECT_EQ(text.find("no match possible"), std::string::npos);
}

TEST(ExplainTest, ReportsNoMatchPossible) {
  // A triangle of D-labeled vertices: the data graph has no D-D edge, so
  // every candidate set empties and the plan stops after filtering.
  const Graph query = MakeGraph({kLabelD, kLabelD, kLabelD},
                                {{0, 1}, {1, 2}, {0, 2}});
  const QueryPlan plan = ExplainQuery(query, PaperData());
  EXPECT_TRUE(plan.no_match_possible);
  EXPECT_TRUE(plan.matching_order.empty());
  const std::string text = plan.ToString(query);
  EXPECT_NE(text.find("no match possible"), std::string::npos);
}

TEST(ExplainTest, EmitsPreprocessingSpansIntoCollector) {
  obs::Collector collector;
  collector.EnableTrace();
  MatchOptions options;
  options.collector = &collector;
  const QueryPlan plan = ExplainQuery(PaperQuery(), PaperData(), options);
  EXPECT_FALSE(plan.no_match_possible);

  std::vector<std::string> names;
  for (const obs::TraceEvent& event : collector.trace_buffer().events()) {
    names.push_back(event.name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       obs::kPhaseFilter, obs::kPhaseAuxBuild,
                       obs::kPhaseOrder}));
}

// ExplainQuery builds its plan through BuildMatchPlan, so the order it
// reports is the one the engine runs — for every preset, including the
// classic ones whose own aux scope differs from the explanation's.
TEST(ExplainTest, OrderMatchesTheExecutedPlanForEveryPreset) {
  const Graph query = PaperQuery();
  const Graph data = PaperData();
  for (const Algorithm algorithm : kAllAlgorithms) {
    for (const bool classic : {true, false}) {
      SCOPED_TRACE(std::string(classic ? "classic-" : "") +
                   AlgorithmName(algorithm));
      const MatchOptions options = classic
                                       ? MatchOptions::Classic(algorithm)
                                       : MatchOptions::Optimized(algorithm);
      const QueryPlan plan = ExplainQuery(query, data, options);
      ASSERT_FALSE(plan.no_match_possible);
      EXPECT_EQ(plan.matching_order,
                MatchQuery(query, data, options).matching_order);
    }
  }
}

TEST(ExplainTest, PostponeDegreeOneMovesLeavesLast) {
  // u3 has degree... every PaperQuery vertex has degree >= 2; use a path
  // query where the endpoints are degree-one.
  const Graph query = sgm::testing::PathQuery();
  MatchOptions options;
  options.postpone_degree_one = true;
  const QueryPlan plan = ExplainQuery(query, PaperData(), options);
  if (!plan.no_match_possible) {
    ASSERT_EQ(plan.matching_order.size(), 3u);
    // The middle vertex u1 (degree 2) must come before both endpoints.
    EXPECT_EQ(plan.matching_order.front(), 1u);
  }
}

}  // namespace
}  // namespace sgm
