#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "sgm/core/brute_force.h"
#include "sgm/graph/generators.h"
#include "sgm/graph/query_generator.h"
#include "sgm/matcher.h"
#include "sgm/parallel/task_pool.h"
#include "sgm/parallel/work_queue.h"
#include "test_support.h"

namespace sgm {
namespace {

using ::sgm::testing::MakeGraph;
using ::sgm::testing::PaperData;
using ::sgm::testing::PaperQuery;

// A maximally skewed instance: the candidates of the root query vertex are
// one hub (whose subtree holds almost all matches) plus a few decoys with
// two matches each. Only depth-1 subtree stealing spreads the hub's work;
// the parallel run must still count exactly the same matches.
//
// Data graph: hub (label 0) adjacent to every spoke (label 1); spokes form
// a cycle; each decoy (label 0) is adjacent to one adjacent spoke pair.
// Query: triangle with labels (0, 1, 1) => 2 * spokes matches via the hub
// and 2 per decoy.
struct SkewedInstance {
  Graph data;
  Graph query;
  uint64_t expected_matches;
};

SkewedInstance MakeSkewedInstance(uint32_t spokes = 40, uint32_t decoys = 6) {
  std::vector<Label> labels;
  std::vector<std::pair<Vertex, Vertex>> edges;
  labels.push_back(0);  // hub = vertex 0
  for (uint32_t s = 0; s < spokes; ++s) labels.push_back(1);
  for (uint32_t s = 0; s < spokes; ++s) {
    edges.push_back({0, 1 + s});
    edges.push_back({1 + s, 1 + (s + 1) % spokes});
  }
  for (uint32_t d = 0; d < decoys; ++d) {
    const Vertex decoy = static_cast<Vertex>(labels.size());
    labels.push_back(0);
    const uint32_t s = (d * 5) % spokes;  // any adjacent spoke pair
    edges.push_back({decoy, 1 + s});
    edges.push_back({decoy, 1 + (s + 1) % spokes});
  }
  SkewedInstance instance;
  instance.data = MakeGraph(labels, edges);
  instance.query = MakeGraph({0, 1, 1}, {{0, 1}, {0, 2}, {1, 2}});
  instance.expected_matches = 2ull * spokes + 2ull * decoys;
  return instance;
}

TEST(ParallelMatcherTest, PaperExampleAnyThreadCount) {
  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    MatchOptions options = MatchOptions::Optimized(Algorithm::kGraphQL);
    options.max_matches = 0;
    options.threads = threads;
    const MatchResult parallel = MatchQuery(PaperQuery(), PaperData(), options);
    EXPECT_EQ(parallel.match_count, 2u) << threads << " threads";
    EXPECT_GE(parallel.workers_used, 1u);
    EXPECT_LE(parallel.workers_used, threads);
  }
}

TEST(ParallelMatcherTest, AgreesWithSequentialOnRandomInputs) {
  Prng prng(808080);
  for (int round = 0; round < 6; ++round) {
    const Graph data = GenerateErdosRenyi(60, 240, 2, &prng);
    const auto query = ExtractQuery(data, 5, QueryDensity::kAny, &prng);
    if (!query.has_value()) continue;
    MatchOptions options = MatchOptions::Optimized(Algorithm::kGraphQL);
    options.max_matches = 0;
    const uint64_t sequential = MatchQuery(*query, data, options).match_count;
    for (const uint32_t threads : {2u, 3u, 5u}) {
      options.threads = threads;
      EXPECT_EQ(MatchQuery(*query, data, options).match_count, sequential)
          << "round " << round << " threads " << threads;
    }
  }
}

TEST(ParallelMatcherTest, WorksWithDpisoAdaptiveAndFailingSets) {
  Prng prng(909090);
  const Graph data = GenerateErdosRenyi(50, 220, 2, &prng);
  const auto query = ExtractQuery(data, 6, QueryDensity::kAny, &prng);
  ASSERT_TRUE(query.has_value());
  MatchOptions options = MatchOptions::Classic(Algorithm::kDPiso);
  options.max_matches = 0;
  options.threads = 4;
  const uint64_t expected = BruteForceCount(*query, data);
  EXPECT_EQ(MatchQuery(*query, data, options).match_count, expected);
}

TEST(ParallelMatcherTest, GlobalMatchBudget) {
  Prng prng(707070);
  const Graph data = GenerateErdosRenyi(80, 600, 1, &prng);
  const Graph query = ::sgm::testing::TriangleQuery();
  MatchOptions options = MatchOptions::Optimized(Algorithm::kGraphQL);
  options.max_matches = 0;
  const uint64_t total = MatchQuery(query, data, options).match_count;
  if (total < 20) GTEST_SKIP() << "instance too small";
  options.max_matches = 20;
  options.threads = 4;
  const MatchResult parallel = MatchQuery(query, data, options);
  EXPECT_EQ(parallel.match_count, 20u);
  EXPECT_TRUE(parallel.enumerate.reached_match_limit);
}

TEST(ParallelMatcherTest, CallbackSeesEveryMatchExactlyOnce) {
  MatchOptions options = MatchOptions::Optimized(Algorithm::kGraphQL);
  options.max_matches = 0;
  options.threads = 4;
  std::mutex mutex;
  std::set<std::vector<Vertex>> seen;
  const MatchResult parallel = MatchQuery(
      PaperQuery(), PaperData(), options,
      [&](std::span<const Vertex> mapping) {
        std::lock_guard<std::mutex> lock(mutex);
        EXPECT_TRUE(
            seen.emplace(mapping.begin(), mapping.end()).second);
        return true;
      });
  EXPECT_EQ(parallel.match_count, 2u);
  EXPECT_EQ(seen.size(), 2u);
}

TEST(ParallelMatcherTest, EmptyCandidatesShortCircuit) {
  const Graph query = PaperQuery();
  const Graph data =
      ::sgm::testing::MakeGraph({0, 1, 2}, {{0, 1}, {0, 2}, {1, 2}});
  MatchOptions options = MatchOptions::Optimized(Algorithm::kGraphQL);
  options.threads = 4;
  EXPECT_EQ(MatchQuery(query, data, options).match_count, 0u);
}

TEST(ParallelMatcherTest, WorkStealingMatchesSequentialOnSkewedWorkload) {
  const SkewedInstance instance = MakeSkewedInstance();
  MatchOptions options = MatchOptions::Optimized(Algorithm::kGraphQL);
  options.max_matches = 0;
  const uint64_t sequential =
      MatchQuery(instance.query, instance.data, options).match_count;
  ASSERT_EQ(sequential, instance.expected_matches);

  for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
    for (const uint64_t budget : {uint64_t{0}, uint64_t{37}}) {
      MatchOptions budgeted = options;
      budgeted.max_matches = budget;
      budgeted.threads = threads;
      const uint64_t expected =
          budget == 0 ? sequential : std::min<uint64_t>(budget, sequential);
      const MatchResult parallel =
          MatchQuery(instance.query, instance.data, budgeted);
      EXPECT_EQ(parallel.match_count, expected)
          << "threads " << threads << " budget " << budget;
      EXPECT_GE(parallel.LoadImbalance(), 1.0);
    }
  }
}

TEST(ParallelMatcherTest, TinyChunksForceSubtreeStealingAndStayExact) {
  const SkewedInstance instance = MakeSkewedInstance(60, 3);
  MatchOptions options = MatchOptions::Optimized(Algorithm::kGraphQL);
  options.max_matches = 0;
  options.use_failing_sets = true;
  // 4 roots over 4 workers: the auto chunk size is 1, so the hub root
  // becomes a lone chunk that only subtree stealing can split.
  options.threads = 4;
  const MatchResult parallel =
      MatchQuery(instance.query, instance.data, options);
  EXPECT_EQ(parallel.match_count, instance.expected_matches);
  EXPECT_EQ(parallel.chunk_size, 1u);

  uint64_t chunks = 0;
  uint64_t stolen = 0;
  uint64_t matches = 0;
  for (const WorkerStats& w : parallel.worker_stats) {
    chunks += w.root_chunks;
    stolen += w.stolen_subtasks;
    matches += w.matches_found;
  }
  // Every root candidate is one chunk; each is processed exactly once.
  EXPECT_EQ(chunks, 4u);  // 1 hub + 3 decoys
  // Executed subtasks never exceed published ones, and per-worker match
  // counts add up to the global count (no budget, so nothing suppressed).
  EXPECT_LE(stolen, parallel.subtasks_published);
  EXPECT_EQ(matches, instance.expected_matches);
}

TEST(ParallelMatcherTest, StealingRespectsBudgetWithCallback) {
  const SkewedInstance instance = MakeSkewedInstance();
  MatchOptions options = MatchOptions::Optimized(Algorithm::kGraphQL);
  options.max_matches = 11;
  options.threads = 4;
  std::atomic<uint64_t> delivered{0};
  const MatchResult parallel = MatchQuery(
      instance.query, instance.data, options,
      [&](std::span<const Vertex>) {
        delivered.fetch_add(1);
        return true;
      });
  // With a callback, counting is exact: count == callbacks delivered.
  EXPECT_EQ(parallel.match_count, 11u);
  EXPECT_EQ(delivered.load(), 11u);
  EXPECT_TRUE(parallel.enumerate.reached_match_limit);
}

TEST(ParallelMatcherTest, CallbackVetoCountsDeliveredMatch) {
  const SkewedInstance instance = MakeSkewedInstance();
  MatchOptions options = MatchOptions::Optimized(Algorithm::kGraphQL);
  options.max_matches = 0;
  options.threads = 4;
  std::atomic<uint64_t> delivered{0};
  const MatchResult parallel = MatchQuery(
      instance.query, instance.data, options,
      [&](std::span<const Vertex>) {
        return delivered.fetch_add(1) + 1 < 5;  // veto the 5th match
      });
  // Delivered-match semantics: the vetoed 5th match still counts, and no
  // match is delivered after the veto.
  EXPECT_EQ(delivered.load(), 5u);
  EXPECT_EQ(parallel.match_count, 5u);
}

TEST(WorkQueueTest, ChunkQueueHandsOutEveryIndexOnce) {
  parallel::ChunkQueue queue(1000, 7);
  EXPECT_EQ(queue.RemainingChunks(), (1000u + 6) / 7);
  std::vector<uint32_t> claimed(1000, 0);
  std::mutex mutex;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      uint32_t begin, end;
      while (queue.NextChunk(&begin, &end)) {
        ASSERT_LT(begin, end);
        ASSERT_LE(end, 1000u);
        std::lock_guard<std::mutex> lock(mutex);
        for (uint32_t i = begin; i < end; ++i) ++claimed[i];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(claimed[i], 1u) << i;
  EXPECT_EQ(queue.RemainingChunks(), 0u);
}

TEST(WorkQueueTest, AutoChunkSizeBounds) {
  EXPECT_EQ(parallel::AutoChunkSize(0, 1), 1u);
  EXPECT_GE(parallel::AutoChunkSize(10, 8), 1u);
  EXPECT_LE(parallel::AutoChunkSize(1u << 30, 2), 256u);
  // Single worker: one chunk, no dispatch overhead.
  EXPECT_EQ(parallel::AutoChunkSize(500, 1), 500u);
}

TEST(TaskPoolTest, DrainsChunksThenTerminates) {
  parallel::TaskPool pool(1, 10, 4);
  parallel::WorkItem item;
  uint32_t seen = 0;
  while (pool.NextWork(&item)) {
    ASSERT_EQ(item.kind, parallel::WorkItem::Kind::kRootChunk);
    seen += item.end - item.begin;
  }
  EXPECT_EQ(seen, 10u);
}

TEST(TaskPoolTest, OfferSplitDeclinesWhileRootChunksRemain) {
  parallel::TaskPool pool(2, 100, 10);
  // Root chunks still unclaimed: no split, range returned unchanged.
  EXPECT_EQ(pool.OfferSplit(0, 5, 50), 50u);
}

}  // namespace
}  // namespace sgm
