#include "sgm/fuzz/fuzz_case.h"

#include <algorithm>
#include <iterator>

#include "sgm/graph/generators.h"
#include "sgm/graph/graph_builder.h"
#include "sgm/graph/query_generator.h"
#include "sgm/util/prng.h"

namespace sgm::fuzz {

std::string ConfigSpec::Name() const {
  std::string name;
  if (recommended) {
    name = "REC";
  } else {
    name = classic ? "classic-" : "";
    name += AlgorithmName(algorithm);
  }
  name += failing_sets ? "/fs" : "/nofs";
  name += "/";
  name += IntersectionMethodName(intersection);
  if (!lc_cache) name += "/nocache";
  name += "/t" + std::to_string(threads);
  if (service) name += "/svc";
  if (inject_fault) name += "/FAULT";
  return name;
}

MatchOptions ConfigSpec::ToMatchOptions(uint32_t query_vertex_count,
                                        uint64_t max_matches,
                                        double time_limit_ms) const {
  MatchOptions options =
      recommended ? MatchOptions::Recommended(query_vertex_count)
      : classic   ? MatchOptions::Classic(algorithm)
                  : MatchOptions::Optimized(algorithm);
  // Failing sets are a pure optimization, so turning them on over any
  // preset is legal; never turn them off where the preset requires them
  // (classic DP-iso ships with them).
  options.use_failing_sets = options.use_failing_sets || failing_sets;
  options.intersection = intersection;
  options.use_lc_cache = lc_cache;
  options.max_matches = max_matches;
  options.time_limit_ms = time_limit_ms;
  options.threads = threads;
  options.debug_skip_last_root_candidate = inject_fault;
  return options;
}

namespace {

// Fallback query when random-walk extraction fails (e.g. an edgeless data
// graph): a single vertex carrying a label that exists in the data graph
// when possible, so the case still exercises the candidate pipeline.
Graph SingleVertexQuery(const Graph& data, Prng* prng) {
  GraphBuilder builder;
  const Label label =
      data.vertex_count() == 0
          ? 0
          : data.label(static_cast<Vertex>(
                prng->NextBounded(data.vertex_count())));
  builder.AddVertex(label);
  return builder.Build();
}

// Two-vertex single-edge query sampled from a data edge, so labels always
// have at least one candidate pair. ExtractQuery insists on >= 3 vertices,
// so this degenerate shape is built by hand.
std::optional<Graph> SingleEdgeQuery(const Graph& data, Prng* prng) {
  if (data.edge_count() == 0) return std::nullopt;
  // Pick a random vertex with neighbors, then a random neighbor.
  for (int attempt = 0; attempt < 32; ++attempt) {
    const Vertex u =
        static_cast<Vertex>(prng->NextBounded(data.vertex_count()));
    const auto neighbors = data.neighbors(u);
    if (neighbors.empty()) continue;
    const Vertex v = neighbors[prng->NextBounded(neighbors.size())];
    GraphBuilder builder;
    builder.AddVertex(data.label(u));
    builder.AddVertex(data.label(v));
    builder.AddEdge(0, 1);
    return builder.Build();
  }
  return std::nullopt;
}

}  // namespace

FuzzCase GenerateCase(uint64_t seed, const CaseGenOptions& options) {
  Prng prng(seed);
  FuzzCase fuzz_case;
  fuzz_case.seed = seed;

  // ---- Data graph: RMAT or Erdős–Rényi, sized for a fast brute force. ----
  const uint32_t span =
      options.max_data_vertices - options.min_data_vertices + 1;
  const uint32_t n = options.min_data_vertices +
                     static_cast<uint32_t>(prng.NextBounded(span));
  const uint64_t pairs = static_cast<uint64_t>(n) * (n - 1) / 2;
  const uint64_t max_m = std::min<uint64_t>(3 * static_cast<uint64_t>(n), pairs);
  const uint64_t min_m = std::min<uint64_t>(n, max_m);
  const uint32_t m = static_cast<uint32_t>(
      min_m + (max_m > min_m ? prng.NextBounded(max_m - min_m + 1) : 0));
  const uint32_t labels =
      1 + static_cast<uint32_t>(prng.NextBounded(options.max_labels));
  fuzz_case.data = prng.NextBernoulli(0.5)
                       ? GenerateRmat(n, m, labels, &prng)
                       : GenerateErdosRenyi(n, m, labels, &prng);
  if (labels > 1 && prng.NextBernoulli(options.skewed_label_fraction)) {
    fuzz_case.data = RelabelSkewed(fuzz_case.data, labels, 0.85, &prng);
  }

  // ---- Query: random walk + induced subgraph, shrinking on failure.
  // A small slice of cases get degenerate 1- and 2-vertex queries, which
  // ExtractQuery refuses to build (it requires >= 3 vertices). ----
  const uint32_t query_cap = std::min(options.max_query_vertices, n);
  uint32_t query_size =
      1 + static_cast<uint32_t>(prng.NextBounded(query_cap));
  std::optional<Graph> query;
  if (query_size == 2) query = SingleEdgeQuery(fuzz_case.data, &prng);
  for (; !query.has_value() && query_size >= 3; --query_size) {
    query = ExtractQuery(fuzz_case.data, query_size, QueryDensity::kAny,
                         &prng, /*max_attempts=*/50);
  }
  fuzz_case.query =
      query.has_value() ? std::move(*query)
                        : SingleVertexQuery(fuzz_case.data, &prng);

  // ---- Match budget: mostly unlimited, sometimes a small cap so the
  // limit-status agreement path gets exercised. ----
  if (prng.NextBernoulli(options.limited_budget_fraction)) {
    fuzz_case.max_matches = 1 + prng.NextBounded(50);
  }
  fuzz_case.time_limit_ms = 0.0;  // Verdicts must not depend on the host.

  // ---- Configuration matrix: all 8 presets, kernels cycled, one
  // parallel promotion. ----
  static constexpr IntersectionMethod kKernels[] = {
      IntersectionMethod::kMerge,   IntersectionMethod::kGalloping,
      IntersectionMethod::kHybrid,  IntersectionMethod::kQFilter,
      IntersectionMethod::kBitmap,  IntersectionMethod::kAuto,
  };
  constexpr size_t kKernelCount = std::size(kKernels);
  const size_t kernel_offset = prng.NextBounded(kKernelCount);
  size_t slot = 0;
  for (const Algorithm algorithm : kAllAlgorithms) {
    ConfigSpec config;
    config.algorithm = algorithm;
    config.classic = prng.NextBernoulli(0.4);
    config.failing_sets = prng.NextBernoulli(0.5);
    config.intersection = kKernels[(kernel_offset + slot++) % kKernelCount];
    config.lc_cache = prng.NextBernoulli(0.75);
    fuzz_case.configs.push_back(config);
  }
  ConfigSpec recommended;
  recommended.recommended = true;
  recommended.failing_sets = prng.NextBernoulli(0.5);
  recommended.intersection = kKernels[(kernel_offset + slot++) % kKernelCount];
  recommended.lc_cache = prng.NextBernoulli(0.75);
  fuzz_case.configs.push_back(recommended);

  // Promote one optimized config to the parallel work-stealing scheduler so
  // every case also cross-checks serial against parallel execution.
  const size_t start = prng.NextBounded(fuzz_case.configs.size());
  for (size_t i = 0; i < fuzz_case.configs.size(); ++i) {
    ConfigSpec& config =
        fuzz_case.configs[(start + i) % fuzz_case.configs.size()];
    if (!config.classic) {
      config.threads = 4;
      break;
    }
  }

  // Promote one remaining serial config to the serving layer, so every
  // case also cross-checks the plan-cache execution path (the oracle runs
  // a served config twice through one MatchService; the second run is a
  // cache hit).
  const size_t service_start = prng.NextBounded(fuzz_case.configs.size());
  for (size_t i = 0; i < fuzz_case.configs.size(); ++i) {
    ConfigSpec& config =
        fuzz_case.configs[(service_start + i) % fuzz_case.configs.size()];
    if (config.threads == 1) {
      config.service = true;
      break;
    }
  }

  // ---- Dynamic dimension: a slice of cases carries a small update stream
  // (valid against the data graph by construction); the oracle replays it
  // incrementally and diffs against a cold rematch of the final graph. ----
  if (prng.NextBernoulli(options.update_fraction)) {
    dynamic::StreamGenOptions stream_options;
    stream_options.batches = 1 + static_cast<uint32_t>(prng.NextBounded(6));
    stream_options.max_ops_per_batch =
        1 + static_cast<uint32_t>(prng.NextBounded(6));
    fuzz_case.updates =
        dynamic::GenerateUpdateStream(fuzz_case.data, stream_options, &prng);
  }
  return fuzz_case;
}

}  // namespace sgm::fuzz
