// Figure 18: the friendster experiment — the largest graph in the paper
// (124M vertices / 1.8B edges), substituted by the largest RMAT analog this
// machine accommodates (see DESIGN.md). The protocol is the paper's: vary
// the density by randomly keeping 40/60/80/100% of the edges, and vary |Σ|
// over {64, 96, 128, 160}; report the mean query time of GQLfs and RIfs on
// Q16D.
#include "report.h"
#include "runner.h"

namespace sgm::bench {
namespace {

MatchOptions Configured(Algorithm algorithm, const BenchConfig& config) {
  MatchOptions options = MatchOptions::Optimized(algorithm);
  options.use_failing_sets = true;
  options.max_matches = config.max_matches;
  options.time_limit_ms = config.time_limit_ms;
  return options;
}

void Report(const Graph& data, const BenchConfig& config,
            const std::string& label) {
  const auto queries = MakeQuerySet(data, 16, QueryDensity::kDense,
                                    std::min(config.queries_per_set, 10u),
                                    config.seed);
  if (queries.empty()) {
    PrintRow({label, "-", "-"});
    return;
  }
  PrintRow({label,
            FormatDouble(RunQuerySet(data, queries,
                                     Configured(Algorithm::kGraphQL, config))
                             .total_ms.mean()),
            FormatDouble(RunQuerySet(data, queries,
                                     Configured(Algorithm::kRI, config))
                             .total_ms.mean())});
}

void Run() {
  const BenchConfig config = LoadBenchConfig();
  PrintBanner("Figure 18",
              "friendster analog (RMAT): mean query time (ms) of GQLfs and"
              " RIfs on Q16D",
              config);

  const uint32_t vertices = config.full_scale ? 2000000 : 200000;
  const uint32_t edges = config.full_scale ? 30000000 : 2000000;
  std::printf("analog: |V|=%u |E|=%u (paper: 124M/1.8B; see DESIGN.md)\n",
              vertices, edges);

  Prng prng(config.seed + 18);
  const Graph base = GenerateRmat(vertices, edges, 64, &prng);

  std::printf("\n(a) vary density (|Σ|=64)\n");
  PrintHeaderRow({"edges-kept", "GQLfs", "RIfs"});
  for (const double ratio : {0.4, 0.6, 0.8, 1.0}) {
    Prng sample_prng(config.seed + static_cast<uint64_t>(ratio * 100));
    const Graph data =
        ratio < 1.0 ? SampleEdges(base, ratio, &sample_prng) : base;
    Report(data, config, FormatDouble(ratio * 100, 0) + "%");
  }

  std::printf("\n(b) vary |Σ| (all edges)\n");
  PrintHeaderRow({"|Sigma|", "GQLfs", "RIfs"});
  for (const uint32_t labels : {64u, 96u, 128u, 160u}) {
    Prng relabel_prng(config.seed + labels);
    const Graph data = RelabelUniform(base, labels, &relabel_prng);
    Report(data, config, FormatCount(labels));
  }
}

}  // namespace
}  // namespace sgm::bench

int main() {
  sgm::bench::Run();
  return 0;
}
