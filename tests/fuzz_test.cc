// Tests for the differential fuzzing subsystem: deterministic case
// generation, reproducer round-trips, oracle agreement on healthy engines,
// and the full find-minimize pipeline against an injected enumerator fault.
#include <gtest/gtest.h>

#include <iterator>
#include <sstream>
#include <string>

#include "sgm/fuzz/fuzz_case.h"
#include "sgm/fuzz/minimize.h"
#include "sgm/fuzz/oracle.h"
#include "sgm/fuzz/reproducer.h"

namespace sgm::fuzz {
namespace {

TEST(FuzzCaseTest, GenerationIsDeterministic) {
  for (const uint64_t seed : {1ULL, 7ULL, 123456789ULL}) {
    const FuzzCase a = GenerateCase(seed);
    const FuzzCase b = GenerateCase(seed);
    EXPECT_EQ(a.data.vertex_count(), b.data.vertex_count());
    EXPECT_EQ(a.data.edge_count(), b.data.edge_count());
    EXPECT_EQ(a.query.vertex_count(), b.query.vertex_count());
    EXPECT_EQ(a.max_matches, b.max_matches);
    ASSERT_EQ(a.configs.size(), b.configs.size());
    for (size_t i = 0; i < a.configs.size(); ++i) {
      EXPECT_EQ(a.configs[i].Name(), b.configs[i].Name());
    }
    for (Vertex v = 0; v < a.data.vertex_count(); ++v) {
      ASSERT_EQ(a.data.label(v), b.data.label(v));
      ASSERT_EQ(a.data.degree(v), b.data.degree(v));
    }
  }
}

TEST(FuzzCaseTest, CoversTheConfigMatrix) {
  // Across a modest seed range every algorithm, both intersection extremes,
  // classic and optimized variants, and a parallel promotion must show up.
  bool saw_classic = false, saw_parallel = false, saw_fs = false;
  bool saw_recommended = false;
  uint32_t algorithms_seen = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const FuzzCase fuzz_case = GenerateCase(seed);
    EXPECT_GE(fuzz_case.configs.size(), 8u);
    uint64_t algo_bits = 0;
    for (const ConfigSpec& config : fuzz_case.configs) {
      saw_classic |= config.classic;
      saw_parallel |= config.threads > 1;
      saw_fs |= config.failing_sets;
      saw_recommended |= config.recommended;
      if (!config.recommended) {
        algo_bits |= 1ULL << static_cast<int>(config.algorithm);
      }
    }
    algorithms_seen |= static_cast<uint32_t>(algo_bits);
  }
  EXPECT_TRUE(saw_classic);
  EXPECT_TRUE(saw_parallel);
  EXPECT_TRUE(saw_fs);
  EXPECT_TRUE(saw_recommended);
  EXPECT_EQ(algorithms_seen, (1u << std::size(kAllAlgorithms)) - 1)
      << "every algorithm should appear across 40 seeds";
}

TEST(FuzzOracleTest, HealthyEnginesAgreeOnManySeeds) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const FuzzCase fuzz_case = GenerateCase(seed);
    const OracleResult result = RunOracle(fuzz_case);
    EXPECT_FALSE(result.Failed())
        << "seed " << seed << ": " << VerdictKindName(result.kind) << " — "
        << result.detail;
  }
}

TEST(FuzzOracleTest, RejectsOutOfContractQueries) {
  FuzzCase fuzz_case = GenerateCase(3);
  fuzz_case.query = Graph();  // 0 vertices.
  const OracleResult result = RunOracle(fuzz_case);
  EXPECT_EQ(result.kind, VerdictKind::kRejected);
  EXPECT_FALSE(result.Failed());
}

TEST(FuzzCaseTest, UpdateFractionControlsTheDynamicDimension) {
  CaseGenOptions always;
  always.update_fraction = 1.0;
  CaseGenOptions never;
  never.update_fraction = 0.0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    EXPECT_FALSE(GenerateCase(seed, always).updates.batches.empty())
        << "seed " << seed;
    EXPECT_TRUE(GenerateCase(seed, never).updates.batches.empty())
        << "seed " << seed;
  }
}

// Property 4: the incremental replay of every generated update stream must
// land on exactly the embedding set a cold rematch of the final graph
// produces. Healthy engines ⇒ no dynamic-mismatch over many seeds.
TEST(FuzzOracleTest, DynamicReplayAgreesOnManySeeds) {
  CaseGenOptions gen_options;
  gen_options.update_fraction = 1.0;
  uint64_t batches_checked = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const FuzzCase fuzz_case = GenerateCase(seed, gen_options);
    const OracleResult result = RunOracle(fuzz_case);
    EXPECT_FALSE(result.Failed())
        << "seed " << seed << ": " << VerdictKindName(result.kind) << " — "
        << result.detail;
    batches_checked += result.dynamic_batches;
  }
  EXPECT_GT(batches_checked, 0u)
      << "the dynamic check never actually replayed a batch";
}

TEST(FuzzOracleTest, DynamicMismatchVerdictRoundTrips) {
  VerdictKind kind = VerdictKind::kAgree;
  ASSERT_TRUE(ParseVerdictKind("dynamic-mismatch", &kind));
  EXPECT_EQ(kind, VerdictKind::kDynamicMismatch);
  EXPECT_STREQ(VerdictKindName(VerdictKind::kDynamicMismatch),
               "dynamic-mismatch");
}

TEST(FuzzReproducerTest, RoundTripsThroughText) {
  const FuzzCase original = GenerateCase(42);
  Reproducer reproducer{original, VerdictKind::kAgree};
  std::ostringstream out;
  WriteReproducer(reproducer, out);

  std::istringstream in(out.str());
  std::string error;
  const auto loaded = ReadReproducer(in, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->fuzz_case.seed, original.seed);
  EXPECT_EQ(loaded->fuzz_case.max_matches, original.max_matches);
  EXPECT_EQ(loaded->fuzz_case.data.vertex_count(),
            original.data.vertex_count());
  EXPECT_EQ(loaded->fuzz_case.data.edge_count(), original.data.edge_count());
  EXPECT_EQ(loaded->fuzz_case.query.vertex_count(),
            original.query.vertex_count());
  ASSERT_EQ(loaded->fuzz_case.configs.size(), original.configs.size());
  for (size_t i = 0; i < original.configs.size(); ++i) {
    EXPECT_EQ(loaded->fuzz_case.configs[i].Name(),
              original.configs[i].Name());
  }
  // The loaded case must evaluate identically.
  const OracleResult a = RunOracle(original);
  const OracleResult b = RunOracle(loaded->fuzz_case);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.reference_count, b.reference_count);
}

TEST(FuzzReproducerTest, UpdateStreamRoundTrips) {
  CaseGenOptions gen_options;
  gen_options.update_fraction = 1.0;
  const FuzzCase original = GenerateCase(7, gen_options);
  ASSERT_FALSE(original.updates.batches.empty());
  Reproducer reproducer{original, VerdictKind::kAgree};
  std::ostringstream out;
  WriteReproducer(reproducer, out);
  EXPECT_NE(out.str().find("\nupdates\n"), std::string::npos);

  std::istringstream in(out.str());
  std::string error;
  const auto loaded = ReadReproducer(in, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  const dynamic::UpdateStream& replayed = loaded->fuzz_case.updates;
  ASSERT_EQ(replayed.batches.size(), original.updates.batches.size());
  for (size_t b = 0; b < replayed.batches.size(); ++b) {
    EXPECT_EQ(replayed.batches[b].ops, original.updates.batches[b].ops)
        << "batch " << b;
  }
  // The replayed case must evaluate identically, dynamic counters included.
  const OracleResult a = RunOracle(original);
  const OracleResult b = RunOracle(loaded->fuzz_case);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.dynamic_batches, b.dynamic_batches);
  EXPECT_EQ(a.dynamic_additions, b.dynamic_additions);
  EXPECT_EQ(a.dynamic_retractions, b.dynamic_retractions);
}

// Reproducers written while sharded execution existed (every slow-query
// log record among them) carry `sh=<K> part=<name>` on each config line.
// sh=0/sh=1 with any partitioner described a monolithic run, so such files
// must keep replaying exactly as their key-free equivalent.
TEST(FuzzReproducerTest, LegacyShardKeysAreIgnored) {
  const FuzzCase original = GenerateCase(42);
  ASSERT_FALSE(original.configs.empty());
  std::ostringstream out;
  WriteReproducer({original, VerdictKind::kAgree}, out);
  const std::string text = out.str();
  EXPECT_EQ(text.find(" sh="), std::string::npos);

  std::string legacy_text;
  std::istringstream lines(text);
  std::string line;
  bool odd = false;
  while (std::getline(lines, line)) {
    if (line.rfind("config ", 0) == 0) {
      line += odd ? " sh=0 part=hash" : " sh=1 part=greedy";
      odd = !odd;
    }
    legacy_text += line + '\n';
  }
  std::istringstream legacy(legacy_text);
  std::string error;
  const auto loaded = ReadReproducer(legacy, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  ASSERT_EQ(loaded->fuzz_case.configs.size(), original.configs.size());
  for (size_t i = 0; i < original.configs.size(); ++i) {
    EXPECT_EQ(loaded->fuzz_case.configs[i].Name(), original.configs[i].Name());
  }
  std::ostringstream rewritten;
  WriteReproducer(*loaded, rewritten);
  EXPECT_EQ(rewritten.str(), text);
  EXPECT_FALSE(RunOracle(loaded->fuzz_case).Failed());
}

TEST(FuzzReproducerTest, RejectsRealShardCount) {
  std::ostringstream out;
  WriteReproducer({GenerateCase(42), VerdictKind::kAgree}, out);
  std::string text = out.str();
  const size_t config_start = text.find("\nconfig ");
  ASSERT_NE(config_start, std::string::npos);
  const size_t config_end = text.find('\n', config_start + 1);
  text.insert(config_end, " sh=4 part=greedy");

  std::istringstream in(text);
  std::string error;
  EXPECT_FALSE(ReadReproducer(in, &error).has_value());
  EXPECT_NE(error.find("config"), std::string::npos) << error;
}

TEST(FuzzReproducerTest, RejectsMalformedInput) {
  const auto parse = [](const std::string& text) {
    std::istringstream in(text);
    std::string error;
    return std::make_pair(ReadReproducer(in, &error).has_value(), error);
  };
  EXPECT_FALSE(parse("").first);  // No graphs, no configs.
  EXPECT_FALSE(parse("config REC fs=0 ix=merge threads=1 fault=0\n").first);
  EXPECT_FALSE(parse("bogus line\n").first);
  const auto [ok, error] =
      parse("config REC fs=0 ix=warp threads=1 fault=0\n");
  EXPECT_FALSE(ok);
  EXPECT_NE(error.find("config"), std::string::npos);

  // A garbage updates section must fail the whole file, not be dropped.
  std::ostringstream valid;
  WriteReproducer({GenerateCase(5), VerdictKind::kAgree}, valid);
  const auto [upd_ok, upd_error] =
      parse(valid.str() + "updates\nbogus op\n");
  EXPECT_FALSE(upd_ok);
  EXPECT_NE(upd_error.find("updates"), std::string::npos);
}

// The acceptance test for the whole pipeline: plant an off-by-one in the
// enumerator (the debug_skip_last_root_candidate hook drops the last root
// candidate), confirm the oracle flags it, and confirm the minimizer
// shrinks the reproducer to a small case that still fails. The hook acts
// on the serial engine and the parallel pool alike.
TEST(FuzzPipelineTest, CatchesAndMinimizesInjectedOffByOne) {
  for (const uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    bool caught = false;
    for (uint64_t seed = 1; seed <= 10 && !caught; ++seed) {
      FuzzCase fuzz_case = GenerateCase(seed);
      ASSERT_FALSE(fuzz_case.configs.empty());
      fuzz_case.configs[0].inject_fault = true;
      fuzz_case.configs[0].threads = threads;
      // The service runs one thread per request, so only the serial arm
      // keeps the service draw of GenerateCase.
      if (threads > 1) fuzz_case.configs[0].service = false;
      const OracleResult result = RunOracle(fuzz_case);
      if (!result.Failed()) continue;  // Fault was invisible on this case.
      caught = true;

      MinimizeStats stats;
      const FuzzCase minimized = MinimizeCase(fuzz_case, {}, {}, &stats);
      const OracleResult after = RunOracle(minimized);
      EXPECT_TRUE(after.Failed()) << "minimized case must still fail";
      EXPECT_LE(minimized.query.vertex_count(), 12u);
      EXPECT_LE(minimized.data.vertex_count(), fuzz_case.data.vertex_count());
      EXPECT_EQ(minimized.configs.size(), 1u)
          << "a single faulty config should survive minimization";
      EXPECT_TRUE(minimized.configs[0].inject_fault);
      EXPECT_EQ(minimized.configs[0].threads, threads);
      EXPECT_GT(stats.oracle_runs, 0u);
    }
    EXPECT_TRUE(caught)
        << "the injected off-by-one was never observable in 10 seeds";
  }
}

}  // namespace
}  // namespace sgm::fuzz
