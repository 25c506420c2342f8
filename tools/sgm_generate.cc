// Command-line dataset generator.
//
//   sgm_generate --out g.graph --vertices N --edges M [options]
//
// Options:
//   --labels L        number of distinct labels (default 16)
//   --model NAME      rmat | er  (default rmat, the paper's generator)
//   --seed S          PRNG seed (default 1)
//   --queries K       additionally extract K queries per configured set
//   --query-size Q    query vertex count (default 8)
//   --density D       any | dense | sparse  (default any)
//   --query-prefix P  write queries to P_<i>.graph
//   --update-stream F additionally write a replayable update stream to F
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>

#include "sgm/dynamic/update_batch.h"
#include "sgm/graph/generators.h"
#include "sgm/graph/graph_io.h"
#include "sgm/graph/query_generator.h"
#include "sgm/util/parse.h"

namespace {

struct CliArgs {
  std::string out_path;
  uint32_t vertices = 0;
  uint32_t edges = 0;
  uint32_t labels = 16;
  std::string model = "rmat";
  uint64_t seed = 1;
  uint32_t queries = 0;
  uint32_t query_size = 8;
  std::string density = "any";
  std::string query_prefix = "query";
  std::string update_stream_path;
  uint32_t update_batches = 16;
  uint32_t update_ops = 8;
};

void PrintUsage() {
  std::fprintf(stderr,
               "usage: sgm_generate --out g.graph --vertices N --edges M"
               " [--labels L] [--model rmat|er] [--seed S] [--queries K]"
               " [--query-size Q] [--density any|dense|sparse]"
               " [--query-prefix P] [--update-stream F]\n"
               "run 'sgm_generate --help' for details\n");
}

void PrintHelp() {
  std::printf(
      "usage: sgm_generate --out g.graph --vertices N --edges M [options]\n"
      "\n"
      "Generates a synthetic labeled data graph (and optionally a query\n"
      "set extracted from it by random walk, the paper's protocol).\n"
      "\n"
      "required:\n"
      "  --out FILE          output data graph path\n"
      "  --vertices N        number of vertices\n"
      "  --edges M           number of undirected edges\n"
      "options:\n"
      "  --labels L          number of distinct labels (default 16)\n"
      "  --model NAME        rmat|er generator model (default rmat, the\n"
      "                      paper's generator)\n"
      "  --seed S            PRNG seed (default 1)\n"
      "  --queries K         additionally extract K query graphs by random\n"
      "                      walk\n"
      "  --query-size Q      vertices per extracted query (default 8)\n"
      "  --density D         any|dense|sparse query density class\n"
      "                      (default any)\n"
      "  --query-prefix P    query output path prefix; query i lands in\n"
      "                      P_<i>.graph (default 'query')\n"
      "  --update-stream F   additionally write a seeded, replayable\n"
      "                      insert/delete stream (update_batch.h text\n"
      "                      format) valid against the generated graph,\n"
      "                      for sgm_serve --updates\n"
      "  --update-batches N  batches in the update stream (default 16)\n"
      "  --update-ops N      max ops per stream batch (default 8)\n"
      "  --help              show this message and exit\n"
      "\n"
      "exit codes: 0 ok, 1 write error, 2 usage error\n");
}

bool ParseArgs(int argc, char** argv, CliArgs* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    // Accept --flag=value: split once, treating the remainder as the value.
    std::optional<std::string> inline_value;
    if (const size_t eq = flag.find('='); eq != std::string::npos) {
      inline_value = flag.substr(eq + 1);
      flag.resize(eq);
    }
    const auto next = [&]() -> std::optional<std::string> {
      if (inline_value.has_value()) return inline_value;
      if (i + 1 < argc) return std::string(argv[++i]);
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return std::nullopt;
    };
    // Reads the flag's value as an integer in [min, max]; anything else is
    // a usage error naming the flag.
    const auto number = [&](auto* out, uint64_t min, uint64_t max) {
      const auto value = next();
      if (!value.has_value()) return false;
      uint64_t parsed = 0;
      if (!sgm::ParseUint(*value, &parsed, max) || parsed < min) {
        std::fprintf(stderr, "invalid value for %s: '%s'\n", flag.c_str(),
                     value->c_str());
        return false;
      }
      *out = static_cast<std::remove_pointer_t<decltype(out)>>(parsed);
      return true;
    };
    const auto text = [&](std::string* out) {
      const auto value = next();
      if (value.has_value()) *out = *value;
      return value.has_value();
    };
    constexpr uint64_t kMax32 = std::numeric_limits<uint32_t>::max();
    bool ok = true;
    if (flag == "--help") {
      PrintHelp();
      std::exit(0);
    } else if (flag == "--out") {
      ok = text(&args->out_path);
    } else if (flag == "--vertices") {
      // Vertex ids stay below kInvalidVertex.
      ok = number(&args->vertices, 2, sgm::kInvalidVertex);
    } else if (flag == "--edges") {
      ok = number(&args->edges, 1, kMax32);
    } else if (flag == "--labels") {
      ok = number(&args->labels, 1, kMax32);
    } else if (flag == "--model") {
      ok = text(&args->model);
    } else if (flag == "--seed") {
      ok = number(&args->seed, 0, std::numeric_limits<uint64_t>::max());
    } else if (flag == "--queries") {
      ok = number(&args->queries, 0, kMax32);
    } else if (flag == "--query-size") {
      ok = number(&args->query_size, 3, sgm::kMaxQueryVertices);
    } else if (flag == "--density") {
      ok = text(&args->density);
    } else if (flag == "--query-prefix") {
      ok = text(&args->query_prefix);
    } else if (flag == "--update-stream") {
      ok = text(&args->update_stream_path);
    } else if (flag == "--update-batches") {
      ok = number(&args->update_batches, 0, kMax32);
    } else if (flag == "--update-ops") {
      ok = number(&args->update_ops, 0, kMax32);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
    if (!ok) return false;
  }
  if (args->out_path.empty() || args->vertices == 0 || args->edges == 0) {
    return false;
  }
  const uint64_t capacity =
      static_cast<uint64_t>(args->vertices) * (args->vertices - 1) / 2;
  if (args->edges > capacity) {
    std::fprintf(stderr,
                 "invalid value for --edges: %u exceeds the %llu edges of a "
                 "simple graph on %u vertices\n",
                 args->edges, static_cast<unsigned long long>(capacity),
                 args->vertices);
    return false;
  }
  if (args->density != "any" && args->density != "dense" &&
      args->density != "sparse") {
    std::fprintf(stderr, "invalid value for --density: '%s'\n",
                 args->density.c_str());
    return false;
  }
  if (args->queries > 0 && args->query_size > args->vertices) {
    std::fprintf(stderr,
                 "invalid value for --query-size: %u exceeds --vertices %u\n",
                 args->query_size, args->vertices);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    PrintUsage();
    return 2;
  }

  sgm::Prng prng(args.seed);
  sgm::Graph graph;
  if (args.model == "rmat") {
    graph = sgm::GenerateRmat(args.vertices, args.edges, args.labels, &prng);
  } else if (args.model == "er") {
    graph =
        sgm::GenerateErdosRenyi(args.vertices, args.edges, args.labels, &prng);
  } else {
    std::fprintf(stderr, "unknown model: %s\n", args.model.c_str());
    return 2;
  }

  std::string error;
  if (!sgm::SaveGraphFile(graph, args.out_path, &error)) {
    std::fprintf(stderr, "write failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s: |V|=%u |E|=%u |Sigma|=%u avg-degree=%.2f\n",
              args.out_path.c_str(), graph.vertex_count(), graph.edge_count(),
              graph.label_count(), graph.average_degree());

  if (args.queries > 0) {
    sgm::QueryDensity density = sgm::QueryDensity::kAny;
    if (args.density == "dense") density = sgm::QueryDensity::kDense;
    if (args.density == "sparse") density = sgm::QueryDensity::kSparse;
    const auto queries = sgm::GenerateQuerySet(graph, args.query_size,
                                               density, args.queries, &prng);
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::string path =
          args.query_prefix + "_" + std::to_string(i) + ".graph";
      if (!sgm::SaveGraphFile(queries[i], path, &error)) {
        std::fprintf(stderr, "write failed: %s\n", error.c_str());
        return 1;
      }
    }
    std::printf("wrote %zu %s queries of size %u (prefix %s)\n",
                queries.size(), args.density.c_str(), args.query_size,
                args.query_prefix.c_str());
  }

  if (!args.update_stream_path.empty()) {
    sgm::dynamic::StreamGenOptions stream_options;
    stream_options.batches = args.update_batches;
    stream_options.max_ops_per_batch = args.update_ops;
    const sgm::dynamic::UpdateStream stream =
        sgm::dynamic::GenerateUpdateStream(graph, stream_options, &prng);
    if (!sgm::dynamic::SaveUpdateStreamFile(stream, args.update_stream_path,
                                            &error)) {
      std::fprintf(stderr, "write failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("wrote %s: %zu batches, %zu update ops\n",
                args.update_stream_path.c_str(), stream.batches.size(),
                stream.op_count());
  }
  return 0;
}
