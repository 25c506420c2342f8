// perfbench_gen: writes one workload's inputs.
//
//   perfbench_gen --base DIR --out DIR seed=N key=value...
//
// The keys are the workload's parameters from perfbench/workloads.json.
// The base directory holds what depends on graph_seed alone and is written
// once, when missing:
//   data.graph          RMAT data graph with uniform labels
//   q0000.graph ...     the query pool, in queries.txt
// The out directory holds what the seed draws:
//   cq0000.graph ...    continuous queries (cq_count of them)
//   updates.txt         one edge insert/delete batch per round
//   requests.txt        per round, the hot-set indexes of its requests
//   params.txt          the parameters, written last
// All files use the library's text formats.
// The graphs and queries come from the benchmark's own generators, so the
// inputs stay fixed while the library changes. Query selection (the
// select_* parameters) uses only match counts, which every correct engine
// agrees on; the time limit only drops runaway queries.
#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common.h"
#include "sgm/graph/graph.h"
#include "sgm/matcher.h"

namespace perfbench {
namespace {

using sgm::Label;
using sgm::Vertex;

uint64_t EdgeKey(Vertex u, Vertex v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

/// RMAT with the paper's quadrant probabilities (0.45, 0.22, 0.22, 0.11).
/// Returns a directed pair; the caller rejects loops and ids >= n.
std::pair<Vertex, Vertex> RmatPair(uint32_t scale, Rng* rng) {
  Vertex u = 0;
  Vertex v = 0;
  for (uint32_t level = 0; level < scale; ++level) {
    const double r = rng->Unit();
    u <<= 1;
    v <<= 1;
    if (r < 0.45) {
    } else if (r < 0.67) {
      v |= 1;
    } else if (r < 0.89) {
      u |= 1;
    } else {
      u |= 1;
      v |= 1;
    }
  }
  return {u, v};
}

struct DataGraph {
  uint32_t n = 0;
  uint32_t scale = 0;
  std::vector<Label> labels;
  /// Sorted keys of the undirected edges.
  std::vector<uint64_t> keys;
  /// CSR adjacency, sorted per vertex.
  std::vector<uint64_t> offsets;
  std::vector<Vertex> adj;

  std::span<const Vertex> neighbors(Vertex v) const {
    return {adj.data() + offsets[v], adj.data() + offsets[v + 1]};
  }
  bool HasEdge(Vertex u, Vertex v) const {
    const auto nu = neighbors(u);
    return std::binary_search(nu.begin(), nu.end(), v);
  }
};

DataGraph GenerateRmatGraph(uint32_t n, uint64_t m, uint32_t label_count,
                            Rng* rng) {
  DataGraph g;
  g.n = n;
  while ((1ull << g.scale) < n) ++g.scale;
  if (m > static_cast<uint64_t>(n) * (n - 1) / 4) Die("too many edges");
  // Draw the missing edges, dedupe, repeat: sorted keys use a fraction of
  // the memory a hash set of 1.6M edges would.
  while (g.keys.size() < m) {
    const uint64_t missing = m - g.keys.size();
    for (uint64_t i = 0; i < missing;) {
      const auto [u, v] = RmatPair(g.scale, rng);
      if (u >= n || v >= n || u == v) continue;
      g.keys.push_back(EdgeKey(u, v));
      ++i;
    }
    std::sort(g.keys.begin(), g.keys.end());
    g.keys.erase(std::unique(g.keys.begin(), g.keys.end()), g.keys.end());
  }
  g.labels.resize(n);
  for (Label& label : g.labels) label = static_cast<Label>(rng->Below(label_count));

  g.offsets.assign(n + 1, 0);
  for (const uint64_t key : g.keys) {
    ++g.offsets[(key >> 32) + 1];
    ++g.offsets[(key & 0xffffffffu) + 1];
  }
  for (uint32_t v = 0; v < n; ++v) g.offsets[v + 1] += g.offsets[v];
  g.adj.resize(g.offsets[n]);
  std::vector<uint64_t> fill(g.offsets.begin(), g.offsets.end() - 1);
  // Keys are sorted by (low, high) endpoint, so both directions come out
  // sorted: every (w, x) with w < x precedes every (x, y).
  for (const uint64_t key : g.keys) {
    const auto u = static_cast<Vertex>(key >> 32);
    const auto v = static_cast<Vertex>(key & 0xffffffffu);
    g.adj[fill[u]++] = v;
    g.adj[fill[v]++] = u;
  }
  return g;
}

/// Text writer for the graph format of sgm/graph/graph_io.h.
class GraphWriter {
 public:
  explicit GraphWriter(const std::string& path)
      : path_(path), file_(std::fopen(path.c_str(), "wb")) {
    if (file_ == nullptr) Die("cannot open " + path);
  }
  ~GraphWriter() {
    if (file_ != nullptr) std::fclose(file_);
  }
  GraphWriter(const GraphWriter&) = delete;
  GraphWriter& operator=(const GraphWriter&) = delete;

  void Line(char tag, uint64_t a, uint64_t b, uint64_t c, int fields) {
    char buf[80];
    int len = 0;
    if (fields == 3) {
      len = std::snprintf(buf, sizeof(buf), "%c %llu %llu %llu\n", tag,
                          static_cast<unsigned long long>(a),
                          static_cast<unsigned long long>(b),
                          static_cast<unsigned long long>(c));
    } else {
      len = std::snprintf(buf, sizeof(buf), "%c %llu %llu\n", tag,
                          static_cast<unsigned long long>(a),
                          static_cast<unsigned long long>(b));
    }
    if (std::fwrite(buf, 1, static_cast<size_t>(len), file_) !=
        static_cast<size_t>(len)) {
      Die("write failure on " + path_);
    }
  }
  void Close() {
    if (std::fclose(file_) != 0) Die("write failure on " + path_);
    file_ = nullptr;
  }

 private:
  std::string path_;
  std::FILE* file_;
};

void WriteDataGraph(const DataGraph& g, const std::string& path) {
  GraphWriter out(path);
  out.Line('t', g.n, g.keys.size(), 0, 2);
  for (Vertex v = 0; v < g.n; ++v) {
    out.Line('v', v, g.labels[v], g.offsets[v + 1] - g.offsets[v], 3);
  }
  for (const uint64_t key : g.keys) out.Line('e', key >> 32, key & 0xffffffffu, 0, 2);
  out.Close();
}

struct Query {
  std::vector<Label> labels;
  std::vector<std::pair<Vertex, Vertex>> edges;

  std::string Encode() const {
    std::string code;
    for (const Label l : labels) code += std::to_string(l) + ',';
    code += '|';
    for (const auto& [u, v] : edges) code += std::to_string(u) + '-' + std::to_string(v) + ',';
    return code;
  }
  sgm::Graph ToGraph() const { return sgm::Graph(labels, edges); }
  void Write(const std::string& path) const {
    GraphWriter out(path);
    std::vector<uint32_t> degree(labels.size(), 0);
    for (const auto& [u, v] : edges) {
      ++degree[u];
      ++degree[v];
    }
    out.Line('t', labels.size(), edges.size(), 0, 2);
    for (Vertex v = 0; v < labels.size(); ++v) out.Line('v', v, labels[v], degree[v], 3);
    for (const auto& [u, v] : edges) out.Line('e', u, v, 0, 2);
    out.Close();
  }
};

/// Grows a vertex set from a random start by adding a random neighbor of
/// the set, preferring (85% of the time) one adjacent to two or more
/// members. RMAT graphs lack the clustering of real data, so plain walks
/// almost never induce a dense query.
std::vector<Vertex> GrowDense(const DataGraph& g, Vertex start, uint32_t size, Rng* rng) {
  std::vector<Vertex> members{start};
  while (members.size() < size) {
    std::map<Vertex, uint32_t> links;  // ordered, so draws are reproducible
    for (const Vertex v : members) {
      for (const Vertex w : g.neighbors(v)) ++links[w];
    }
    for (const Vertex v : members) links.erase(v);
    std::vector<Vertex> all, preferred;
    for (const auto& [w, count] : links) {
      all.push_back(w);
      if (count >= 2) preferred.push_back(w);
    }
    if (all.empty()) break;  // the component is too small
    const auto& pool = !preferred.empty() && rng->Unit() < 0.85 ? preferred : all;
    members.push_back(pool[rng->Below(pool.size())]);
  }
  return members;
}

/// Query classes by average degree: dense >= 3 and sparse < 3 as in the
/// paper; cyclic is sparse with at least one cycle (edges >= vertices), which
/// keeps 5-vertex match counts in the thousands rather than the millions.
enum class Density : uint8_t { kDense, kSparse, kCyclic };

bool InClass(const Query& q, Density density) {
  const size_t v = q.labels.size();
  const size_t e = q.edges.size();
  if (density == Density::kDense) return 2 * e >= 3 * v;
  return 2 * e < 3 * v && (density == Density::kSparse || e >= v);
}

/// The paper's query protocol (Section 4): a random walk collects `size`
/// distinct vertices (dense queries: see GrowDense); the query is their
/// induced subgraph, kept when it falls in the requested class.
Query ExtractQuery(const DataGraph& g, uint32_t size, Density density, Rng* rng) {
  for (int attempt = 0; attempt < 100000; ++attempt) {
    Vertex current = static_cast<Vertex>(rng->Below(g.n));
    if (g.neighbors(current).empty()) continue;
    std::vector<Vertex> walk{current};
    if (density == Density::kDense) walk = GrowDense(g, current, size, rng);
    for (uint32_t step = 0; walk.size() < size && step < 100 * size; ++step) {
      const auto next = g.neighbors(current);
      current = next[rng->Below(next.size())];
      if (std::find(walk.begin(), walk.end(), current) == walk.end()) {
        walk.push_back(current);
      }
    }
    if (walk.size() < size) continue;
    Query q;
    for (const Vertex v : walk) q.labels.push_back(g.labels[v]);
    for (Vertex i = 0; i < size; ++i) {
      for (Vertex j = i + 1; j < size; ++j) {
        if (g.HasEdge(walk[i], walk[j])) q.edges.emplace_back(i, j);
      }
    }
    if (InClass(q, density)) return q;
  }
  Die("query extraction failed");
}

struct QueryClass {
  uint32_t size = 0;
  Density density = Density::kSparse;
};

/// Parses "8:dense,16:sparse,5:cyclic".
std::vector<QueryClass> ParseMix(const std::string& text) {
  std::vector<QueryClass> mix;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    const size_t colon = item.find(':');
    if (colon == std::string::npos) Die("bad query class " + item);
    QueryClass c;
    c.size = static_cast<uint32_t>(std::stoul(item.substr(0, colon)));
    const std::string density = item.substr(colon + 1);
    if (density == "dense") {
      c.density = Density::kDense;
    } else if (density == "cyclic") {
      c.density = Density::kCyclic;
    } else if (density != "sparse") {
      Die("bad density " + density);
    }
    if (c.size < 2 || c.size > 64) Die("bad query size " + item);
    mix.push_back(c);
    pos = comma + 1;
  }
  if (mix.empty()) Die("empty query mix");
  return mix;
}

/// Match count of `q` (capped at `cap`), or nullopt when the search
/// outlives the time limit. Used only to select inputs.
std::optional<uint64_t> CountMatches(const Query& q, const sgm::Graph& data,
                                     uint64_t cap, double time_limit_ms) {
  const sgm::Graph query = q.ToGraph();
  sgm::MatchOptions options = sgm::MatchOptions::Recommended(query.vertex_count());
  options.max_matches = cap;
  options.time_limit_ms = time_limit_ms;
  const sgm::MatchResult result = sgm::MatchQuery(query, data, options);
  if (result.unsolved()) return std::nullopt;
  return result.match_count;
}

/// Draws `count` distinct queries cycling through `mix`. With a positive
/// select_time_limit_ms, a query is kept only when it finishes within the
/// limit with a match count (capped at `cap`) in [min_keep, max_keep].
std::vector<Query> DrawQueries(const DataGraph& g, const sgm::Graph* data,
                               const std::vector<QueryClass>& mix,
                               uint32_t count, uint64_t cap, uint64_t min_keep,
                               uint64_t max_keep, double select_time_limit_ms,
                               std::set<std::string>* seen, Rng* rng) {
  std::vector<Query> queries;
  uint32_t rejected = 0;
  while (queries.size() < count) {
    const QueryClass& c = mix[queries.size() % mix.size()];
    Query q = ExtractQuery(g, c.size, c.density, rng);
    if (!seen->insert(q.Encode()).second) continue;
    if (select_time_limit_ms > 0) {
      const auto matches = CountMatches(q, *data, cap, select_time_limit_ms);
      if (!matches || *matches < min_keep || *matches > max_keep) {
        if (++rejected > 50 * count) Die("query selection keeps failing");
        continue;
      }
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) Die("cannot open " + path);
  const bool written = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  if (std::fclose(file) != 0 || !written) Die("write failure on " + path);
}

/// One batch per round of random edge inserts (RMAT endpoints, new edges
/// only) and deletes (existing edges), each batch 1..max_ops ops, written
/// in the update-stream format of sgm/dynamic/update_batch.h.
void WriteUpdates(const DataGraph& g, uint32_t rounds, uint32_t max_ops,
                  const std::string& path, Rng* rng) {
  std::vector<uint64_t> live = g.keys;
  std::unordered_map<uint64_t, size_t> where;
  where.reserve(live.size() * 2);
  for (size_t i = 0; i < live.size(); ++i) where.emplace(live[i], i);
  std::string text = "# perfbench update stream\n";
  for (uint32_t r = 0; r < rounds; ++r) {
    text += "batch\n";
    const uint64_t ops = 1 + rng->Below(max_ops);
    for (uint64_t done = 0; done < ops;) {
      if (rng->Below(2) == 0) {
        const auto [u, v] = RmatPair(g.scale, rng);
        // Not an op: draw again, coin included.
        if (u >= g.n || v >= g.n || u == v || where.count(EdgeKey(u, v))) continue;
        where.emplace(EdgeKey(u, v), live.size());
        live.push_back(EdgeKey(u, v));
        text += "ae " + std::to_string(u) + ' ' + std::to_string(v) + '\n';
      } else {
        const size_t i = rng->Below(live.size());
        const uint64_t key = live[i];
        where[live.back()] = i;
        live[i] = live.back();
        live.pop_back();
        where.erase(key);
        text += "re " + std::to_string(key >> 32) + ' ' +
                std::to_string(key & 0xffffffffu) + '\n';
      }
      ++done;
    }
    text += "end\n";
  }
  WriteFile(path, text);
}

/// Per round, `per_round` hot-set indexes drawn from Zipf(1): index k has
/// weight 1/(k+1). The hot set is a random draw already, and keeping its
/// popularity order fixed keeps the latency of the popular queries, which
/// sets the median, the same from seed to seed.
void WriteRequests(uint32_t hot, uint32_t rounds, uint32_t per_round,
                   const std::string& path, Rng* rng) {
  std::vector<double> cdf(hot);
  double total = 0.0;
  for (uint32_t k = 0; k < hot; ++k) cdf[k] = (total += 1.0 / (k + 1));
  std::string text;
  for (uint32_t r = 0; r < rounds; ++r) {
    for (uint32_t i = 0; i < per_round; ++i) {
      const double x = rng->Unit() * total;
      const size_t k = std::upper_bound(cdf.begin(), cdf.end(), x) - cdf.begin();
      text += std::to_string(std::min<size_t>(k, hot - 1));
      text += i + 1 == per_round ? '\n' : ' ';
    }
  }
  WriteFile(path, text);
}

std::string Name(const char* prefix, size_t i, const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%04zu%s", prefix, i, suffix);
  return buf;
}

void WriteQueries(const std::vector<Query>& queries, const char* prefix,
                  const std::string& dir, bool list) {
  std::string names;
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].Write(dir + "/" + Name(prefix, i, ".graph"));
    names += Name(prefix, i, ".graph") + '\n';
  }
  if (list) WriteFile(dir + "/queries.txt", names);
}

int Main(int argc, char** argv) {
  std::string base;
  std::string out;
  std::string seed_text;
  Params params;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--base" && i + 1 < argc) {
      base = argv[++i];
    } else if (arg == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (arg.rfind("seed=", 0) == 0) {
      seed_text = arg.substr(5);
    } else if (!params.SetFromArg(arg)) {
      Die("usage: perfbench_gen --base DIR --out DIR seed=N key=value...");
    }
  }
  if (base.empty() || out.empty()) Die("--base and --out are required");
  Params seeded = params;
  seeded.Set("seed", seed_text);
  const uint64_t seed = seeded.U64("seed");
  const uint64_t graph_seed = params.U64("graph_seed");
  const double select_ms = static_cast<double>(params.U64("select_time_limit_ms"));
  const uint32_t cq_count = params.U32("cq_count");
  const uint32_t rounds = params.U32("rounds");

  // The base inputs depend on graph_seed only and are shared by every seed:
  // the data graph and the query pool.
  const bool make_base = !std::filesystem::exists(base + "/params.txt");
  if (make_base || cq_count > 0 || rounds > 0) {
    Rng graph_rng(graph_seed);
    const DataGraph g = GenerateRmatGraph(params.U32("vertices"), params.U64("edges"),
                                          params.U32("labels"), &graph_rng);
    std::optional<sgm::Graph> data;
    if (select_ms > 0) {
      std::vector<std::pair<Vertex, Vertex>> edges;
      edges.reserve(g.keys.size());
      for (const uint64_t key : g.keys) {
        edges.emplace_back(static_cast<Vertex>(key >> 32),
                           static_cast<Vertex>(key & 0xffffffffu));
      }
      data.emplace(g.labels, edges);
    }
    if (make_base) {
      // Written aside and renamed, so a base directory is always complete.
      const std::string tmp = base + ".tmp";
      std::filesystem::remove_all(tmp);
      std::filesystem::create_directories(tmp);
      WriteDataGraph(g, tmp + "/data.graph");
      Rng pool_rng(graph_seed * 4 + 2);
      std::set<std::string> seen;
      WriteQueries(DrawQueries(g, data ? &*data : nullptr, ParseMix(params.Str("query_mix")),
                               params.U32("query_count"), params.U64("max_matches"),
                               params.U64("select_min_matches"), UINT64_MAX, select_ms,
                               &seen, &pool_rng),
                   "q", tmp, true);
      params.Save(tmp + "/params.txt");
      std::filesystem::rename(tmp, base);
    }
    // One stream per input kind: changing e.g. the round count leaves the
    // queries as they were.
    Rng query_rng(seed * 4 + 2);
    Rng update_rng(seed * 4 + 3);
    if (cq_count > 0) {
      // Continuous queries: their whole match sets are folded and
      // rematched, so each is kept only with at most cq_max_matches
      // matches; a floor of cq_min_matches makes batches touch them.
      if (!data) Die("continuous queries need select_time_limit_ms");
      const uint64_t cq_max = params.U64("cq_max_matches");
      std::set<std::string> seen;
      WriteQueries(DrawQueries(g, &*data, ParseMix(params.Str("cq_mix")), cq_count,
                               cq_max + 1, params.U64("cq_min_matches"), cq_max,
                               select_ms, &seen, &query_rng),
                   "cq", out, false);
    }
    if (rounds > 0) {
      WriteUpdates(g, rounds, params.U32("max_batch_ops"), out + "/updates.txt",
                   &update_rng);
      WriteRequests(params.U32("query_count"), rounds, params.U32("requests_per_round"),
                    out + "/requests.txt", &update_rng);
    }
  }
  seeded.Save(out + "/params.txt");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
