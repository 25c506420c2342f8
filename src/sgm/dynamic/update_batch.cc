#include "sgm/dynamic/update_batch.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "sgm/util/parse.h"

namespace sgm::dynamic {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

uint64_t EdgeKey(Vertex u, Vertex v) {
  const Vertex lo = std::min(u, v);
  const Vertex hi = std::max(u, v);
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

}  // namespace

const char* UpdateKindName(UpdateKind kind) {
  switch (kind) {
    case UpdateKind::kAddEdge:
      return "ae";
    case UpdateKind::kRemoveEdge:
      return "re";
    case UpdateKind::kAddVertex:
      return "av";
    case UpdateKind::kRemoveVertex:
      return "rv";
  }
  return "??";
}

void WriteUpdateStream(const UpdateStream& stream, std::ostream& out) {
  out << "# sgm update stream v1\n";
  for (const UpdateBatch& batch : stream.batches) {
    out << "batch\n";
    for (const UpdateOp& op : batch.ops) {
      out << UpdateKindName(op.kind);
      switch (op.kind) {
        case UpdateKind::kAddEdge:
        case UpdateKind::kRemoveEdge:
          out << ' ' << op.u << ' ' << op.v;
          break;
        case UpdateKind::kAddVertex:
          out << ' ' << op.label;
          break;
        case UpdateKind::kRemoveVertex:
          out << ' ' << op.u;
          break;
      }
      out << '\n';
    }
    out << "end\n";
  }
}

bool SaveUpdateStreamFile(const UpdateStream& stream, const std::string& path,
                          std::string* error) {
  std::ofstream out(path);
  if (!out) {
    SetError(error, "cannot open " + path + " for writing");
    return false;
  }
  WriteUpdateStream(stream, out);
  out.flush();
  if (!out) {
    SetError(error, "write failure on " + path);
    return false;
  }
  return true;
}

std::optional<UpdateStream> ReadUpdateStream(std::istream& in,
                                             std::string* error) {
  // A hostile stream must not be able to force unbounded allocation; the
  // legitimate uses (fuzzing, bench replay) stay far below these.
  constexpr size_t kMaxBatches = 1u << 20;
  constexpr size_t kMaxOpsPerBatch = 1u << 20;

  UpdateStream stream;
  std::string line;
  size_t line_number = 0;
  bool in_batch = false;

  const auto fail = [&](const std::string& what) -> std::optional<UpdateStream> {
    SetError(error, what + " at line " + std::to_string(line_number));
    return std::nullopt;
  };

  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::istringstream fields(line);
    std::string record;
    if (!(fields >> record) || record[0] == '#') continue;

    if (record == "batch") {
      if (in_batch) return fail("nested 'batch'");
      if (stream.batches.size() >= kMaxBatches) return fail("too many batches");
      stream.batches.emplace_back();
      in_batch = true;
      continue;
    }
    if (record == "end") {
      if (!in_batch) return fail("'end' outside a batch");
      in_batch = false;
      continue;
    }
    if (!in_batch) return fail("op record outside a batch");
    if (stream.batches.back().ops.size() >= kMaxOpsPerBatch) {
      return fail("too many ops in one batch");
    }

    std::string a, b, extra;
    UpdateOp op;
    if (record == "ae" || record == "re") {
      if (!(fields >> a >> b) || (fields >> extra) ||
          !ParseUint(a, &op.u) || !ParseUint(b, &op.v)) {
        return fail("malformed '" + record + "' record");
      }
      op.kind = record == "ae" ? UpdateKind::kAddEdge : UpdateKind::kRemoveEdge;
    } else if (record == "av") {
      if (!(fields >> a) || (fields >> extra) || !ParseUint(a, &op.label)) {
        return fail("malformed 'av' record");
      }
      op.kind = UpdateKind::kAddVertex;
    } else if (record == "rv") {
      if (!(fields >> a) || (fields >> extra) || !ParseUint(a, &op.u)) {
        return fail("malformed 'rv' record");
      }
      op.kind = UpdateKind::kRemoveVertex;
    } else {
      return fail("unknown record '" + record + "'");
    }
    stream.batches.back().ops.push_back(op);
  }
  if (in.bad()) {
    SetError(error, "read failure");
    return std::nullopt;
  }
  if (in_batch) {
    SetError(error, "unterminated batch at end of input");
    return std::nullopt;
  }
  return stream;
}

std::optional<UpdateStream> LoadUpdateStreamFile(const std::string& path,
                                                 std::string* error) {
  std::ifstream in(path);
  if (!in) {
    SetError(error, "cannot open " + path);
    return std::nullopt;
  }
  return ReadUpdateStream(in, error);
}

UpdateStream GenerateUpdateStream(const Graph& base,
                                  const StreamGenOptions& options, Prng* prng) {
  // Live state tracked op by op so every generated op is valid when it is
  // replayed: edge list (for uniform delete sampling), edge-key set (for
  // duplicate-insert rejection), per-vertex degrees, alive flags, labels.
  std::vector<std::pair<Vertex, Vertex>> edges;
  std::unordered_set<uint64_t> edge_keys;
  std::vector<uint32_t> degrees(base.vertex_count(), 0);
  std::vector<bool> alive(base.vertex_count(), true);
  edges.reserve(base.edge_count());
  for (Vertex u = 0; u < base.vertex_count(); ++u) {
    degrees[u] = base.degree(u);
    for (const Vertex v : base.neighbors(u)) {
      if (v <= u) continue;
      edges.emplace_back(u, v);
      edge_keys.insert(EdgeKey(u, v));
    }
  }
  // New vertices reuse labels from the base vocabulary: DynamicGraph fixes
  // the label space at construction (dynamic_graph.h).
  const uint32_t label_limit = std::max(base.label_count(), 1u);

  const double total_weight =
      options.add_edge_weight + options.remove_edge_weight +
      options.add_vertex_weight + options.remove_vertex_weight;

  const auto remove_edge_at = [&](size_t index) {
    edge_keys.erase(EdgeKey(edges[index].first, edges[index].second));
    --degrees[edges[index].first];
    --degrees[edges[index].second];
    edges[index] = edges.back();
    edges.pop_back();
  };

  UpdateStream stream;
  stream.batches.resize(options.batches);
  for (UpdateBatch& batch : stream.batches) {
    const uint32_t ops =
        static_cast<uint32_t>(prng->NextBounded(options.max_ops_per_batch + 1));
    for (uint32_t i = 0; i < ops; ++i) {
      const double roll = prng->NextDouble() * total_weight;
      if (roll < options.add_edge_weight) {
        // Insert a fresh edge between two live vertices; a few rejection
        // rounds, then give up on this op (dense or tiny graphs).
        for (int attempt = 0; attempt < 16; ++attempt) {
          if (degrees.size() < 2) break;
          const Vertex u =
              static_cast<Vertex>(prng->NextBounded(degrees.size()));
          const Vertex v =
              static_cast<Vertex>(prng->NextBounded(degrees.size()));
          if (u == v || !alive[u] || !alive[v] ||
              edge_keys.count(EdgeKey(u, v)) != 0) {
            continue;
          }
          batch.ops.push_back(UpdateOp::AddEdge(u, v));
          edges.emplace_back(u, v);
          edge_keys.insert(EdgeKey(u, v));
          ++degrees[u];
          ++degrees[v];
          break;
        }
      } else if (roll < options.add_edge_weight + options.remove_edge_weight) {
        if (edges.empty()) continue;
        const size_t index = prng->NextBounded(edges.size());
        batch.ops.push_back(
            UpdateOp::RemoveEdge(edges[index].first, edges[index].second));
        remove_edge_at(index);
      } else if (roll < options.add_edge_weight + options.remove_edge_weight +
                            options.add_vertex_weight) {
        const Label label = static_cast<Label>(prng->NextBounded(label_limit));
        batch.ops.push_back(UpdateOp::AddVertex(label));
        degrees.push_back(0);
        alive.push_back(true);
      } else {
        // Delete an isolated live vertex; a bounded scan from a random
        // start keeps this cheap without an isolated-vertex index.
        if (degrees.empty()) continue;
        const size_t start = prng->NextBounded(degrees.size());
        for (size_t probe = 0; probe < 64 && probe < degrees.size(); ++probe) {
          const Vertex candidate =
              static_cast<Vertex>((start + probe) % degrees.size());
          if (!alive[candidate] || degrees[candidate] != 0) continue;
          batch.ops.push_back(UpdateOp::RemoveVertex(candidate));
          alive[candidate] = false;
          break;
        }
      }
    }
  }
  return stream;
}

}  // namespace sgm::dynamic
