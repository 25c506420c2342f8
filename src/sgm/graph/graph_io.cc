#include "sgm/graph/graph_io.h"

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sgm/graph/graph_builder.h"
#include "sgm/util/parse.h"

namespace sgm {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) fields.push_back(std::move(token));
  return fields;
}

}  // namespace

std::optional<Graph> ReadGraph(std::istream& in, std::string* error,
                               const ReadGraphLimits& limits) {
  std::string line;
  uint32_t declared_vertices = 0;
  uint32_t declared_edges = 0;
  uint32_t vertices_seen = 0;
  bool saw_header = false;
  GraphBuilder builder;
  std::vector<bool> vertex_seen;
  // Degree column of each 'v' record (kInvalidVertex = not provided);
  // validated against the actual adjacency after parsing.
  std::vector<uint32_t> declared_degrees;
  size_t line_number = 0;

  const auto fail = [&](const std::string& what) -> std::optional<Graph> {
    SetError(error, what + " at line " + std::to_string(line_number));
    return std::nullopt;
  };

  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    const std::vector<std::string> fields = SplitFields(line);
    if (fields.empty()) continue;
    const std::string& tag = fields[0];
    if (tag == "t") {
      if (saw_header) return fail("duplicate header");
      if (fields.size() != 3 ||
          !ParseUint(fields[1], &declared_vertices, limits.max_vertices) ||
          !ParseUint(fields[2], &declared_edges, limits.max_edges)) {
        return fail("malformed header");
      }
      saw_header = true;
      builder = GraphBuilder(declared_vertices);
      vertex_seen.assign(declared_vertices, false);
      declared_degrees.assign(declared_vertices, kInvalidVertex);
    } else if (tag == "v") {
      uint32_t id = 0;
      Label label = 0;
      uint32_t degree = kInvalidVertex;
      if (!saw_header || fields.size() < 3 || fields.size() > 4 ||
          !ParseUint(fields[1], &id, limits.max_vertices) ||
          !ParseUint(fields[2], &label, limits.max_label)) {
        return fail("malformed vertex");
      }
      if (fields.size() == 4 &&
          !ParseUint(fields[3], &degree, limits.max_edges)) {
        return fail("malformed vertex degree");
      }
      if (id >= declared_vertices || vertex_seen[id]) {
        return fail("bad vertex id");
      }
      vertex_seen[id] = true;
      ++vertices_seen;
      builder.SetLabel(id, label);
      declared_degrees[id] = degree;
    } else if (tag == "e") {
      Vertex u = 0, v = 0;
      if (!saw_header || fields.size() != 3 ||
          !ParseUint(fields[1], &u, limits.max_vertices) ||
          !ParseUint(fields[2], &v, limits.max_vertices)) {
        return fail("malformed edge");
      }
      if (u >= declared_vertices || v >= declared_vertices || u == v) {
        return fail("bad edge");
      }
      builder.AddEdge(u, v);
    } else {
      return fail("unknown record '" + tag + "'");
    }
  }

  if (in.bad()) {
    SetError(error, "read failure");
    return std::nullopt;
  }
  if (!saw_header) {
    SetError(error, "missing 't' header");
    return std::nullopt;
  }
  if (vertices_seen != declared_vertices) {
    SetError(error, "truncated input: header declares " +
                        std::to_string(declared_vertices) + " vertices, found " +
                        std::to_string(vertices_seen));
    return std::nullopt;
  }
  if (builder.edge_count() != declared_edges) {
    SetError(error, "edge count mismatch: header declares " +
                        std::to_string(declared_edges) + ", found " +
                        std::to_string(builder.edge_count()));
    return std::nullopt;
  }
  Graph graph = builder.Build();
  for (Vertex v = 0; v < graph.vertex_count(); ++v) {
    if (declared_degrees[v] != kInvalidVertex &&
        declared_degrees[v] != graph.degree(v)) {
      SetError(error, "degree mismatch for vertex " + std::to_string(v) +
                          ": declared " + std::to_string(declared_degrees[v]) +
                          ", actual " + std::to_string(graph.degree(v)));
      return std::nullopt;
    }
  }
  return graph;
}

std::optional<Graph> LoadGraphFile(const std::string& path, std::string* error,
                                   const ReadGraphLimits& limits) {
  std::ifstream in(path);
  if (!in) {
    SetError(error, "cannot open " + path);
    return std::nullopt;
  }
  return ReadGraph(in, error, limits);
}

void WriteGraph(const Graph& graph, std::ostream& out) {
  out << "t " << graph.vertex_count() << ' ' << graph.edge_count() << '\n';
  for (Vertex v = 0; v < graph.vertex_count(); ++v) {
    out << "v " << v << ' ' << graph.label(v) << ' ' << graph.degree(v)
        << '\n';
  }
  for (Vertex v = 0; v < graph.vertex_count(); ++v) {
    for (const Vertex w : graph.neighbors(v)) {
      if (v < w) out << "e " << v << ' ' << w << '\n';
    }
  }
}

bool SaveGraphFile(const Graph& graph, const std::string& path,
                   std::string* error) {
  std::ofstream out(path);
  if (!out) {
    SetError(error, "cannot open " + path + " for writing");
    return false;
  }
  WriteGraph(graph, out);
  out.flush();
  if (!out) {
    SetError(error, "write failure on " + path);
    return false;
  }
  return true;
}

}  // namespace sgm
