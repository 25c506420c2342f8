#include "sgm/graph/graph_io.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sgm/util/parse.h"

namespace sgm {

namespace {

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

/// The whitespace of `istream >> std::string` in the classic locale, less
/// '\n', which ends lines.
bool IsFieldSeparator(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Every record has at most four fields, so a fifth marks a line malformed.
constexpr size_t kMaxFields = 5;

/// Splits `line` at whitespace into fields[0..n) and returns n, counting at
/// most kMaxFields fields.
size_t SplitFields(std::string_view line, std::string_view* fields) {
  size_t count = 0;
  size_t i = 0;
  while (count < kMaxFields) {
    while (i < line.size() && IsFieldSeparator(line[i])) ++i;
    if (i == line.size()) break;
    const size_t start = i;
    while (i < line.size() && !IsFieldSeparator(line[i])) ++i;
    fields[count++] = line.substr(start, i - start);
  }
  return count;
}

/// A parsed graph file: vertex labels, the unique edges as sorted (lo, hi)
/// pairs, and the degree column of each 'v' record (kInvalidVertex = not
/// provided).
struct ParsedGraph {
  std::vector<Label> labels;
  std::vector<std::pair<Vertex, Vertex>> edges;
  std::vector<uint32_t> declared_degrees;
};

std::optional<ParsedGraph> ParseGraphText(std::string_view text,
                                          std::string* error,
                                          const ReadGraphLimits& limits) {
  ParsedGraph parsed;
  uint32_t declared_vertices = 0;
  uint32_t declared_edges = 0;
  uint32_t vertices_seen = 0;
  bool saw_header = false;
  std::vector<bool> vertex_seen;
  // The header counts unique edges, while 'e' records may repeat an edge in
  // either orientation. Duplicates are dropped by sort-unique: at the end,
  // and whenever the buffer reaches twice the declared count, so hostile
  // input cannot grow it further. A buffer that is still strictly
  // increasing (WriteGraph's order) holds no duplicate and is never sorted.
  bool edges_sorted = true;
  size_t line_number = 0;

  const auto fail = [&](const std::string& what) -> std::optional<ParsedGraph> {
    SetError(error, what + " at line " + std::to_string(line_number));
    return std::nullopt;
  };
  const auto sort_unique = [&] {
    if (edges_sorted) return;
    std::sort(parsed.edges.begin(), parsed.edges.end());
    parsed.edges.erase(std::unique(parsed.edges.begin(), parsed.edges.end()),
                       parsed.edges.end());
    edges_sorted = true;
  };
  const auto count_mismatch = [&](const std::string& found) {
    return "edge count mismatch: header declares " +
           std::to_string(declared_edges) + ", found " + found;
  };

  std::string_view fields[kMaxFields];
  size_t pos = 0;
  while (pos < text.size()) {
    const char* newline = static_cast<const char*>(
        std::memchr(text.data() + pos, '\n', text.size() - pos));
    const size_t end =
        newline == nullptr ? text.size() : static_cast<size_t>(newline - text.data());
    const std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_number;
    if (!line.empty() && (line[0] == '#' || line[0] == '%')) continue;
    const size_t field_count = SplitFields(line, fields);
    if (field_count == 0) continue;
    const std::string_view tag = fields[0];
    if (tag == "t") {
      if (saw_header) return fail("duplicate header");
      if (field_count != 3 ||
          !ParseUint(fields[1], &declared_vertices, limits.max_vertices) ||
          !ParseUint(fields[2], &declared_edges, limits.max_edges)) {
        return fail("malformed header");
      }
      saw_header = true;
      parsed.labels.assign(declared_vertices, 0);
      vertex_seen.assign(declared_vertices, false);
      parsed.declared_degrees.assign(declared_vertices, kInvalidVertex);
      // An 'e' line takes at least six bytes, so the input bounds the
      // reservation as well as the header does.
      parsed.edges.reserve(
          std::min<size_t>(declared_edges, text.size() / 6 + 1));
    } else if (tag == "v") {
      uint32_t id = 0;
      Label label = 0;
      uint32_t degree = kInvalidVertex;
      if (!saw_header || field_count < 3 || field_count > 4 ||
          !ParseUint(fields[1], &id, limits.max_vertices) ||
          !ParseUint(fields[2], &label, limits.max_label)) {
        return fail("malformed vertex");
      }
      if (field_count == 4 &&
          !ParseUint(fields[3], &degree, limits.max_edges)) {
        return fail("malformed vertex degree");
      }
      if (id >= declared_vertices || vertex_seen[id]) {
        return fail("bad vertex id");
      }
      vertex_seen[id] = true;
      ++vertices_seen;
      parsed.labels[id] = label;
      parsed.declared_degrees[id] = degree;
    } else if (tag == "e") {
      Vertex u = 0, v = 0;
      if (!saw_header || field_count != 3 ||
          !ParseUint(fields[1], &u, limits.max_vertices) ||
          !ParseUint(fields[2], &v, limits.max_vertices)) {
        return fail("malformed edge");
      }
      if (u >= declared_vertices || v >= declared_vertices || u == v) {
        return fail("bad edge");
      }
      const std::pair<Vertex, Vertex> edge{std::min(u, v), std::max(u, v)};
      if (!parsed.edges.empty() && edge <= parsed.edges.back()) {
        edges_sorted = false;
      }
      parsed.edges.push_back(edge);
      if (parsed.edges.size() > declared_edges &&
          (edges_sorted || parsed.edges.size() >= 2ULL * declared_edges)) {
        sort_unique();
        if (parsed.edges.size() > declared_edges) {
          return fail(count_mismatch(
              "at least " + std::to_string(parsed.edges.size())));
        }
      }
    } else {
      return fail("unknown record '" + std::string(tag) + "'");
    }
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
  sort_unique();
  if (parsed.edges.size() != declared_edges) {
    SetError(error, count_mismatch(std::to_string(parsed.edges.size())));
    return std::nullopt;
  }
  return parsed;
}

/// Parses `text`, frees it, then builds the graph and checks the declared
/// degrees: the text and the graph are never held at once.
std::optional<Graph> ReadGraphText(std::string text, std::string* error,
                                   const ReadGraphLimits& limits) {
  std::optional<ParsedGraph> parsed = ParseGraphText(text, error, limits);
  text = std::string();
  if (!parsed.has_value()) return std::nullopt;
  Graph graph(std::move(parsed->labels), parsed->edges);
  for (Vertex v = 0; v < graph.vertex_count(); ++v) {
    const uint32_t declared = parsed->declared_degrees[v];
    if (declared != kInvalidVertex && declared != graph.degree(v)) {
      SetError(error, "degree mismatch for vertex " + std::to_string(v) +
                          ": declared " + std::to_string(declared) +
                          ", actual " + std::to_string(graph.degree(v)));
      return std::nullopt;
    }
  }
  return graph;
}

}  // namespace

std::optional<Graph> ReadGraph(std::istream& in, std::string* error,
                               const ReadGraphLimits& limits) {
  std::string text;
  char block[1 << 16];
  while (in.read(block, sizeof(block)) || in.gcount() > 0) {
    text.append(block, static_cast<size_t>(in.gcount()));
  }
  if (in.bad()) {
    SetError(error, "read failure");
    return std::nullopt;
  }
  return ReadGraphText(std::move(text), error, limits);
}

std::optional<Graph> LoadGraphFile(const std::string& path, std::string* error,
                                   const ReadGraphLimits& limits) {
  std::ifstream in(path, std::ios::binary);
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
