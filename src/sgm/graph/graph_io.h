// Text serialization of labeled graphs.
//
// The format is the one used by the paper's published datasets and code:
//
//   t <vertex-count> <edge-count>
//   v <id> <label> <degree>          (one line per vertex, ids dense from 0)
//   e <u> <v>                        (one line per undirected edge)
//
// The degree column is redundant and is validated, not trusted. Lines
// starting with '#' or '%' are treated as comments. An edge may appear more
// than once, in either orientation; the header counts unique edges.
//
// The reader is hardened against hostile input (it is a libFuzzer target,
// see src/sgm/fuzz/fuzzers/): numeric fields are parsed strictly — no signs,
// no overflow wrap-around — and the declared sizes are checked against
// ReadGraphLimits before anything is allocated, so a forged header cannot
// force a multi-gigabyte allocation.
#ifndef SGM_GRAPH_GRAPH_IO_H_
#define SGM_GRAPH_GRAPH_IO_H_

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "sgm/graph/graph.h"

namespace sgm {

/// Allocation caps enforced by ReadGraph before trusting a header. The
/// defaults comfortably cover the paper's largest dataset (Friendster,
/// 65M vertices / 1.8B edges would need a raised cap) while keeping the
/// worst-case allocation from a malicious header in the hundreds of MB.
struct ReadGraphLimits {
  uint32_t max_vertices = 1u << 27;  // 134M
  uint32_t max_edges = 1u << 29;     // 537M
  /// Labels are dense in [0, label_count): Graph allocates an index sized by
  /// the largest label value, so it must be capped independently.
  uint32_t max_label = 1u << 24;  // 16.7M
};

/// Parses a graph from a stream. On failure returns std::nullopt and, if
/// error is non-null, stores a human-readable description.
std::optional<Graph> ReadGraph(std::istream& in, std::string* error,
                               const ReadGraphLimits& limits = {});

/// Loads a graph from a file path.
std::optional<Graph> LoadGraphFile(const std::string& path, std::string* error,
                                   const ReadGraphLimits& limits = {});

/// Writes a graph in the same text format.
void WriteGraph(const Graph& graph, std::ostream& out);

/// Saves a graph to a file path. Returns false (and sets error) on IO failure.
bool SaveGraphFile(const Graph& graph, const std::string& path,
                   std::string* error);

}  // namespace sgm

#endif  // SGM_GRAPH_GRAPH_IO_H_
