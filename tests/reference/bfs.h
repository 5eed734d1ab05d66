#ifndef SEDA_TESTS_REFERENCE_BFS_H_
#define SEDA_TESTS_REFERENCE_BFS_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "graph/data_graph.h"
#include "store/document_store.h"

namespace seda::reference {

/// The reference walker the CSR kernels (src/graph/csr.h) are checked
/// against: hash-map adjacency built from a graph's edge log and its store's
/// trees, and a queue BFS over it with a hash-map visited set. A node's
/// neighbours come in walk order — parent, non-text children, out edges,
/// in edges, each in log order — and the BFS counts work the way the CSR
/// frontier BFS does (depth test, then budget test, then one
/// `bfs_expansions` per expanded node; found when the target is added).
/// It has no distance-1/2 shortcut, so its budget truncates those answers
/// too. Slow by design; tests and benches only.
class ReferenceGraph {
 public:
  /// Snapshots `graph.edges()`; `graph` and its store must outlive this.
  explicit ReferenceGraph(const graph::DataGraph& graph);

  /// Out edges, then in edges, each in log order.
  std::vector<graph::Edge> NonTreeEdges(const store::NodeId& node) const;

  /// Neighbours of `node` in walk order (duplicates kept).
  std::vector<store::NodeId> Neighbors(const store::NodeId& node) const;

  std::optional<size_t> ShortestPathLength(
      const store::NodeId& a, const store::NodeId& b, size_t max_depth,
      size_t max_visits = 0, graph::GraphStats* stats = nullptr) const;
  std::vector<store::NodeId> ShortestPath(
      const store::NodeId& a, const store::NodeId& b, size_t max_depth,
      size_t max_visits = 0, graph::GraphStats* stats = nullptr) const;
  /// graph::DataGraph::ConnectionSize with every cross-document hop answered
  /// by this walker.
  std::optional<size_t> ConnectionSize(
      const std::vector<store::NodeId>& nodes, size_t max_depth = 12,
      size_t max_visits = 0, graph::GraphStats* stats = nullptr) const;

 private:
  template <typename Fn>
  void ForEachNeighbor(const store::NodeId& node, const Fn& fn) const;
  std::optional<size_t> Bfs(const store::NodeId& a, const store::NodeId& b,
                            size_t max_depth, size_t max_visits,
                            std::vector<store::NodeId>* path_out,
                            graph::GraphStats* stats) const;

  const store::DocumentStore* store_;
  std::vector<graph::Edge> edges_;
  std::unordered_map<store::NodeId, std::vector<uint32_t>, store::NodeIdHasher>
      out_edges_;
  std::unordered_map<store::NodeId, std::vector<uint32_t>, store::NodeIdHasher>
      in_edges_;
};

}  // namespace seda::reference

#endif  // SEDA_TESTS_REFERENCE_BFS_H_
