#include "reference/bfs.h"

#include <algorithm>
#include <deque>
#include <utility>

namespace seda::reference {

ReferenceGraph::ReferenceGraph(const graph::DataGraph& graph)
    : store_(&graph.store()), edges_(graph.edges()) {
  for (size_t e = 0; e < edges_.size(); ++e) {
    out_edges_[edges_[e].from].push_back(static_cast<uint32_t>(e));
    in_edges_[edges_[e].to].push_back(static_cast<uint32_t>(e));
  }
}

std::vector<graph::Edge> ReferenceGraph::NonTreeEdges(
    const store::NodeId& node) const {
  std::vector<graph::Edge> out;
  if (auto it = out_edges_.find(node); it != out_edges_.end()) {
    for (uint32_t e : it->second) out.push_back(edges_[e]);
  }
  if (auto it = in_edges_.find(node); it != in_edges_.end()) {
    for (uint32_t e : it->second) out.push_back(edges_[e]);
  }
  return out;
}

template <typename Fn>
void ReferenceGraph::ForEachNeighbor(const store::NodeId& node,
                                     const Fn& fn) const {
  xml::Node* n = store_->GetNode(node);
  if (n == nullptr) return;
  if (n->parent() != nullptr) {
    if (!fn(store::NodeId{node.doc, n->parent()->dewey()})) return;
  }
  for (const auto& child : n->children()) {
    if (child->kind() == xml::NodeKind::kText) continue;
    if (!fn(store::NodeId{node.doc, child->dewey()})) return;
  }
  if (auto it = out_edges_.find(node); it != out_edges_.end()) {
    for (uint32_t e : it->second) {
      if (!fn(edges_[e].to)) return;
    }
  }
  if (auto it = in_edges_.find(node); it != in_edges_.end()) {
    for (uint32_t e : it->second) {
      if (!fn(edges_[e].from)) return;
    }
  }
}

std::vector<store::NodeId> ReferenceGraph::Neighbors(
    const store::NodeId& node) const {
  std::vector<store::NodeId> out;
  ForEachNeighbor(node, [&out](const store::NodeId& next) {
    out.push_back(next);
    return true;
  });
  return out;
}

std::optional<size_t> ReferenceGraph::Bfs(const store::NodeId& a,
                                          const store::NodeId& b,
                                          size_t max_depth, size_t max_visits,
                                          std::vector<store::NodeId>* path_out,
                                          graph::GraphStats* stats) const {
  if (a == b) {
    if (path_out != nullptr) *path_out = {a};
    return 0;
  }
  std::unordered_map<store::NodeId, store::NodeId, store::NodeIdHasher> parent;
  std::deque<std::pair<store::NodeId, size_t>> queue;
  queue.emplace_back(a, 0);
  parent.emplace(a, a);
  size_t visited = 1;
  size_t found_depth = 0;
  bool found = false;
  while (!queue.empty() && !found) {
    auto [current, depth] = queue.front();
    queue.pop_front();
    if (depth >= max_depth) continue;
    if (max_visits > 0 && visited >= max_visits) break;
    if (stats != nullptr) ++stats->bfs_expansions;
    ForEachNeighbor(current, [&](const store::NodeId& next) {
      if (parent.count(next)) return true;
      parent.emplace(next, current);
      ++visited;
      if (next == b) {
        found_depth = depth + 1;
        found = true;
        return false;
      }
      queue.emplace_back(next, depth + 1);
      return true;
    });
  }
  if (!found) return std::nullopt;
  if (path_out != nullptr) {
    std::vector<store::NodeId> path{b};
    store::NodeId walk = b;
    while (!(walk == a)) {
      walk = parent.at(walk);
      path.push_back(walk);
    }
    std::reverse(path.begin(), path.end());
    *path_out = std::move(path);
  }
  return found_depth;
}

std::optional<size_t> ReferenceGraph::ShortestPathLength(
    const store::NodeId& a, const store::NodeId& b, size_t max_depth,
    size_t max_visits, graph::GraphStats* stats) const {
  return Bfs(a, b, max_depth, max_visits, nullptr, stats);
}

std::vector<store::NodeId> ReferenceGraph::ShortestPath(
    const store::NodeId& a, const store::NodeId& b, size_t max_depth,
    size_t max_visits, graph::GraphStats* stats) const {
  std::vector<store::NodeId> path;
  Bfs(a, b, max_depth, max_visits, &path, stats);
  return path;
}

std::optional<size_t> ReferenceGraph::ConnectionSize(
    const std::vector<store::NodeId>& nodes, size_t max_depth,
    size_t max_visits, graph::GraphStats* stats) const {
  if (nodes.size() <= 1) return 0;
  std::unordered_map<store::DocId, std::vector<xml::DeweyId>> by_doc;
  for (const auto& n : nodes) by_doc[n.doc].push_back(n.dewey);

  // Within one document: the Euler-tour identity over Dewey-sorted nodes.
  size_t total = 0;
  for (auto& [doc, deweys] : by_doc) {
    if (deweys.size() == 1) continue;
    std::sort(deweys.begin(), deweys.end());
    size_t cycle = 0;
    for (size_t i = 0; i < deweys.size(); ++i) {
      cycle += xml::TreeDistance(deweys[i], deweys[(i + 1) % deweys.size()]);
    }
    total += cycle / 2;
  }
  if (by_doc.size() == 1) return total;

  // Across documents: greedy spanning connection by cheapest shortest path.
  std::vector<bool> connected(nodes.size(), false);
  connected[0] = true;
  size_t connected_count = 1;
  while (connected_count < nodes.size()) {
    size_t best_cost = SIZE_MAX;
    size_t best_index = SIZE_MAX;
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (connected[i]) continue;
      for (size_t j = 0; j < nodes.size(); ++j) {
        if (!connected[j]) continue;
        if (nodes[i].doc == nodes[j].doc) {
          // Free: the subtree term already paid for it. Only the first such
          // node is taken, never an earlier node of another document.
          if (best_cost > 0) {
            best_cost = 0;
            best_index = i;
          }
          continue;
        }
        auto len = ShortestPathLength(nodes[j], nodes[i], max_depth,
                                      max_visits, stats);
        if (len && *len < best_cost) {
          best_cost = *len;
          best_index = i;
        }
      }
    }
    if (best_index == SIZE_MAX) return std::nullopt;
    connected[best_index] = true;
    ++connected_count;
    total += best_cost;
  }
  return total;
}

}  // namespace seda::reference
