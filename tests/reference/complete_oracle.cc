#include "reference/complete_oracle.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_set>

#include "common/strings.h"
#include "reference/evaluate_nodes.h"

namespace seda::reference {

namespace {

using store::NodeId;
using store::NodeIdHasher;

/// Number of leading labels two root-to-leaf paths share.
size_t CommonLabels(const std::string& a, const std::string& b) {
  std::vector<std::string> la = SplitSkipEmpty(a, '/');
  std::vector<std::string> lb = SplitSkipEmpty(b, '/');
  size_t d = 0;
  while (d < la.size() && d < lb.size() && la[d] == lb[d]) ++d;
  return d;
}

size_t Labels(const std::string& path) { return SplitSkipEmpty(path, '/').size(); }

/// Every element and attribute node, by its path and then its document, in
/// document order.
using NodesByPath =
    std::map<std::string, std::map<store::DocId, std::vector<NodeId>>>;

NodesByPath WalkStore(const store::DocumentStore& store) {
  NodesByPath out;
  store.ForEachNode([&](const NodeId& id, const xml::Node* node) {
    if (node->kind() == xml::NodeKind::kText) return;
    out[node->ContextPath()][id.doc].push_back(id);
  });
  return out;
}

/// One predicate of the join, checked once both of its terms are bound.
struct Predicate {
  size_t a = 0;
  size_t b = 0;
  size_t lca_depth = 0;                          // tree predicates
  const twig::ChosenConnection* link = nullptr;  // link predicates
};

}  // namespace

std::vector<twig::ResultTuple> CompleteResults(
    const text::InvertedIndex& index, const ReferenceGraph& graph,
    const std::vector<twig::TermBinding>& terms,
    const std::vector<twig::ChosenConnection>& connections) {
  const store::DocumentStore& store = index.store();
  const NodesByPath by_path = WalkStore(store);
  const size_t m = terms.size();

  // Each term's range: the nodes at its path that satisfy its search.
  std::vector<std::vector<NodeId>> range(m);
  for (size_t t = 0; t < m; ++t) {
    auto at_path = by_path.find(terms[t].path);
    if (at_path == by_path.end()) continue;
    std::unordered_set<NodeId, NodeIdHasher> matching;
    const bool any = terms[t].search == nullptr ||
                     terms[t].search->kind == text::TextExpr::Kind::kAll;
    if (!any) {
      for (const text::NodeMatch& match : EvaluateNodes(index, *terms[t].search)) {
        matching.insert(match.node);
      }
    }
    for (const auto& [doc, nodes] : at_path->second) {
      for (const NodeId& node : nodes) {
        if (any || matching.count(node)) range[t].push_back(node);
      }
    }
  }

  // Predicates, keyed by the later of their two terms.
  std::vector<std::vector<Predicate>> checks(m);
  std::set<std::pair<size_t, size_t>> chosen_pairs;
  for (const twig::ChosenConnection& conn : connections) {
    Predicate p;
    p.a = conn.term_a;
    p.b = conn.term_b;
    if (conn.is_link) {
      p.link = &conn;
    } else {
      p.lca_depth = Labels(conn.join_path);
    }
    checks[std::max(p.a, p.b)].push_back(p);
    chosen_pairs.emplace(std::min(p.a, p.b), std::max(p.a, p.b));
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      if (chosen_pairs.count({i, j})) continue;
      const size_t shared = CommonLabels(terms[i].path, terms[j].path);
      if (shared == 0) continue;  // different roots: unconstrained
      checks[j].push_back(Predicate{i, j, shared, nullptr});
    }
  }

  // The instances at `endpoint_path` anchored to `node` (bound at `path`).
  auto anchored = [&](const NodeId& node, const std::string& path,
                      const std::string& endpoint_path) {
    std::vector<NodeId> out;
    auto at_path = by_path.find(endpoint_path);
    if (at_path == by_path.end()) return out;
    auto in_doc = at_path->second.find(node.doc);
    if (in_doc == at_path->second.end()) return out;
    const size_t depth = CommonLabels(path, endpoint_path);
    for (const NodeId& candidate : in_doc->second) {
      if (xml::CommonPrefixLength(candidate.dewey, node.dewey) >= depth) {
        out.push_back(candidate);
      }
    }
    return out;
  };
  auto linked = [&](const twig::ChosenConnection& link, const NodeId& a,
                    const NodeId& b) {
    std::vector<NodeId> targets =
        anchored(b, terms[link.term_b].path, link.target_path);
    for (const NodeId& s : anchored(a, terms[link.term_a].path, link.source_path)) {
      for (const graph::Edge& edge : graph.NonTreeEdges(s)) {
        if (!link.link_label.empty() && edge.label != link.link_label) continue;
        const NodeId& far = edge.from == s ? edge.to : edge.from;
        if (std::find(targets.begin(), targets.end(), far) != targets.end()) {
          return true;
        }
      }
    }
    return false;
  };

  std::vector<twig::ResultTuple> out;
  std::vector<NodeId> bound(m);
  auto extend = [&](auto&& self, size_t term) -> void {
    if (term == m) {
      twig::ResultTuple tuple;
      tuple.nodes = bound;
      for (const twig::TermBinding& binding : terms) {
        tuple.paths.push_back(store.paths().Find(binding.path));
      }
      out.push_back(std::move(tuple));
      return;
    }
    for (const NodeId& node : range[term]) {
      bound[term] = node;
      bool ok = true;
      for (const Predicate& p : checks[term]) {
        const NodeId& a = bound[p.a];
        const NodeId& b = bound[p.b];
        ok = p.link != nullptr
                 ? linked(*p.link, a, b)
                 : a.doc == b.doc &&
                       xml::CommonPrefixLength(a.dewey, b.dewey) == p.lca_depth;
        if (!ok) break;
      }
      if (ok) self(self, term + 1);
    }
  };
  if (m > 0) extend(extend, 0);
  std::sort(out.begin(), out.end(),
            [](const twig::ResultTuple& x, const twig::ResultTuple& y) {
              return x.nodes < y.nodes;
            });
  return out;
}

}  // namespace seda::reference
