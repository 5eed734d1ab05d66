#include "twig/twig.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/strings.h"
#include "exec/cursor.h"

namespace seda::twig {

namespace {

using store::NodeId;
using store::NodeIdHasher;

/// Amortized cooperative deadline. Expired() reads the clock only every
/// kStride calls so the inner matching/enumeration loops stay branch-cheap;
/// once the deadline passes the state latches and every caller unwinds.
class DeadlineGuard {
 public:
  explicit DeadlineGuard(uint64_t deadline_ms) {
    if (deadline_ms > 0) {
      armed_ = true;
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms);
    }
  }

  bool Expired() {
    if (!armed_ || expired_) return expired_;
    if (++calls_ % kStride != 0) return false;
    expired_ = std::chrono::steady_clock::now() >= deadline_;
    return expired_;
  }

  /// Whether the deadline ever fired (no clock read; for the final report).
  bool expired() const { return expired_; }

 private:
  static constexpr uint32_t kStride = 256;
  std::chrono::steady_clock::time_point deadline_{};
  uint32_t calls_ = 0;
  bool armed_ = false;
  bool expired_ = false;
};

size_t PathDepth(const std::string& path) {
  return SplitSkipEmpty(path, '/').size();
}

std::string PrefixAt(const std::string& path, size_t depth) {
  auto labels = SplitSkipEmpty(path, '/');
  std::string out;
  for (size_t i = 0; i < depth && i < labels.size(); ++i) {
    out += "/" + labels[i];
  }
  return out;
}

bool IsPrefixPath(const std::string& prefix, const std::string& path) {
  if (prefix == path) return true;
  return StartsWith(path, prefix + "/");
}

NodeId AncestorAt(const NodeId& node, size_t depth) {
  const auto& comps = node.dewey.components();
  std::vector<uint32_t> prefix(comps.begin(),
                               comps.begin() + std::min(depth, comps.size()));
  return NodeId{node.doc, xml::DeweyId(std::move(prefix))};
}

size_t CommonLabelDepth(const std::string& a, const std::string& b) {
  auto la = SplitSkipEmpty(a, '/');
  auto lb = SplitSkipEmpty(b, '/');
  size_t d = 0;
  while (d < la.size() && d < lb.size() && la[d] == lb[d]) ++d;
  return d;
}

/// Candidate endpoint instances for a link anchored at `endpoint_path`,
/// relative to the bound node `node` whose context is `term_path`. When the
/// endpoint lies on the node's root-to-leaf path it is the unique ancestor;
/// otherwise it branches off a shared ancestor (e.g. /sea/bordering relative
/// to /sea/name) and every instance under that ancestor qualifies.
std::vector<NodeId> LinkEndpointInstances(const text::InvertedIndex& index,
                                          const NodeId& node,
                                          const std::string& term_path,
                                          const std::string& endpoint_path) {
  if (IsPrefixPath(endpoint_path, term_path)) {
    return {AncestorAt(node, PathDepth(endpoint_path))};
  }
  size_t anchor_depth = CommonLabelDepth(endpoint_path, term_path);
  NodeId anchor = AncestorAt(node, anchor_depth);
  std::vector<NodeId> out;
  store::PathId pid = index.store().paths().Find(endpoint_path);
  for (const NodeId& candidate : index.NodesWithPath(pid)) {
    if (candidate.doc != node.doc) continue;
    if (anchor.dewey.IsAncestorOrSelf(candidate.dewey)) out.push_back(candidate);
  }
  return out;
}

/// Union-find.
class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  size_t Find(size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(size_t a, size_t b) { parent_[Find(a)] = Find(b); }

 private:
  std::vector<size_t> parent_;
};

/// The resolved execution plan: the twig partition, the effective tree-join
/// depth of every same-twig pair and the link joins between twigs.
struct Plan {
  size_t term_count = 0;
  std::vector<size_t> twig_of_term;                 // term -> twig id (dense)
  size_t twig_count = 0;
  /// Effective tree-join depth for every same-twig pair (i<j), after
  /// union-find closure over the user's chosen connections plus defaults.
  std::map<std::pair<size_t, size_t>, size_t> tree_depth;
  std::vector<ChosenConnection> links;
};

Result<Plan> BuildPlan(const std::vector<TermBinding>& terms,
                       const std::vector<ChosenConnection>& connections) {
  Plan plan;
  const size_t m = terms.size();
  plan.term_count = m;
  if (m == 0) return Status::InvalidArgument("no terms");
  for (const TermBinding& term : terms) {
    if (term.path.empty() || term.path[0] != '/') {
      return Status::InvalidArgument("term context must be an absolute path, got '" +
                                     term.path + "'");
    }
  }

  // Validate connections and split into tree constraints vs links.
  std::vector<ChosenConnection> tree_conns;
  std::set<std::pair<size_t, size_t>> linked_pairs;
  for (const ChosenConnection& conn : connections) {
    if (conn.term_a >= m || conn.term_b >= m || conn.term_a == conn.term_b) {
      return Status::InvalidArgument("connection references invalid term indices");
    }
    if (conn.is_link) {
      if (CommonLabelDepth(conn.source_path, terms[conn.term_a].path) == 0) {
        return Status::InvalidArgument("link source " + conn.source_path +
                                       " shares no document root with " +
                                       terms[conn.term_a].path);
      }
      if (CommonLabelDepth(conn.target_path, terms[conn.term_b].path) == 0) {
        return Status::InvalidArgument("link target " + conn.target_path +
                                       " shares no document root with " +
                                       terms[conn.term_b].path);
      }
      plan.links.push_back(conn);
      linked_pairs.emplace(std::min(conn.term_a, conn.term_b),
                           std::max(conn.term_a, conn.term_b));
    } else {
      if (!IsPrefixPath(conn.join_path, terms[conn.term_a].path) ||
          !IsPrefixPath(conn.join_path, terms[conn.term_b].path)) {
        return Status::InvalidArgument("tree join path " + conn.join_path +
                                       " is not a common ancestor context");
      }
      tree_conns.push_back(conn);
    }
  }

  // Twig partition: terms united by tree connections; unconstrained pairs
  // default to the same twig when their paths share the document root label
  // and the pair is not explicitly link-joined.
  UnionFind twig_uf(m);
  for (const ChosenConnection& conn : tree_conns) {
    twig_uf.Union(conn.term_a, conn.term_b);
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      if (linked_pairs.count({i, j})) continue;
      if (PrefixAt(terms[i].path, 1) == PrefixAt(terms[j].path, 1)) {
        twig_uf.Union(i, j);
      }
    }
  }
  std::map<size_t, size_t> twig_ids;
  plan.twig_of_term.resize(m);
  for (size_t i = 0; i < m; ++i) {
    size_t root = twig_uf.Find(i);
    auto [it, inserted] = twig_ids.emplace(root, twig_ids.size());
    plan.twig_of_term[i] = it->second;
  }
  plan.twig_count = twig_ids.size();

  // Instance-sharing closure: union (term, depth) slots for every tree
  // connection (all depths <= join depth), and by default at the deepest
  // common prefix for unconstrained same-twig pairs.
  size_t max_depth = 0;
  for (const TermBinding& term : terms) {
    max_depth = std::max(max_depth, PathDepth(term.path));
  }
  auto slot = [max_depth](size_t term, size_t depth) {
    return term * (max_depth + 1) + depth;
  };
  UnionFind share_uf(m * (max_depth + 1));

  auto unify_to_depth = [&](size_t a, size_t b, size_t depth) {
    for (size_t d = 1; d <= depth; ++d) share_uf.Union(slot(a, d), slot(b, d));
  };
  std::set<std::pair<size_t, size_t>> constrained;
  for (const ChosenConnection& conn : tree_conns) {
    unify_to_depth(conn.term_a, conn.term_b, PathDepth(conn.join_path));
    constrained.emplace(std::min(conn.term_a, conn.term_b),
                        std::max(conn.term_a, conn.term_b));
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      if (plan.twig_of_term[i] != plan.twig_of_term[j]) continue;
      if (constrained.count({i, j}) || linked_pairs.count({i, j})) continue;
      // Default: deepest common prefix.
      size_t d = 0;
      size_t limit = std::min(PathDepth(terms[i].path), PathDepth(terms[j].path));
      while (d < limit && PrefixAt(terms[i].path, d + 1) ==
                              PrefixAt(terms[j].path, d + 1)) {
        ++d;
      }
      unify_to_depth(i, j, d);
    }
  }

  // Effective depths after closure + validation.
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = i + 1; j < m; ++j) {
      if (plan.twig_of_term[i] != plan.twig_of_term[j]) continue;
      size_t limit = std::min(PathDepth(terms[i].path), PathDepth(terms[j].path));
      size_t d_eff = 0;
      for (size_t d = 1; d <= limit; ++d) {
        if (share_uf.Find(slot(i, d)) == share_uf.Find(slot(j, d))) d_eff = d;
      }
      if (d_eff == 0) {
        return Status::InvalidArgument(
            "terms " + std::to_string(i) + " and " + std::to_string(j) +
            " share a twig but no common instance; add a link connection");
      }
      if (PrefixAt(terms[i].path, d_eff) != PrefixAt(terms[j].path, d_eff)) {
        return Status::InvalidArgument("inconsistent tree joins: contexts diverge "
                                       "above the requested join depth");
      }
      for (const ChosenConnection& conn : tree_conns) {
        if (std::min(conn.term_a, conn.term_b) != i ||
            std::max(conn.term_a, conn.term_b) != j ||
            PathDepth(conn.join_path) == d_eff) {
          continue;
        }
        // The other joins share a deeper instance between the two terms, so
        // no tuple can put their common ancestor at the chosen path.
        return Status::InvalidArgument(
            "tree join of terms " + std::to_string(i) + " and " +
            std::to_string(j) + " at " + conn.join_path +
            " conflicts with the other joins, which share their ancestor at " +
            PrefixAt(terms[i].path, d_eff));
      }
      if (d_eff == PathDepth(terms[i].path) && d_eff == PathDepth(terms[j].path)) {
        return Status::InvalidArgument(
            "terms " + std::to_string(i) + " and " + std::to_string(j) +
            " would always bind the same node; drop one of them");
      }
      plan.tree_depth[{i, j}] = d_eff;
    }
  }
  return plan;
}

bool EdgeMatches(const graph::DataGraph& graph, const NodeId& s, const NodeId& t,
                 const std::string& label) {
  for (const graph::Edge& edge : graph.NonTreeEdges(s)) {
    bool touches = (edge.from == s && edge.to == t) || (edge.to == s && edge.from == t);
    if (!touches) continue;
    if (label.empty() || edge.label == label) return true;
  }
  return false;
}

}  // namespace

Result<ChosenConnection> ChosenConnection::FromDataguideConnection(
    size_t term_a, size_t term_b, const dataguide::Connection& connection) {
  ChosenConnection out;
  out.term_a = term_a;
  out.term_b = term_b;
  size_t link_count = 0;
  for (const auto& step : connection.steps) {
    if (step.move == dataguide::Connection::Move::kLink) ++link_count;
  }
  if (link_count == 0) {
    out.is_link = false;
    // The LCA is the shallowest context visited along the walk.
    std::string best = connection.from_path;
    size_t best_depth = PathDepth(best);
    for (const auto& step : connection.steps) {
      size_t depth = PathDepth(step.path);
      if (depth < best_depth) {
        best_depth = depth;
        best = step.path;
      }
    }
    out.join_path = best;
    return out;
  }
  if (link_count > 1) {
    return Status::Unimplemented("multi-link connections are not executable yet");
  }
  out.is_link = true;
  std::string current = connection.from_path;
  for (const auto& step : connection.steps) {
    if (step.move == dataguide::Connection::Move::kLink) {
      out.source_path = current;
      out.target_path = step.path;
      out.link_label = step.label;
      break;
    }
    current = step.path;
  }
  return out;
}

std::vector<std::vector<text::NodeMatch>> CompleteResultGenerator::TermStreams(
    const std::vector<TermBinding>& terms) const {
  const store::PathDictionary& dict = index_->store().paths();
  std::vector<std::vector<text::NodeMatch>> streams;
  streams.reserve(terms.size());
  for (const TermBinding& term : terms) {
    std::vector<text::NodeMatch> matches;
    store::PathId pid = dict.Find(term.path);
    if (pid == store::kInvalidPathId) {
      streams.push_back(std::move(matches));
      continue;
    }
    if (term.search == nullptr || term.search->kind == text::TextExpr::Kind::kAll) {
      for (const NodeId& node : index_->NodesWithPath(pid)) {
        matches.push_back({node, pid, 0.0});
      }
      // NodesWithPath is per-path append order; normalize to Dewey order.
      std::sort(matches.begin(), matches.end(),
                [](const text::NodeMatch& a, const text::NodeMatch& b) {
                  return a.node < b.node;
                });
    } else {
      // Streamed through the cursor layer with the chosen context pushed
      // down to the leaves; cursors emit in document (Dewey) order, the
      // order the holistic structural join consumes.
      std::unordered_set<store::PathId> allowed{pid};
      exec::CursorStats cursor_stats;
      matches = exec::EvaluateWithCursor(*index_, *term.search, &allowed,
                                         &cursor_stats);
    }
    streams.push_back(std::move(matches));
  }
  return streams;
}

Result<CompleteResult> CompleteResultGenerator::Execute(
    const std::vector<TermBinding>& terms,
    const std::vector<ChosenConnection>& connections,
    const ExecuteOptions& options) const {
  auto plan_result = BuildPlan(terms, connections);
  if (!plan_result.ok()) return plan_result.status();
  const Plan& plan = plan_result.value();
  const size_t m = terms.size();
  DeadlineGuard guard(options.deadline_ms);
  obs::ScopedSpan streams_span(options.trace, "term_streams");
  auto streams = TermStreams(terms);
  streams_span.End();
  const store::PathDictionary& dict = index_->store().paths();

  // ---- Per-twig pattern construction ----
  // A pattern class is an instance-shared (path prefix, group) node. Classes
  // are derived from the plan's pairwise effective join depths.
  struct PatternClass {
    std::string path;
    size_t depth = 0;
    size_t parent = SIZE_MAX;
    std::vector<size_t> children;
    std::vector<size_t> bound_terms;  // terms whose leaf is this class
  };

  struct MatchEntry {
    // For each child class (index into PatternClass::children), the valid
    // child instances under this node.
    std::vector<std::vector<NodeId>> child_nodes;
  };

  struct TwigResult {
    std::vector<size_t> terms;                     // global term indices
    std::vector<std::vector<NodeId>> tuples;       // bound nodes, order = terms
  };
  std::vector<TwigResult> twig_results(plan.twig_count);

  obs::ScopedSpan match_span(options.trace, "twig_match");
  match_span.AddCounter("twigs", plan.twig_count);
  for (size_t twig_id = 0; twig_id < plan.twig_count; ++twig_id) {
    if (guard.Expired()) break;  // remaining twigs yield no tuples
    std::vector<size_t> twig_terms;
    for (size_t t = 0; t < m; ++t) {
      if (plan.twig_of_term[t] == twig_id) twig_terms.push_back(t);
    }
    twig_results[twig_id].terms = twig_terms;

    // Class discovery: start from per-term chains, merge prefixes shared by
    // pairwise effective depths (transitive via merge of class keys).
    // Class key: representative (term, depth) pair under the sharing rule:
    // (i, d) shares with (j, d) iff d <= tree_depth[{i, j}].
    UnionFind class_uf(twig_terms.size() * 64);
    size_t max_depth = 0;
    for (size_t t : twig_terms) max_depth = std::max(max_depth, PathDepth(terms[t].path));
    auto local_slot = [&](size_t local_term, size_t depth) {
      return local_term * (max_depth + 1) + depth;
    };
    for (size_t a = 0; a < twig_terms.size(); ++a) {
      for (size_t b = a + 1; b < twig_terms.size(); ++b) {
        size_t gi = twig_terms[a], gj = twig_terms[b];
        auto it = plan.tree_depth.find({std::min(gi, gj), std::max(gi, gj)});
        if (it == plan.tree_depth.end()) continue;
        for (size_t d = 1; d <= it->second; ++d) {
          class_uf.Union(local_slot(a, d), local_slot(b, d));
        }
      }
    }
    // Materialize classes.
    std::map<size_t, size_t> class_of_root;  // uf root -> class id
    std::vector<PatternClass> classes;
    std::vector<std::vector<size_t>> term_chain(twig_terms.size());
    for (size_t a = 0; a < twig_terms.size(); ++a) {
      size_t depth_a = PathDepth(terms[twig_terms[a]].path);
      for (size_t d = 1; d <= depth_a; ++d) {
        size_t root = class_uf.Find(local_slot(a, d));
        auto [it, inserted] = class_of_root.emplace(root, classes.size());
        if (inserted) {
          PatternClass cls;
          cls.path = PrefixAt(terms[twig_terms[a]].path, d);
          cls.depth = d;
          classes.push_back(std::move(cls));
        }
        term_chain[a].push_back(it->second);
      }
      classes[term_chain[a].back()].bound_terms.push_back(twig_terms[a]);
    }
    // Parent/child relationships.
    for (size_t a = 0; a < twig_terms.size(); ++a) {
      for (size_t d = 1; d < term_chain[a].size(); ++d) {
        size_t child = term_chain[a][d];
        size_t parent = term_chain[a][d - 1];
        if (classes[child].parent == SIZE_MAX) {
          classes[child].parent = parent;
          classes[parent].children.push_back(child);
        }
      }
    }

    // ---- Holistic matching (bottom-up over Dewey streams) ----
    std::vector<std::unordered_map<NodeId, MatchEntry, NodeIdHasher>> valid(
        classes.size());
    // Order classes by decreasing depth.
    std::vector<size_t> class_order(classes.size());
    for (size_t i = 0; i < class_order.size(); ++i) class_order[i] = i;
    std::sort(class_order.begin(), class_order.end(), [&](size_t x, size_t y) {
      return classes[x].depth > classes[y].depth;
    });

    // Per-class term-stream membership (for bound classes).
    auto stream_set = [&](size_t cls) {
      std::unordered_set<NodeId, NodeIdHasher> set;
      bool first = true;
      for (size_t t : classes[cls].bound_terms) {
        std::unordered_set<NodeId, NodeIdHasher> cur;
        for (const text::NodeMatch& nm : streams[t]) cur.insert(nm.node);
        if (first) {
          set = std::move(cur);
          first = false;
        } else {
          std::erase_if(set, [&](const NodeId& n) { return !cur.count(n); });
        }
      }
      return set;
    };

    for (size_t cls : class_order) {
      if (guard.Expired()) break;
      const PatternClass& c = classes[cls];
      std::unordered_map<NodeId, MatchEntry, NodeIdHasher>& mine = valid[cls];
      if (c.children.empty()) {
        // Leaf class: instances from the bound term streams (a leaf class is
        // always bound; unbound leaves cannot arise from term chains).
        for (const NodeId& n : stream_set(cls)) {
          mine.emplace(n, MatchEntry{});
        }
      } else {
        // Internal: candidates were accumulated by children below. Keep only
        // instances covering every child slot; then apply term binding.
        for (auto& [node, entry] : mine) {
          entry.child_nodes.resize(c.children.size());
        }
        std::erase_if(mine, [&](const auto& kv) {
          for (const auto& slot_nodes : kv.second.child_nodes) {
            if (slot_nodes.empty()) return true;
          }
          return false;
        });
        if (!c.bound_terms.empty()) {
          auto allowed = stream_set(cls);
          std::erase_if(mine,
                        [&](const auto& kv) { return !allowed.count(kv.first); });
        }
      }
      // Propagate to parent.
      if (c.parent != SIZE_MAX) {
        const PatternClass& p = classes[c.parent];
        size_t slot_index = SIZE_MAX;
        for (size_t s = 0; s < p.children.size(); ++s) {
          if (p.children[s] == cls) {
            slot_index = s;
            break;
          }
        }
        SEDA_DCHECK_NE(slot_index, SIZE_MAX)
            << "class not registered in its parent's child slots";
        for (const auto& [node, entry] : mine) {
          if (guard.Expired()) break;
          NodeId parent_id{node.doc, node.dewey.Parent()};
          MatchEntry& pe = valid[c.parent][parent_id];
          if (pe.child_nodes.size() < p.children.size()) {
            pe.child_nodes.resize(p.children.size());
          }
          pe.child_nodes[slot_index].push_back(node);
        }
      }
    }

    // ---- Enumeration ----
    size_t root_class = SIZE_MAX;
    for (size_t i = 0; i < classes.size(); ++i) {
      if (classes[i].parent == SIZE_MAX) {
        if (root_class != SIZE_MAX) {
          return Status::Internal("twig has multiple roots");
        }
        root_class = i;
      }
    }
    if (root_class == SIZE_MAX) return Status::Internal("twig has no root");

    std::vector<NodeId> binding(m);
    std::vector<std::vector<NodeId>>& out_tuples = twig_results[twig_id].tuples;

    // Enumeration walks the pattern tree in pre-order; at each class it
    // chooses an instance compatible with the already-chosen parent
    // instance, enforcing distinct instances for sibling classes sharing
    // the same path.
    std::vector<size_t> preorder;
    {
      std::vector<size_t> stack{root_class};
      while (!stack.empty()) {
        size_t cls = stack.back();
        stack.pop_back();
        preorder.push_back(cls);
        for (size_t child : classes[cls].children) stack.push_back(child);
      }
    }

    // Depth-first assignment with explicit recursion.
    std::vector<NodeId> assigned(classes.size());
    std::vector<size_t> preorder_pos(classes.size(), 0);
    for (size_t i = 0; i < preorder.size(); ++i) preorder_pos[preorder[i]] = i;
    auto assign = [&](auto&& self, size_t position) -> void {
      if (guard.Expired()) return;  // unwind; tuples emitted so far stand
      if (position == preorder.size()) {
        std::vector<NodeId> tuple;
        tuple.reserve(twig_terms.size());
        for (size_t t : twig_terms) tuple.push_back(binding[t]);
        out_tuples.push_back(std::move(tuple));
        return;
      }
      size_t cls = preorder[position];
      const PatternClass& c = classes[cls];
      auto try_instance = [&](const NodeId& instance) {
        // Distinctness: sibling classes with the same path must bind
        // different instances (they represent different occurrences). Only
        // siblings assigned earlier in pre-order are bound yet.
        if (c.parent != SIZE_MAX) {
          for (size_t sibling : classes[c.parent].children) {
            if (sibling == cls || preorder_pos[sibling] > position) continue;
            if (classes[sibling].path == c.path &&
                assigned[sibling] == instance) {
              return;
            }
          }
        }
        assigned[cls] = instance;
        for (size_t t : c.bound_terms) binding[t] = instance;
        self(self, position + 1);
      };
      if (c.parent == SIZE_MAX) {
        for (const auto& [node, entry] : valid[cls]) {
          try_instance(node);
        }
      } else {
        // Instances valid under the assigned parent instance.
        const NodeId& parent_instance = assigned[c.parent];
        auto it = valid[c.parent].find(parent_instance);
        if (it == valid[c.parent].end()) return;
        size_t slot_index = SIZE_MAX;
        const PatternClass& p = classes[c.parent];
        for (size_t s = 0; s < p.children.size(); ++s) {
          if (p.children[s] == cls) {
            slot_index = s;
            break;
          }
        }
        SEDA_DCHECK_NE(slot_index, SIZE_MAX)
            << "enumeration class missing from its parent's child slots";
        SEDA_DCHECK_LT(slot_index, it->second.child_nodes.size());
        for (const NodeId& node : it->second.child_nodes[slot_index]) {
          // The child instance must itself be valid (present in valid[cls]).
          if (!valid[cls].count(node)) continue;
          try_instance(node);
        }
      }
    };
    assign(assign, 0);
  }
  match_span.End();

  // ---- Cross-twig joins ---- (the span closes on whichever return path
  // ends the join phase; RAII keeps partial/deadline exits covered.)
  obs::ScopedSpan join_span(options.trace, "cross_twig_join");
  CompleteResult result;
  result.twig_count = plan.twig_count;

  struct Cluster {
    std::vector<size_t> terms;
    std::vector<std::vector<NodeId>> tuples;  // order matches `terms`
  };
  std::vector<Cluster> clusters;
  std::vector<size_t> cluster_of_twig(plan.twig_count);
  for (size_t twig_id = 0; twig_id < plan.twig_count; ++twig_id) {
    Cluster cluster;
    cluster.terms = twig_results[twig_id].terms;
    cluster.tuples = std::move(twig_results[twig_id].tuples);
    clusters.push_back(std::move(cluster));
    cluster_of_twig[twig_id] = twig_id;
  }

  auto term_pos = [](const Cluster& cluster, size_t term) -> size_t {
    for (size_t i = 0; i < cluster.terms.size(); ++i) {
      if (cluster.terms[i] == term) return i;
    }
    return SIZE_MAX;
  };

  for (const ChosenConnection& link : plan.links) {
    if (guard.Expired()) break;  // partial joins handled below
    size_t ca = cluster_of_twig[plan.twig_of_term[link.term_a]];
    size_t cb = cluster_of_twig[plan.twig_of_term[link.term_b]];
    ++result.cross_twig_joins;
    const std::string& a_path = terms[link.term_a].path;
    const std::string& b_path = terms[link.term_b].path;

    if (ca == cb) {
      // Intra-cluster link acts as a filter.
      Cluster& cluster = clusters[ca];
      size_t pa = term_pos(cluster, link.term_a);
      size_t pb = term_pos(cluster, link.term_b);
      std::erase_if(cluster.tuples, [&](const std::vector<NodeId>& tuple) {
        for (const NodeId& s : LinkEndpointInstances(*index_, tuple[pa], a_path,
                                                     link.source_path)) {
          for (const NodeId& t : LinkEndpointInstances(*index_, tuple[pb], b_path,
                                                       link.target_path)) {
            if (EdgeMatches(*graph_, s, t, link.link_label)) return false;
          }
        }
        return true;
      });
      continue;
    }

    // Hash join: index cluster B tuples by their target endpoint instances.
    Cluster& a_cluster = clusters[ca];
    Cluster& b_cluster = clusters[cb];
    size_t pa = term_pos(a_cluster, link.term_a);
    size_t pb = term_pos(b_cluster, link.term_b);
    std::unordered_map<NodeId, std::vector<size_t>, NodeIdHasher> b_by_target;
    for (size_t i = 0; i < b_cluster.tuples.size(); ++i) {
      if (guard.Expired()) break;  // missing probes only shrink the join
      for (const NodeId& t : LinkEndpointInstances(*index_, b_cluster.tuples[i][pb],
                                                   b_path, link.target_path)) {
        b_by_target[t].push_back(i);
      }
    }
    Cluster merged;
    merged.terms = a_cluster.terms;
    merged.terms.insert(merged.terms.end(), b_cluster.terms.begin(),
                        b_cluster.terms.end());
    for (const std::vector<NodeId>& a_tuple : a_cluster.tuples) {
      if (guard.Expired()) break;
      std::set<size_t> joined_b;  // a B tuple joins at most once per A tuple
      for (const NodeId& s : LinkEndpointInstances(*index_, a_tuple[pa], a_path,
                                                   link.source_path)) {
        for (const graph::Edge& edge : graph_->NonTreeEdges(s)) {
          if (!link.link_label.empty() && edge.label != link.link_label) continue;
          NodeId other = edge.from == s ? edge.to : edge.from;
          auto it = b_by_target.find(other);
          if (it == b_by_target.end()) continue;
          for (size_t bi : it->second) joined_b.insert(bi);
        }
      }
      for (size_t bi : joined_b) {
        std::vector<NodeId> joined = a_tuple;
        joined.insert(joined.end(), b_cluster.tuples[bi].begin(),
                      b_cluster.tuples[bi].end());
        merged.tuples.push_back(std::move(joined));
      }
    }
    // Replace cluster ca with merged; empty cb.
    clusters[ca] = std::move(merged);
    clusters[cb].terms.clear();
    clusters[cb].tuples.clear();
    for (size_t& owner : cluster_of_twig) {
      if (owner == cb) owner = ca;
    }
  }

  result.deadline_exceeded = guard.expired();

  // Exactly one non-empty cluster must remain (covering all terms).
  size_t final_cluster = SIZE_MAX;
  for (size_t i = 0; i < clusters.size(); ++i) {
    if (clusters[i].terms.empty()) continue;
    if (final_cluster != SIZE_MAX) {
      if (result.deadline_exceeded) {
        // The deadline cut off the link joins before the clusters merged;
        // there is no well-formed tuple covering all terms, so report the
        // truncation with an empty (but valid) result rather than an error.
        return result;
      }
      return Status::InvalidArgument(
          "query terms form disconnected twigs; add connections");
    }
    final_cluster = i;
  }
  if (final_cluster == SIZE_MAX) return result;

  const Cluster& last = clusters[final_cluster];
  if (last.terms.size() != m) {
    // Deadline expired before every twig was joined in; no full-width tuples.
    SEDA_DCHECK(result.deadline_exceeded)
        << "final cluster misses terms without a deadline cut";
    return result;
  }
  for (const std::vector<NodeId>& tuple : last.tuples) {
    SEDA_DCHECK_EQ(tuple.size(), last.terms.size())
        << "cluster tuple width diverged from its term list";
    ResultTuple out;
    out.nodes.resize(m);
    out.paths.resize(m);
    for (size_t i = 0; i < last.terms.size(); ++i) {
      size_t term = last.terms[i];
      out.nodes[term] = tuple[i];
      out.paths[term] = dict.Find(terms[term].path);
    }
    result.tuples.push_back(std::move(out));
  }
  // Canonical order for comparisons.
  std::sort(result.tuples.begin(), result.tuples.end(),
            [](const ResultTuple& x, const ResultTuple& y) {
              for (size_t i = 0; i < x.nodes.size(); ++i) {
                if (x.nodes[i] < y.nodes[i]) return true;
                if (y.nodes[i] < x.nodes[i]) return false;
              }
              return false;
            });
  return result;
}

}  // namespace seda::twig
