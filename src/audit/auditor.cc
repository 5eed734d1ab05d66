#include "audit/auditor.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "graph/csr.h"
#include "persist/format.h"
#include "xml/document.h"

namespace seda::audit {
namespace {

/// Witnesses kept per invariant name; the rest only bump `suppressed`.
constexpr size_t kMaxWitnesses = 8;

std::string NodeRef(const store::NodeId& id) { return id.ToString(); }

/// Independent tree-walk recompute of the columnar projections: collects, for
/// every path that has a materialized column, the document's leaf occurrences
/// in preorder (== per-document Dewey order, the column's row order). A
/// column-path node that is not a leaf breaks the leaf-purity qualification
/// and is reported directly.
void WalkForColumns(
    const column::ColumnStore& columns, const xml::Node* node,
    store::DocId doc, std::string* path,
    std::unordered_map<const column::Column*, std::vector<const xml::Node*>>*
        hits,
    AuditReport* report) {
  const size_t base = path->size();
  path->push_back('/');
  if (node->kind() == xml::NodeKind::kAttribute) path->push_back('@');
  path->append(node->name());

  bool leaf = true;
  for (const auto& child : node->children()) {
    if (child->kind() != xml::NodeKind::kText) {
      leaf = false;
      break;
    }
  }
  if (const column::Column* col = columns.Find(*path); col != nullptr) {
    ++report->checks_run;
    if (leaf) {
      (*hits)[col].push_back(node);
    } else {
      report->Add("column.coverage",
                  "column " + *path + " has a non-leaf occurrence at node " +
                      node->dewey().ToString() + " of document " +
                      std::to_string(doc));
    }
  }
  if (!leaf) {
    for (const auto& child : node->children()) {
      if (child->kind() != xml::NodeKind::kText) {
        WalkForColumns(columns, child.get(), doc, path, hits, report);
      }
    }
  }
  path->resize(base);
}

}  // namespace

void AuditReport::Add(const std::string& invariant, const std::string& detail) {
  size_t count = 0;
  for (const Violation& v : violations) {
    if (v.invariant == invariant) ++count;
  }
  if (count >= kMaxWitnesses) {
    ++suppressed;
    return;
  }
  violations.push_back({invariant, detail});
}

bool AuditReport::Has(const std::string& invariant) const {
  for (const Violation& v : violations) {
    if (v.invariant == invariant) return true;
  }
  return false;
}

void AuditReport::Merge(const AuditReport& other) {
  for (const Violation& v : other.violations) Add(v.invariant, v.detail);
  checks_run += other.checks_run;
  suppressed += other.suppressed;
}

std::string AuditReport::ToString() const {
  std::ostringstream out;
  for (const Violation& v : violations) {
    out << "VIOLATION " << v.invariant << ": " << v.detail << "\n";
  }
  if (suppressed > 0) {
    out << "(+" << suppressed << " further violations suppressed)\n";
  }
  out << (ok() ? "audit OK" : "audit FAILED") << " — " << checks_run
      << " checks, " << (violations.size() + suppressed) << " violations\n";
  return out.str();
}

AuditReport SnapshotAuditor::AuditAll() const {
  AuditReport report;
  AuditStore(&report);
  AuditIndex(&report);
  AuditGraph(&report);
  AuditDataguides(&report);
  AuditColumns(&report);
  return report;
}

void SnapshotAuditor::AuditStore(AuditReport* report) const {
  const store::PathDictionary& dict = store_->paths();
  // Recounted-from-scratch statistics, compared against the dictionary after
  // the walk. Indexed by PathId.
  std::vector<uint64_t> node_counts(dict.size(), 0);
  std::vector<uint64_t> doc_counts(dict.size(), 0);
  uint64_t total_nodes = 0;

  for (store::DocId d = 0; d < store_->DocumentCount(); ++d) {
    const xml::Document& doc = store_->document(d);
    xml::Node* root = doc.root();
    ++report->checks_run;
    if (root == nullptr) {
      report->Add("store.root_missing",
                  "document " + std::to_string(d) + " has no root");
      continue;
    }
    ++report->checks_run;
    if (root->dewey() != xml::DeweyId({1})) {
      report->Add("store.root_dewey", "document " + std::to_string(d) +
                                          " root carries Dewey '" +
                                          root->dewey().ToString() + "'");
    }
    ++report->checks_run;
    if (root->parent() != nullptr) {
      report->Add("store.parent_pointer",
                  "document " + std::to_string(d) + " root has a parent");
    }

    // Distinct element/attribute paths seen in this document, for the
    // path-set cross-check and the dictionary doc counts.
    std::unordered_set<store::PathId> doc_paths;

    doc.ForEachNode([&](xml::Node* node) {
      ++total_nodes;
      const store::NodeId id{d, node->dewey()};

      // Child numbering: the i-th child (1-based, all kinds) extends the
      // parent's Dewey with component i.
      const auto& children = node->children();
      for (size_t i = 0; i < children.size(); ++i) {
        ++report->checks_run;
        if (children[i]->dewey() !=
            node->dewey().Child(static_cast<uint32_t>(i + 1))) {
          report->Add("store.child_numbering",
                      NodeRef(id) + " child " + std::to_string(i + 1) +
                          " carries Dewey '" + children[i]->dewey().ToString() +
                          "'");
        }
        ++report->checks_run;
        if (children[i]->parent() != node) {
          report->Add("store.parent_pointer",
                      NodeRef(id) + " child " + std::to_string(i + 1) +
                          " does not point back to its parent");
        }
      }

      // Every node must be reachable through the engine's lookup path.
      ++report->checks_run;
      if (store_->GetNode(id) != node) {
        report->Add("store.node_lookup",
                    NodeRef(id) + " does not resolve to itself via GetNode");
      }

      // Text nodes share their parent's path and are not interned.
      if (node->kind() == xml::NodeKind::kText) return;
      const std::string context = node->ContextPath();
      const store::PathId pid = dict.Find(context);
      ++report->checks_run;
      if (pid == store::kInvalidPathId || pid >= dict.size()) {
        report->Add("store.path_interned",
                    NodeRef(id) + " path '" + context + "' is not interned");
        return;
      }
      ++node_counts[pid];
      doc_paths.insert(pid);
    });

    for (store::PathId pid : doc_paths) ++doc_counts[pid];

    // The recorded per-document path set must be exactly the distinct paths
    // walked above, sorted strictly ascending and in dictionary bounds.
    const std::vector<store::PathId>& recorded = store_->DocumentPathSet(d);
    for (size_t i = 0; i < recorded.size(); ++i) {
      ++report->checks_run;
      if (recorded[i] >= dict.size()) {
        report->Add("store.doc_path_set_bounds",
                    "document " + std::to_string(d) + " path set entry " +
                        std::to_string(recorded[i]) + " out of bounds");
      }
      ++report->checks_run;
      if (i > 0 && recorded[i] <= recorded[i - 1]) {
        report->Add("store.doc_path_set_sorted",
                    "document " + std::to_string(d) +
                        " path set not strictly ascending at entry " +
                        std::to_string(i));
      }
    }
    ++report->checks_run;
    if (recorded.size() != doc_paths.size() ||
        !std::all_of(recorded.begin(), recorded.end(),
                     [&](store::PathId p) { return doc_paths.count(p) > 0; })) {
      report->Add("store.doc_path_set_exact",
                  "document " + std::to_string(d) + " path set records " +
                      std::to_string(recorded.size()) + " paths, walk found " +
                      std::to_string(doc_paths.size()));
    }
  }

  ++report->checks_run;
  if (total_nodes != store_->TotalNodeCount()) {
    report->Add("store.total_nodes",
                "store reports " + std::to_string(store_->TotalNodeCount()) +
                    " nodes, walk found " + std::to_string(total_nodes));
  }

  for (store::PathId pid = 0; pid < dict.size(); ++pid) {
    ++report->checks_run;
    if (dict.NodeCount(pid) != node_counts[pid]) {
      report->Add("store.path_node_count",
                  "path '" + dict.PathString(pid) + "' records " +
                      std::to_string(dict.NodeCount(pid)) +
                      " nodes, walk found " + std::to_string(node_counts[pid]));
    }
    ++report->checks_run;
    if (dict.DocCount(pid) != doc_counts[pid]) {
      report->Add("store.path_doc_count",
                  "path '" + dict.PathString(pid) + "' records " +
                      std::to_string(dict.DocCount(pid)) +
                      " documents, walk found " +
                      std::to_string(doc_counts[pid]));
    }
    // The by-last-tag secondary index must route back to the path.
    std::vector<store::PathId> tagged = dict.PathsWithLastTag(dict.LastTag(pid));
    ++report->checks_run;
    if (std::find(tagged.begin(), tagged.end(), pid) == tagged.end()) {
      report->Add("store.last_tag_index",
                  "path '" + dict.PathString(pid) +
                      "' missing from its last-tag bucket '" +
                      dict.LastTag(pid) + "'");
    }
  }
}

void SnapshotAuditor::AuditIndex(AuditReport* report) const {
  const store::PathDictionary& dict = store_->paths();

  uint64_t elem_attr_nodes = 0;
  store_->ForEachNode([&](const store::NodeId&, xml::Node* node) {
    if (node->kind() != xml::NodeKind::kText) ++elem_attr_nodes;
  });
  ++report->checks_run;
  if (index_->IndexedNodeCount() != elem_attr_nodes) {
    report->Add("index.indexed_nodes",
                "index reports " + std::to_string(index_->IndexedNodeCount()) +
                    " nodes, store holds " + std::to_string(elem_attr_nodes) +
                    " element/attribute nodes");
  }

  for (const std::string& term : index_->AllTerms()) {
    const text::PostingList postings = index_->Postings(term);
    std::unordered_set<store::DocId> posting_docs;
    uint32_t max_tf = 0;
    for (size_t i = 0; i < postings.size(); ++i) {
      const store::NodeId node = postings.node(i);
      ++report->checks_run;
      if (i > 0 && !postings.Before(i - 1, node.doc, postings.dewey(i))) {
        report->Add("index.posting_order",
                    "term '" + term + "' postings not strictly ascending at " +
                        NodeRef(node));
      }
      xml::Node* xml_node = store_->GetNode(node);
      ++report->checks_run;
      if (xml_node == nullptr) {
        report->Add("index.posting_bounds", "term '" + term + "' posting " +
                                                NodeRef(node) +
                                                " does not resolve");
        continue;
      }
      auto pid = store_->GetPathId(node);
      ++report->checks_run;
      if (!pid.ok() || *pid != postings.path(i)) {
        report->Add("index.posting_path",
                    "term '" + term + "' posting " + NodeRef(node) +
                        " carries path " + std::to_string(postings.path(i)) +
                        ", store says " +
                        (pid.ok() ? std::to_string(*pid) : "<unresolved>"));
      }
      const std::span<const uint32_t> positions = postings.positions(i);
      for (size_t j = 1; j < positions.size(); ++j) {
        ++report->checks_run;
        if (positions[j] <= positions[j - 1]) {
          report->Add("index.positions_sorted",
                      "term '" + term + "' posting " + NodeRef(node) +
                          " positions not strictly ascending");
          break;
        }
      }
      posting_docs.insert(node.doc);
      max_tf = std::max(max_tf, static_cast<uint32_t>(positions.size()));
    }

    ++report->checks_run;
    if (index_->DocumentFrequency(term) != posting_docs.size()) {
      report->Add("index.doc_frequency",
                  "term '" + term + "' records document frequency " +
                      std::to_string(index_->DocumentFrequency(term)) +
                      ", postings span " + std::to_string(posting_docs.size()) +
                      " documents");
    }
    ++report->checks_run;
    if (index_->MaxTermFrequency(term) != max_tf) {
      report->Add("index.max_tf",
                  "term '" + term + "' records max tf " +
                      std::to_string(index_->MaxTermFrequency(term)) +
                      ", postings max out at " + std::to_string(max_tf));
    }

    const std::vector<store::PathId>& paths = index_->TermPaths(term);
    for (size_t i = 0; i < paths.size(); ++i) {
      ++report->checks_run;
      if (paths[i] >= dict.size()) {
        report->Add("index.term_path_bounds",
                    "term '" + term + "' path entry " +
                        std::to_string(paths[i]) + " out of bounds");
        continue;
      }
      ++report->checks_run;
      if (i > 0 && paths[i] <= paths[i - 1]) {
        report->Add("index.term_paths_sorted",
                    "term '" + term + "' path postings not strictly "
                    "ascending at entry " + std::to_string(i));
      }
      ++report->checks_run;
      if (index_->TermPathCount(term, paths[i]) == 0) {
        report->Add("index.path_count_positive",
                    "term '" + term + "' lists path '" +
                        dict.PathString(paths[i]) + "' with occurrence count 0");
      }
    }
  }

  // The path -> nodes table must mirror the dictionary's node counts and
  // hold document-ordered nodes that actually carry the path.
  for (store::PathId pid = 0; pid < dict.size(); ++pid) {
    const std::vector<store::NodeId>& nodes = index_->NodesWithPath(pid);
    ++report->checks_run;
    if (nodes.size() != dict.NodeCount(pid)) {
      report->Add("index.nodes_by_path_count",
                  "path '" + dict.PathString(pid) + "' node table holds " +
                      std::to_string(nodes.size()) + " entries, dictionary "
                      "records " + std::to_string(dict.NodeCount(pid)));
    }
    for (size_t i = 0; i < nodes.size(); ++i) {
      ++report->checks_run;
      if (i > 0 && !(nodes[i - 1] < nodes[i])) {
        report->Add("index.nodes_by_path_order",
                    "path '" + dict.PathString(pid) +
                        "' node table not strictly ascending at " +
                        NodeRef(nodes[i]));
      }
      auto node_pid = store_->GetPathId(nodes[i]);
      ++report->checks_run;
      if (!node_pid.ok() || *node_pid != pid) {
        report->Add("index.nodes_by_path_path",
                    "path '" + dict.PathString(pid) + "' node table entry " +
                        NodeRef(nodes[i]) + " does not carry the path");
      }
    }
  }
}

void SnapshotAuditor::AuditGraph(AuditReport* report) const {
  const std::vector<graph::Edge>& edges = graph_->edges();
  for (size_t e = 0; e < edges.size(); ++e) {
    ++report->checks_run;
    if (store_->GetNode(edges[e].from) == nullptr ||
        store_->GetNode(edges[e].to) == nullptr) {
      report->Add("graph.edge_endpoints",
                  "edge " + std::to_string(e) + " (" + NodeRef(edges[e].from) +
                      " -> " + NodeRef(edges[e].to) + ") has an unresolvable "
                      "endpoint");
    }
  }

  // The adjacency (graph/csr.h), when built: a stale Csr (edges added after
  // BuildCsr) or a tampered image section would silently change distance
  // answers and labelled-edge reads otherwise.
  const graph::Csr* csr = graph_->csr();
  if (csr == nullptr) return;
  const uint32_t v_count = csr->num_vertices();

  // graph.adjacency_*: every logged edge must appear exactly once in the
  // out part of its source's edge-id row and exactly once in the in part of
  // its target's.
  std::vector<uint32_t> out_seen(edges.size(), 0);
  std::vector<uint32_t> in_seen(edges.size(), 0);
  for (uint32_t v = 0; v < v_count; ++v) {
    const store::NodeId node = csr->NodeIdOf(v);
    const uint32_t* row = csr->EdgeRowBegin(v);
    const size_t row_size = static_cast<size_t>(csr->EdgeRowEnd(v) - row);
    for (size_t i = 0; i < row_size; ++i) {
      const bool is_out = i < csr->OutDegreeOf(v);
      const uint32_t e = row[i];
      ++report->checks_run;
      if (e >= edges.size()) {
        report->Add("graph.adjacency_bounds",
                    std::string(is_out ? "out" : "in") + " row of " +
                        NodeRef(node) + " holds edge index " +
                        std::to_string(e) + " beyond the log");
        continue;
      }
      const store::NodeId& expected = is_out ? edges[e].from : edges[e].to;
      ++report->checks_run;
      if (!(expected == node)) {
        report->Add("graph.adjacency_direction",
                    std::string(is_out ? "out" : "in") + " row of " +
                        NodeRef(node) + " holds edge " + std::to_string(e) +
                        " whose " + (is_out ? "source" : "target") + " is " +
                        NodeRef(expected));
      }
      ++(is_out ? out_seen : in_seen)[e];
    }
  }
  for (size_t e = 0; e < edges.size(); ++e) {
    ++report->checks_run;
    if (out_seen[e] != 1 || in_seen[e] != 1) {
      report->Add("graph.adjacency_symmetry",
                  "edge " + std::to_string(e) + " appears " +
                      std::to_string(out_seen[e]) + "x forward / " +
                      std::to_string(in_seen[e]) + "x backward (want 1/1)");
    }
  }

  // graph.csr_offsets: vertex numbering covers exactly the non-text nodes,
  // and each walk-order row equals the row derived here from the store
  // trees and the edge log — parent, non-text children, far ends of the
  // out edges, then of the in edges, each in log order — with the O(1)
  // non-tree degree counting the same edges.
  uint64_t non_text = 0;
  store_->ForEachNode([&](const store::NodeId&, xml::Node* node) {
    if (node->kind() != xml::NodeKind::kText) ++non_text;
  });
  ++report->checks_run;
  if (v_count != non_text) {
    report->Add("graph.csr_offsets",
                "csr numbers " + std::to_string(v_count) +
                    " vertices, store holds " + std::to_string(non_text) +
                    " non-text nodes");
  }
  ++report->checks_run;
  if (csr->edge_count() != edges.size()) {
    report->Add("graph.csr_offsets",
                "csr built over " + std::to_string(csr->edge_count()) +
                    " edges, log holds " + std::to_string(edges.size()));
  }
  // (vertex, far end) per edge direction, stably grouped by vertex so each
  // group keeps log order.
  std::vector<std::pair<uint32_t, uint32_t>> out_ends;
  std::vector<std::pair<uint32_t, uint32_t>> in_ends;
  for (const graph::Edge& edge : edges) {
    auto from = csr->VertexOf(edge.from);
    auto to = csr->VertexOf(edge.to);
    if (!from.has_value() || !to.has_value()) continue;  // edge_endpoints
    out_ends.emplace_back(*from, *to);
    in_ends.emplace_back(*to, *from);
  }
  auto by_vertex = [](const auto& x, const auto& y) {
    return x.first < y.first;
  };
  std::stable_sort(out_ends.begin(), out_ends.end(), by_vertex);
  std::stable_sort(in_ends.begin(), in_ends.end(), by_vertex);
  size_t next_out = 0;
  size_t next_in = 0;
  std::vector<uint32_t> expected;
  for (uint32_t v = 0; v < v_count; ++v) {
    const store::NodeId id = csr->NodeIdOf(v);
    expected.clear();
    bool resolved = true;
    auto push_tree = [&](const xml::Node* n) {
      auto u = csr->VertexOf(store::NodeId{id.doc, n->dewey()});
      resolved = resolved && u.has_value();
      if (u.has_value()) expected.push_back(*u);
    };
    if (const xml::Node* node = store_->GetNode(id); node != nullptr) {
      if (node->parent() != nullptr) push_tree(node->parent());
      for (const auto& child : node->children()) {
        if (child->kind() != xml::NodeKind::kText) push_tree(child.get());
      }
    } else {
      resolved = false;
    }
    uint32_t non_tree = 0;
    for (; next_out < out_ends.size() && out_ends[next_out].first == v;
         ++next_out, ++non_tree) {
      expected.push_back(out_ends[next_out].second);
    }
    for (; next_in < in_ends.size() && in_ends[next_in].first == v;
         ++next_in, ++non_tree) {
      expected.push_back(in_ends[next_in].second);
    }
    ++report->checks_run;
    if (!resolved ||
        !std::equal(expected.begin(), expected.end(), csr->RowBegin(v),
                    csr->RowEnd(v))) {
      report->Add("graph.csr_offsets",
                  "csr row of " + NodeRef(id) +
                      " disagrees with the store trees and the edge log");
    }
    ++report->checks_run;
    if (csr->NonTreeDegreeOf(v) != non_tree) {
      report->Add("graph.csr_offsets",
                  "csr non-tree degree of " + NodeRef(id) + " is " +
                      std::to_string(csr->NonTreeDegreeOf(v)) +
                      ", the edge log holds " + std::to_string(non_tree));
    }
  }

  // graph.csr_symmetry: sorted rows strictly ascend and are symmetric
  // (u in sorted(v) <=> v in sorted(u)) — what the intersection kernels
  // assume; and each hub sketch equals an exact 2-hop recomputation.
  for (uint32_t v = 0; v < v_count; ++v) {
    const uint32_t* begin = csr->SortedRowBegin(v);
    const uint32_t* end = csr->SortedRowEnd(v);
    for (const uint32_t* it = begin; it != end; ++it) {
      ++report->checks_run;
      if (it != begin && *(it - 1) >= *it) {
        report->Add("graph.csr_symmetry",
                    "sorted row of vertex " + std::to_string(v) +
                        " is not strictly ascending");
        break;
      }
      if (!std::binary_search(csr->SortedRowBegin(*it), csr->SortedRowEnd(*it),
                              v)) {
        report->Add("graph.csr_symmetry",
                    "vertex " + std::to_string(v) + " lists neighbor " +
                        std::to_string(*it) + " which does not list it back");
      }
    }
  }
  std::vector<uint32_t> frontier;
  std::vector<uint32_t> next_frontier;
  std::vector<bool> within_two(v_count, false);
  for (size_t i = 0; i < csr->SketchCount(); ++i) {
    const uint32_t hub = csr->SketchHub(i);
    std::fill(within_two.begin(), within_two.end(), false);
    within_two[hub] = true;
    frontier.assign(1, hub);
    for (int depth = 0; depth < 2; ++depth) {
      next_frontier.clear();
      for (uint32_t v : frontier) {
        for (const uint32_t* it = csr->RowBegin(v); it != csr->RowEnd(v);
             ++it) {
          if (!within_two[*it]) {
            within_two[*it] = true;
            next_frontier.push_back(*it);
          }
        }
      }
      frontier.swap(next_frontier);
    }
    for (uint32_t v = 0; v < v_count; ++v) {
      ++report->checks_run;
      if (csr->SketchCovers(static_cast<int>(i), v) != within_two[v]) {
        report->Add("graph.csr_symmetry",
                    "sketch of hub vertex " + std::to_string(hub) +
                        " disagrees with a 2-hop BFS at vertex " +
                        std::to_string(v));
      }
    }
  }
}

void SnapshotAuditor::AuditDataguides(AuditReport* report) const {
  const store::PathDictionary& dict = store_->paths();
  const std::vector<dataguide::Dataguide>& guides = guides_->guides();

  // How many guides list each document as a member; every stored document
  // must end up with exactly one.
  std::unordered_map<store::DocId, size_t> member_of;

  for (size_t g = 0; g < guides.size(); ++g) {
    const std::vector<store::PathId>& paths = guides[g].paths();
    for (size_t i = 0; i < paths.size(); ++i) {
      ++report->checks_run;
      if (paths[i] >= dict.size()) {
        report->Add("dataguide.path_bounds",
                    "guide " + std::to_string(g) + " path entry " +
                        std::to_string(paths[i]) + " out of bounds");
      }
      ++report->checks_run;
      if (i > 0 && paths[i] <= paths[i - 1]) {
        report->Add("dataguide.paths_sorted",
                    "guide " + std::to_string(g) +
                        " paths not strictly ascending at entry " +
                        std::to_string(i));
      }
    }

    for (store::DocId doc : guides[g].members()) {
      ++member_of[doc];
      ++report->checks_run;
      if (doc >= store_->DocumentCount()) {
        report->Add("dataguide.member_bounds",
                    "guide " + std::to_string(g) + " lists document " +
                        std::to_string(doc) + " beyond the store");
        continue;
      }
      auto mapped = guides_->FindGuideOfDoc(doc);
      ++report->checks_run;
      if (!mapped.has_value() || *mapped != g) {
        report->Add("dataguide.member_mapping",
                    "document " + std::to_string(doc) + " is a member of "
                    "guide " + std::to_string(g) + " but maps to " +
                        (mapped ? std::to_string(*mapped) : "<none>"));
      }
      // A guide summarizes its members: every member path is a guide path.
      ++report->checks_run;
      if (!guides[g].Contains(store_->DocumentPathSet(doc))) {
        report->Add("dataguide.member_paths",
                    "guide " + std::to_string(g) + " does not cover the "
                    "path set of member document " + std::to_string(doc));
      }
    }
  }

  for (store::DocId d = 0; d < store_->DocumentCount(); ++d) {
    ++report->checks_run;
    auto it = member_of.find(d);
    if (it == member_of.end() || it->second != 1) {
      report->Add("dataguide.member_coverage",
                  "document " + std::to_string(d) + " is a member of " +
                      std::to_string(it == member_of.end() ? 0 : it->second) +
                      " guides (want exactly 1)");
    }
  }
}

void SnapshotAuditor::AuditColumns(AuditReport* report) const {
  if (columns_ == nullptr) return;

  const size_t doc_count = store_->DocumentCount();
  ++report->checks_run;
  if (columns_->doc_count() != doc_count) {
    report->Add("column.coverage",
                "column store covers " + std::to_string(columns_->doc_count()) +
                    " documents, store holds " + std::to_string(doc_count));
    return;  // Row-range indexing below would read out of bounds.
  }

  // column.values / column.coverage: every document's column rows must match
  // an independent tree-walk recompute node for node — same Dewey IDs, same
  // decoded content, exactly-once coverage, presence bit agreement.
  for (store::DocId d = 0; d < doc_count; ++d) {
    std::unordered_map<const column::Column*, std::vector<const xml::Node*>>
        hits;
    std::string path;
    if (const xml::Node* root = store_->document(d).root(); root != nullptr) {
      WalkForColumns(*columns_, root, d, &path, &hits, report);
    }
    for (const column::Column& col : columns_->columns()) {
      auto it = hits.find(&col);
      const std::vector<const xml::Node*>* nodes =
          it == hits.end() ? nullptr : &it->second;
      const size_t expected = nodes == nullptr ? 0 : nodes->size();
      const uint32_t begin = col.DocRowBegin(d);
      const uint32_t end = col.DocRowEnd(d);
      ++report->checks_run;
      if (end - begin != expected) {
        report->Add("column.coverage",
                    "column " + col.path() + " holds " +
                        std::to_string(end - begin) + " rows for document " +
                        std::to_string(d) + ", tree walk finds " +
                        std::to_string(expected));
        continue;
      }
      ++report->checks_run;
      if (col.DocPresent(d) != (expected > 0)) {
        report->Add("column.coverage",
                    "column " + col.path() + " presence bit disagrees with " +
                        std::to_string(expected) + " occurrences in document " +
                        std::to_string(d));
      }
      for (size_t i = 0; i < expected; ++i) {
        const xml::Node* node = (*nodes)[i];
        const uint32_t row = begin + static_cast<uint32_t>(i);
        const std::vector<uint32_t>& want = node->dewey().components();
        ++report->checks_run;
        if (want.size() != col.depth() ||
            !std::equal(want.begin(), want.end(), col.RowDewey(row))) {
          report->Add("column.coverage",
                      "column " + col.path() + " row " + std::to_string(row) +
                          " does not cover node " + node->dewey().ToString() +
                          " of document " + std::to_string(d));
          continue;
        }
        ++report->checks_run;
        if (col.RowValue(row) != node->ContentString()) {
          report->Add("column.values",
                      "column " + col.path() + " row " + std::to_string(row) +
                          " decodes '" + std::string(col.RowValue(row)) +
                          "', node " + node->dewey().ToString() +
                          " of document " + std::to_string(d) + " holds '" +
                          node->ContentString() + "'");
        }
      }
    }
  }

  // Per-column structure: declared support vs bitmap popcount, and a sorted,
  // duplicate-free dictionary (what makes code comparisons value comparisons).
  for (const column::Column& col : columns_->columns()) {
    uint64_t present_docs = 0;
    for (size_t d = 0; d < doc_count; ++d) {
      if (col.DocPresent(static_cast<store::DocId>(d))) ++present_docs;
    }
    ++report->checks_run;
    if (present_docs != col.docs_present()) {
      report->Add("column.coverage",
                  "column " + col.path() + " declares " +
                      std::to_string(col.docs_present()) +
                      " supporting documents, bitmap holds " +
                      std::to_string(present_docs));
    }
    for (uint32_t c = 1; c < col.dict_size(); ++c) {
      ++report->checks_run;
      if (col.DictValue(c - 1) >= col.DictValue(c)) {
        report->Add("column.values",
                    "column " + col.path() +
                        " dictionary is not strictly increasing at code " +
                        std::to_string(c));
        break;
      }
    }
  }
}

void SnapshotAuditor::AuditImage(const persist::MappedImage& image,
                                 uint64_t expected_epoch,
                                 AuditReport* report) const {
  using persist::SectionId;

  ++report->checks_run;
  if (image.epoch() != expected_epoch) {
    report->Add("image.epoch",
                "image carries epoch " + std::to_string(image.epoch()) +
                    ", snapshot is epoch " + std::to_string(expected_epoch));
  }

  std::unordered_set<uint32_t> seen_ids;
  for (const persist::SectionEntry& entry : image.sections()) {
    const char* name = persist::SectionName(static_cast<SectionId>(entry.id));
    ++report->checks_run;
    if (entry.id < static_cast<uint32_t>(SectionId::kOptions) ||
        entry.id > static_cast<uint32_t>(SectionId::kColumns)) {
      report->Add("image.section_id",
                  "unknown section id " + std::to_string(entry.id));
    }
    ++report->checks_run;
    if (!seen_ids.insert(entry.id).second) {
      report->Add("image.section_duplicate",
                  std::string("section '") + name + "' appears twice");
    }
    ++report->checks_run;
    if (entry.offset % persist::kSectionAlignment != 0) {
      report->Add("image.section_alignment",
                  std::string("section '") + name + "' starts at offset " +
                      std::to_string(entry.offset));
    }
    ++report->checks_run;
    if (entry.offset > image.file_size() ||
        entry.size > image.file_size() - entry.offset) {
      report->Add("image.section_bounds",
                  std::string("section '") + name + "' runs past the file");
    }
  }

  // Leading counts of each section must agree with the decoded structures.
  auto check_count = [&](SectionId id, const char* invariant, uint64_t actual,
                         uint64_t declared, bool decode_ok) {
    ++report->checks_run;
    if (!decode_ok) {
      report->Add(invariant, std::string("section '") +
                                 persist::SectionName(id) +
                                 "' header does not decode");
      return;
    }
    if (declared != actual) {
      report->Add(invariant,
                  std::string("section '") + persist::SectionName(id) +
                      "' declares " + std::to_string(declared) +
                      " entries, decoded structure holds " +
                      std::to_string(actual));
    }
  };

  if (auto cursor = persist::OpenSection(image, SectionId::kStorePaths);
      cursor.ok()) {
    uint64_t declared = cursor->GetU64();
    check_count(SectionId::kStorePaths, "image.store_paths_count",
                store_->paths().size(), declared, !cursor->failed());
  }
  if (auto cursor = persist::OpenSection(image, SectionId::kStoreDocs);
      cursor.ok()) {
    uint64_t declared_nodes = cursor->GetU64();
    uint64_t declared_docs = cursor->GetU64();
    check_count(SectionId::kStoreDocs, "image.store_total_nodes",
                store_->TotalNodeCount(), declared_nodes, !cursor->failed());
    check_count(SectionId::kStoreDocs, "image.store_doc_count",
                store_->DocumentCount(), declared_docs, !cursor->failed());
  }
  if (auto cursor = persist::OpenSection(image, SectionId::kGraphEdges);
      cursor.ok()) {
    uint32_t label_count = cursor->GetU32();
    for (uint32_t i = 0; i < label_count && !cursor->failed(); ++i) {
      cursor->GetString();
    }
    uint64_t declared_edges = cursor->GetU64();
    check_count(SectionId::kGraphEdges, "image.graph_edge_count",
                graph_->EdgeCount(), declared_edges, !cursor->failed());
  }
  if (auto cursor = persist::OpenSection(image, SectionId::kGraphCsr);
      cursor.ok() && graph_->csr() != nullptr) {
    uint32_t declared_vertices = cursor->GetU32();
    uint32_t declared_edges = cursor->GetU32();
    check_count(SectionId::kGraphCsr, "image.csr_vertex_count",
                graph_->csr()->num_vertices(), declared_vertices,
                !cursor->failed());
    check_count(SectionId::kGraphCsr, "image.csr_edge_count",
                graph_->EdgeCount(), declared_edges, !cursor->failed());
  }
  if (auto cursor = persist::OpenSection(image, SectionId::kDataguides);
      cursor.ok()) {
    uint64_t declared = cursor->GetU64();
    check_count(SectionId::kDataguides, "image.dataguide_count",
                guides_->size(), declared, !cursor->failed());
  }
  if (auto cursor = persist::OpenSection(image, SectionId::kColumns);
      cursor.ok() && columns_ != nullptr) {
    uint64_t declared_docs = cursor->GetU64();
    uint64_t declared_columns = cursor->GetU64();
    check_count(SectionId::kColumns, "image.column_doc_count",
                columns_->doc_count(), declared_docs, !cursor->failed());
    check_count(SectionId::kColumns, "image.column_count", columns_->size(),
                declared_columns, !cursor->failed());
  }
}

}  // namespace seda::audit
