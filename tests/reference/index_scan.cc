#include "reference/index_scan.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "text/analyzer.h"

namespace seda::reference {

ScannedIndex ScanIndex(const store::DocumentStore& store) {
  ScannedIndex scanned;
  scanned.nodes_by_path.resize(store.paths().size());
  for (store::DocId doc = 0; doc < store.DocumentCount(); ++doc) {
    std::set<std::string> doc_terms;
    store.document(doc).ForEachNode([&](xml::Node* node) {
      if (node->kind() == xml::NodeKind::kText) return;
      store::PathId path = store.paths().Find(node->ContextPath());
      if (path == store::kInvalidPathId) return;
      scanned.nodes_by_path[path].push_back(store::NodeId{doc, node->dewey()});
      ++scanned.indexed_nodes;

      // Node postings: positions per distinct token of the whole content.
      std::vector<std::string> tokens = text::Tokenize(node->ContentString());
      std::unordered_map<std::string, std::vector<uint32_t>> positions;
      for (uint32_t pos = 0; pos < tokens.size(); ++pos) {
        positions[tokens[pos]].push_back(pos);
      }
      for (auto& [term, pos_list] : positions) {
        ScannedIndex::Term& entry = scanned.terms[term];
        entry.max_tf =
            std::max(entry.max_tf, static_cast<uint32_t>(pos_list.size()));
        entry.postings.push_back(
            {doc, path, node->dewey().components(), std::move(pos_list)});
        doc_terms.insert(term);
      }

      // Path postings: the text the node directly contains, and its tag.
      std::string direct_text;
      if (node->kind() == xml::NodeKind::kAttribute) {
        direct_text = node->text();
      } else {
        for (const auto& child : node->children()) {
          if (child->kind() == xml::NodeKind::kText) {
            direct_text += child->text() + " ";
          }
        }
      }
      for (const std::string& term : text::Tokenize(direct_text)) {
        scanned.path_counts[term][path] += 1;
      }
      std::string tag = text::NormalizeToken(node->name());
      if (!tag.empty()) scanned.path_counts[tag][path] += 1;
    });
    for (const std::string& term : doc_terms) scanned.terms[term].doc_freq += 1;
  }
  return scanned;
}

namespace {

template <typename T>
std::vector<uint32_t> Words(const T& span) {
  return std::vector<uint32_t>(span.begin(), span.end());
}

}  // namespace

std::string DiffIndex(const ScannedIndex& scanned,
                      const text::InvertedIndex& index) {
  if (index.TermCount() != scanned.terms.size()) {
    return "term count " + std::to_string(index.TermCount()) + " != " +
           std::to_string(scanned.terms.size());
  }
  std::set<std::string> all;
  for (const auto& [term, entry] : scanned.terms) all.insert(term);
  for (const auto& [term, counts] : scanned.path_counts) all.insert(term);
  if (index.AllTerms() != std::vector<std::string>(all.begin(), all.end())) {
    return "AllTerms differs";
  }
  for (const auto& [term, entry] : scanned.terms) {
    const std::string where = "term '" + term + "': ";
    if (index.DocumentFrequency(term) != entry.doc_freq) {
      return where + "doc_freq " + std::to_string(index.DocumentFrequency(term)) +
             " != " + std::to_string(entry.doc_freq);
    }
    if (index.MaxTermFrequency(term) != entry.max_tf) {
      return where + "max_tf " + std::to_string(index.MaxTermFrequency(term)) +
             " != " + std::to_string(entry.max_tf);
    }
    text::PostingList list = index.Postings(term);
    if (list.size() != entry.postings.size()) {
      return where + "posting count " + std::to_string(list.size()) + " != " +
             std::to_string(entry.postings.size());
    }
    for (size_t i = 0; i < list.size(); ++i) {
      const ScannedIndex::Posting& want = entry.postings[i];
      if (list.doc(i) != want.doc || list.path(i) != want.path ||
          Words(list.dewey(i)) != want.dewey ||
          Words(list.positions(i)) != want.positions) {
        return where + "posting " + std::to_string(i) + " differs";
      }
    }
  }
  for (const std::string& term : all) {
    auto it = scanned.path_counts.find(term);
    std::vector<store::PathId> want;
    if (it != scanned.path_counts.end()) {
      for (const auto& [path, count] : it->second) {
        want.push_back(path);
        if (index.TermPathCount(term, path) != count) {
          return "term '" + term + "': path " + std::to_string(path) +
                 " count " + std::to_string(index.TermPathCount(term, path)) +
                 " != " + std::to_string(count);
        }
      }
    }
    if (index.TermPaths(term) != want) {
      return "term '" + term + "': TermPaths differs";
    }
  }
  for (store::PathId path = 0; path < scanned.nodes_by_path.size(); ++path) {
    if (index.NodesWithPath(path) != scanned.nodes_by_path[path]) {
      return "NodesWithPath(" + std::to_string(path) + ") differs";
    }
  }
  if (index.IndexedNodeCount() != scanned.indexed_nodes) {
    return "IndexedNodeCount " + std::to_string(index.IndexedNodeCount()) +
           " != " + std::to_string(scanned.indexed_nodes);
  }
  return "";
}

}  // namespace seda::reference
