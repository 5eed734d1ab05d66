#ifndef SEDA_TESTS_REFERENCE_INDEX_SCAN_H_
#define SEDA_TESTS_REFERENCE_INDEX_SCAN_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "store/document_store.h"
#include "text/inverted_index.h"

namespace seda::reference {

/// The inverted index's term fields built the way Definition 3 states them,
/// node by node: each element or attribute node's content(n) is its
/// ContentString() run through text::Tokenize, its direct text and tag feed
/// the path index (Fig. 8). The oracle text::InvertedIndex's
/// token-range build is checked against. Slow by design; tests only.
struct ScannedIndex {
  struct Posting {
    store::DocId doc = 0;
    store::PathId path = store::kInvalidPathId;
    std::vector<uint32_t> dewey;
    std::vector<uint32_t> positions;
  };
  struct Term {
    std::vector<Posting> postings;  ///< document order
    uint64_t doc_freq = 0;
    uint32_t max_tf = 0;
  };

  std::map<std::string, Term> terms;
  /// term -> path -> occurrence count (the path index).
  std::map<std::string, std::map<store::PathId, uint64_t>> path_counts;
  std::vector<std::vector<store::NodeId>> nodes_by_path;
  uint64_t indexed_nodes = 0;
};

/// Scans every document of `store`.
ScannedIndex ScanIndex(const store::DocumentStore& store);

/// Empty when `index` holds exactly `scanned`'s fields for every term —
/// postings (doc, path, Dewey, positions), DocumentFrequency,
/// MaxTermFrequency, TermPaths/TermPathCount — and the same NodesWithPath
/// and IndexedNodeCount; otherwise a description of the first difference.
std::string DiffIndex(const ScannedIndex& scanned,
                      const text::InvertedIndex& index);

}  // namespace seda::reference

#endif  // SEDA_TESTS_REFERENCE_INDEX_SCAN_H_
