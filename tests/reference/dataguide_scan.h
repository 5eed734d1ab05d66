#ifndef SEDA_TESTS_REFERENCE_DATAGUIDE_SCAN_H_
#define SEDA_TESTS_REFERENCE_DATAGUIDE_SCAN_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "dataguide/dataguide.h"
#include "graph/data_graph.h"
#include "persist/writer.h"
#include "store/document_store.h"

namespace seda::reference {

/// A dataguide collection built the way the paper states the §6.1 rule: the
/// oracle dataguide::DataguideCollection's inverted-count build is checked
/// against. Each document is merged against every existing guide, twice
/// (Dataguide::Contains, then Overlap below), in O(n·m); links are
/// deduplicated by their path strings. Slow by design; tests only.
struct ScannedGuides {
  struct Link {
    size_t guide_a = 0, guide_b = 0;
    std::string path_a, path_b, label;
  };

  std::vector<dataguide::Dataguide> guides;
  std::unordered_map<store::DocId, size_t> guide_of_doc;
  dataguide::BuildStats stats;
  std::vector<Link> links;
};

/// |common paths| between `guide` and the sorted path set `paths`.
size_t CommonPathCount(const dataguide::Dataguide& guide,
                       const std::vector<store::PathId>& paths);

/// The paper's similarity metric:
///   overlap(dg1, dg2) = min(|common|/|paths(dg1)|, |common|/|paths(dg2)|)
double Overlap(const dataguide::Dataguide& guide,
               const std::vector<store::PathId>& paths);

/// Runs the scan over documents [guides->stats.documents, DocumentCount) of
/// `store` — a cold build from an empty ScannedGuides, an Extend otherwise.
void ScanDocuments(const store::DocumentStore& store, double overlap_threshold,
                   ScannedGuides* guides);

/// Appends the path-level links of `graph`'s non-tree edges (CSR built), in
/// source-preorder order, one per distinct (guide, path, guide, path, label).
void ScanLinks(const graph::DataGraph& graph, ScannedGuides* guides);

/// Writes `guides` as the kDataguides section DataguideCollection::SaveTo
/// writes.
Status SaveScanned(const ScannedGuides& guides, persist::ImageWriter* writer);

}  // namespace seda::reference

#endif  // SEDA_TESTS_REFERENCE_DATAGUIDE_SCAN_H_
