#include "reference/dataguide_scan.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>

namespace seda::reference {

size_t CommonPathCount(const dataguide::Dataguide& guide,
                       const std::vector<store::PathId>& paths) {
  const std::vector<store::PathId>& own = guide.paths();
  size_t count = 0;
  size_t i = 0, j = 0;
  while (i < own.size() && j < paths.size()) {
    if (own[i] < paths[j]) {
      ++i;
    } else if (paths[j] < own[i]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

double Overlap(const dataguide::Dataguide& guide,
               const std::vector<store::PathId>& paths) {
  if (guide.paths().empty() || paths.empty()) return 0;
  double common = static_cast<double>(CommonPathCount(guide, paths));
  return std::min(common / static_cast<double>(guide.PathCount()),
                  common / static_cast<double>(paths.size()));
}

void ScanDocuments(const store::DocumentStore& store, double overlap_threshold,
                   ScannedGuides* scanned) {
  std::vector<dataguide::Dataguide>& guides_ = scanned->guides;
  std::unordered_map<store::DocId, size_t>& guide_of_doc_ =
      scanned->guide_of_doc;
  const store::DocId first_doc =
      static_cast<store::DocId>(scanned->stats.documents);
  dataguide::BuildStats stats = scanned->stats;
  stats.documents = store.DocumentCount();

  for (store::DocId doc = first_doc; doc < store.DocumentCount(); ++doc) {
    const std::vector<store::PathId>& doc_paths = store.DocumentPathSet(doc);
    size_t guide_count = guides_.size();

    // Pass 1: subset / equality short-circuit (paper: "we do not need to do
    // any further processing"). First matching guide wins.
    bool placed = false;
    for (size_t g = 0; g < guide_count; ++g) {
      bool is_contained = guides_[g].Contains(doc_paths);
      if (is_contained) {
        guides_[g].AddMember(doc);
        guide_of_doc_[doc] = g;
        ++stats.absorbed;
        placed = true;
        break;
      }
    }
    if (placed) continue;

    // Pass 2: best-overlap merge (strictly-greater, so ties keep the lowest
    // guide index).
    double best_overlap = 0;
    size_t best_guide = SIZE_MAX;
    for (size_t g = 0; g < guide_count; ++g) {
      double overlap = Overlap(guides_[g], doc_paths);
      if (overlap > best_overlap) {
        best_overlap = overlap;
        best_guide = g;
      }
    }
    if (best_guide != SIZE_MAX && best_overlap >= overlap_threshold) {
      guides_[best_guide].Merge(doc_paths, doc);
      guide_of_doc_[doc] = best_guide;
      ++stats.merges;
    } else {
      guides_.emplace_back(doc_paths, doc);
      guide_of_doc_[doc] = guides_.size() - 1;
    }
  }

  stats.dataguides = guides_.size();
  stats.reduction_factor =
      stats.dataguides == 0
          ? 0
          : static_cast<double>(stats.documents) / static_cast<double>(stats.dataguides);
  scanned->stats = stats;
}

void ScanLinks(const graph::DataGraph& graph, ScannedGuides* scanned) {
  std::set<std::tuple<size_t, std::string, size_t, std::string, std::string>> seen;
  graph.ForEachEdgeBySource([&](const xml::Node* from_node,
                                const xml::Node* to_node,
                                const graph::Edge& edge) {
    size_t guide_a = scanned->guide_of_doc.at(edge.from.doc);
    size_t guide_b = scanned->guide_of_doc.at(edge.to.doc);
    std::string path_a = from_node->ContextPath();
    std::string path_b = to_node->ContextPath();
    auto key = std::make_tuple(guide_a, path_a, guide_b, path_b, edge.label);
    if (!seen.insert(key).second) return;
    scanned->links.push_back({guide_a, guide_b, path_a, path_b, edge.label});
  });
}

Status SaveScanned(const ScannedGuides& scanned, persist::ImageWriter* writer) {
  writer->BeginSection(persist::SectionId::kDataguides);
  writer->PutU64(scanned.guides.size());
  for (const dataguide::Dataguide& guide : scanned.guides) {
    writer->PutU32Array(guide.paths());
    writer->PutU32Array(guide.members());
  }
  writer->PutU64(scanned.stats.documents);
  writer->PutU64(scanned.stats.dataguides);
  writer->PutU64(scanned.stats.merges);
  writer->PutU64(scanned.stats.absorbed);
  writer->PutDouble(scanned.stats.reduction_factor);
  writer->PutU64(scanned.links.size());
  for (const ScannedGuides::Link& link : scanned.links) {
    writer->PutU64(link.guide_a);
    writer->PutU64(link.guide_b);
    writer->PutString(link.path_a);
    writer->PutString(link.path_b);
    writer->PutString(link.label);
  }
  return writer->EndSection();
}

}  // namespace seda::reference
