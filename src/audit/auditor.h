#ifndef SEDA_AUDIT_AUDITOR_H_
#define SEDA_AUDIT_AUDITOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "column/column_store.h"
#include "dataguide/dataguide.h"
#include "graph/data_graph.h"
#include "persist/reader.h"
#include "store/document_store.h"
#include "text/inverted_index.h"

namespace seda::audit {

/// One violated invariant. `invariant` is a stable dotted name
/// ("store.child_numbering", "graph.adjacency_symmetry", ...) tests match on;
/// `detail` pins the violation to a concrete node/term/section.
struct Violation {
  std::string invariant;
  std::string detail;
};

/// Result of an audit walk. Violations are capped per invariant name (the
/// first few concrete witnesses are enough to debug; a corrupted posting list
/// would otherwise report once per posting) — `suppressed` counts the rest,
/// so ok() stays exact either way.
struct AuditReport {
  std::vector<Violation> violations;
  uint64_t checks_run = 0;
  uint64_t suppressed = 0;

  bool ok() const { return violations.empty() && suppressed == 0; }

  /// Records a violation under the per-invariant cap.
  void Add(const std::string& invariant, const std::string& detail);

  /// True iff some recorded violation names this invariant.
  bool Has(const std::string& invariant) const;

  /// Merges `other` into this report (cap re-applied per invariant).
  void Merge(const AuditReport& other);

  /// Human-readable rendering for the seda_audit CLI: one line per
  /// violation plus a summary line.
  std::string ToString() const;
};

/// Walks one epoch's component structures and verifies the cross-layer
/// invariants the engine's hot paths assume but never re-check:
///
///   store.*      Dewey preorder numbering, parent pointers, node lookup,
///                path-dictionary statistics, per-document path sets.
///   index.*      posting-list order/bounds/path agreement, document
///                frequencies, max-tf, path postings, path->nodes table.
///   graph.*      endpoint resolution; CSR edge-id rows (bounds, out/in
///                direction, each logged edge once per direction); CSR
///                arrays (graph.csr_offsets: numbering + row-for-row
///                agreement with rows derived from the store trees and the
///                edge log, graph.csr_symmetry: sorted-row symmetry +
///                sketch bitmaps vs exact 2-hop recomputation).
///   dataguide.*  sorted guide paths, exactly-once member coverage, guide
///                path sets covering their members' documents.
///   column.*     columnar projections vs a tree-walk recompute
///                (column.values: every decoded row value equals its node's
///                content and every column is ordered/leaf-pure;
///                column.coverage: the row index covers each qualifying
///                document's occurrences exactly once, bitmap included).
///   image.*      persisted-image section table sanity and agreement between
///                section headers and the decoded structures.
///
/// The auditor only reads through public APIs, so a passing audit means the
/// structures agree as seen by the engine itself. It is debug/test tooling:
/// O(collection) walks, not meant for the serving path.
class SnapshotAuditor {
 public:
  SnapshotAuditor(const store::DocumentStore* store,
                  const text::InvertedIndex* index,
                  const graph::DataGraph* graph,
                  const dataguide::DataguideCollection* guides,
                  const column::ColumnStore* columns = nullptr)
      : store_(store),
        index_(index),
        graph_(graph),
        guides_(guides),
        columns_(columns) {}

  /// Runs every component audit below (not AuditImage, which needs the
  /// image the epoch was loaded from).
  AuditReport AuditAll() const;

  void AuditStore(AuditReport* report) const;
  void AuditIndex(AuditReport* report) const;
  void AuditGraph(AuditReport* report) const;
  void AuditDataguides(AuditReport* report) const;
  /// No-op when the auditor was built without a column store.
  void AuditColumns(AuditReport* report) const;

  /// Verifies the persisted image agrees with the structures decoded from
  /// it: known/unique section ids, 64-byte alignment, in-file bounds, and
  /// the leading counts of each section matching the in-memory sizes.
  /// `expected_epoch` is the epoch of the snapshot loaded from this image.
  void AuditImage(const persist::MappedImage& image, uint64_t expected_epoch,
                  AuditReport* report) const;

 private:
  const store::DocumentStore* store_;
  const text::InvertedIndex* index_;
  const graph::DataGraph* graph_;
  const dataguide::DataguideCollection* guides_;
  const column::ColumnStore* columns_;
};

}  // namespace seda::audit

#endif  // SEDA_AUDIT_AUDITOR_H_
