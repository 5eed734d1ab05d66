#ifndef SEDA_EXEC_CURSOR_H_
#define SEDA_EXEC_CURSOR_H_

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "store/document_store.h"
#include "text/inverted_index.h"
#include "text/text_expr.h"

namespace seda::exec {

/// Score carried by structure-only candidates (a term whose search query is
/// "*"): tiny but non-zero so tuples binding them still rank by the content
/// terms. Shared between the cursor layer and the top-k engine.
inline constexpr double kStructureOnlyScore = 0.01;

/// Execution counters shared by every cursor of one query. The top-k engine
/// copies them into SearchStats, and the ablation benches report them.
struct CursorStats {
  /// Posting-list entries (or universe nodes) the cursors stepped over one by
  /// one. A materializing evaluator's cost is the sum of all intermediate
  /// match-vector sizes; this counter is the streaming equivalent.
  uint64_t postings_advanced = 0;
  /// Documents jumped over by Seek() without scanning their postings
  /// (measured as DocId distance at the seek target).
  uint64_t docs_skipped = 0;
};

/// A streaming match iterator over a full-text expression, composed directly
/// over posting lists (paper §4: sorted candidate streams consumed lazily).
///
/// Contract: matches are produced in strictly increasing NodeId (document)
/// order, each node at most once, with exactly the score and path that the
/// materializing reference evaluator assigns (the tests' oracle, checked in
/// exec_test). Cursors never materialize
/// sub-expression results; NOT and "*" stream the node universe instead of
/// allocating it.
class MatchCursor {
 public:
  virtual ~MatchCursor() = default;

  /// True once the stream is exhausted.
  virtual bool AtEnd() const = 0;

  /// The match the cursor is positioned on. Requires !AtEnd().
  virtual const text::NodeMatch& Current() const = 0;

  /// Advances to the next match in document order.
  virtual void Next() = 0;

  /// Advances to the first match with node >= target; no-op when already
  /// positioned at or past it.
  virtual void Seek(const store::NodeId& target) = 0;

  /// Upper bound on the score of every remaining match. Constant-score
  /// cursors (NOT-rooted, "*") return their constant, which lets bounded
  /// selection stop draining once the bound cannot beat the kept minimum.
  virtual double MaxScore() const = 0;

  /// Seeks to the first match inside a document with id >= doc.
  void SeekToDoc(store::DocId doc) { Seek(store::NodeId{doc, xml::DeweyId()}); }
};

/// Builds the cursor tree for `expr` over `index`. When `context_filter` is
/// non-null, the path-set restriction is pushed below unions and
/// intersections onto the leaf cursors (filtering commutes with the boolean
/// operators because a node determines its path). `filter` and `stats` must
/// outlive the cursor.
std::unique_ptr<MatchCursor> BuildCursor(
    const text::InvertedIndex& index, const text::TextExpr& expr,
    const std::unordered_set<store::PathId>* context_filter, CursorStats* stats);

/// Drains a cursor into a vector of matches in document order.
std::vector<text::NodeMatch> MaterializeCursor(MatchCursor* cursor);

/// Convenience: BuildCursor + MaterializeCursor — every match of the
/// expression (optionally context-filtered), without materializing any
/// sub-expression.
std::vector<text::NodeMatch> EvaluateWithCursor(
    const text::InvertedIndex& index, const text::TextExpr& expr,
    const std::unordered_set<store::PathId>* context_filter = nullptr,
    CursorStats* stats = nullptr);

}  // namespace seda::exec

#endif  // SEDA_EXEC_CURSOR_H_
