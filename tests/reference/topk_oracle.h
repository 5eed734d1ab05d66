#ifndef SEDA_TESTS_REFERENCE_TOPK_ORACLE_H_
#define SEDA_TESTS_REFERENCE_TOPK_ORACLE_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "query/query.h"
#include "reference/bfs.h"
#include "text/inverted_index.h"
#include "topk/topk.h"

namespace seda::reference {

/// The paper's §4 answer set by brute force: the oracle topk::TopKSearcher
/// is checked against. A tuple binds one candidate node per query term, all
/// nodes distinct, connected through the data graph within
/// `max_connect_depth`; it scores content × 1/(1 + connection size), where
/// content is the sum of the per-term content scores and the connection
/// size comes from ReferenceGraph::ConnectionSize (no visit budget). Shares
/// no code with the engine's candidate grouping, borrowing or TA scan. Slow
/// by design; tests and benches only.
class TopKOracle {
 public:
  /// `index`, its store and `graph` must outlive the oracle.
  TopKOracle(const text::InvertedIndex& index, const ReferenceGraph& graph)
      : index_(&index), graph_(&graph) {}

  /// Each term's candidates in document order: EvaluateNodes over the term's
  /// search expression, or every element/attribute node at
  /// exec::kStructureOnlyScore for a structure-only term, kept where the
  /// term's context admits the node (Definition 3: its path or its tag).
  std::vector<std::vector<text::NodeMatch>> Candidates(
      const query::Query& query) const;

  /// Scores one tuple (one match per term, in term order); nullopt when two
  /// terms bind the same node or the nodes do not connect within
  /// `max_connect_depth`.
  std::optional<topk::ScoredTuple> Score(
      const std::vector<text::NodeMatch>& nodes, size_t max_connect_depth) const;

  /// Every answer, best first under RankLess: the full cross product of the
  /// candidates, restricted to single-document tuples when
  /// `cross_document` is false.
  std::vector<topk::ScoredTuple> Rank(const query::Query& query,
                                      bool cross_document,
                                      size_t max_connect_depth) const;

  /// The ranking order: score descending, then document order of the first
  /// differing node.
  static bool RankLess(const topk::ScoredTuple& a, const topk::ScoredTuple& b);

 private:
  const text::InvertedIndex* index_;
  const ReferenceGraph* graph_;
};

}  // namespace seda::reference

#endif  // SEDA_TESTS_REFERENCE_TOPK_ORACLE_H_
