#ifndef SEDA_TWIG_TWIG_H_
#define SEDA_TWIG_TWIG_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "dataguide/dataguide.h"
#include "graph/data_graph.h"
#include "obs/trace.h"
#include "text/inverted_index.h"

namespace seda::twig {

/// A query term bound to exactly one context path (the state after the user
/// has refined contexts, paper §7: complete results are computed only for
/// the chosen contexts/connections).
struct TermBinding {
  std::string path;                      ///< chosen root-to-leaf context
  const text::TextExpr* search = nullptr;  ///< content predicate; null = any
};

/// A user-chosen connection between two terms, in executable form. Tree
/// connections join the two bound nodes at a specific ancestor instance
/// (their LCA must sit exactly at `join_path`); link connections join across
/// a non-tree edge between ancestors of the bound nodes.
struct ChosenConnection {
  size_t term_a = 0;
  size_t term_b = 0;
  bool is_link = false;
  std::string join_path;    ///< tree: the LCA context (e.g. ".../item")
  std::string source_path;  ///< link: edge source context (ancestor of term_a's path)
  std::string target_path;  ///< link: edge target context (ancestor of term_b's path)
  std::string link_label;   ///< link: relationship label (empty = any)

  /// Converts a dataguide connection into executable form. Supports tree
  /// connections and single-link connections (the shapes SEDA's summaries
  /// produce); multi-link chains return an error.
  static Result<ChosenConnection> FromDataguideConnection(
      size_t term_a, size_t term_b, const dataguide::Connection& connection);
};

/// One row of the complete query result R(q) (paper Fig. 3): per query term a
/// node reference (Dewey) plus the node's full root-to-leaf path.
struct ResultTuple {
  std::vector<store::NodeId> nodes;
  std::vector<store::PathId> paths;
};

/// The complete (non-top-k) result set.
struct CompleteResult {
  std::vector<ResultTuple> tuples;
  /// Number of twigs the connection graph was partitioned into.
  size_t twig_count = 0;
  /// Number of cross-twig join edges executed.
  size_t cross_twig_joins = 0;
  /// True when the generator hit its deadline and stopped early. The tuples
  /// present are well-formed and correct, but the set may be incomplete.
  bool deadline_exceeded = false;
};

/// Execution limits for the complete-result generator.
struct ExecuteOptions {
  /// Wall-clock budget in milliseconds; 0 means unbounded. The generator
  /// checks the clock cooperatively inside the matching, enumeration and
  /// join loops and returns a well-formed partial result on expiry.
  uint64_t deadline_ms = 0;
  /// Per-request trace span (obs/trace.h): when non-null, Execute opens
  /// child spans (term_streams / twig_match / cross_twig_join) under it.
  /// Single-threaded, per-request, never persisted — see
  /// topk::TopKOptions::trace for the contract.
  obs::TraceSpan* trace = nullptr;
};

/// The complete-result generator (paper §7): partitions the connection graph
/// into twigs (query pattern trees over parent/child edges within a
/// document), runs a holistic structural join over Dewey-ordered streams from
/// the full-text index for each twig, and combines twigs with hash joins over
/// the cross-twig (non-tree) edges. Its tuple set is checked against a
/// nested-loop join that tests every predicate literally
/// (tests/reference/complete_oracle.h).
class CompleteResultGenerator {
 public:
  CompleteResultGenerator(const text::InvertedIndex* index,
                          const graph::DataGraph* graph)
      : index_(index), graph_(graph) {}

  /// Executes the twig plan. Pairs of terms without a chosen connection
  /// default to a tree join at their deepest common path prefix when they
  /// live in one twig; terms in different twigs must be bridged by link
  /// connections (directly or transitively), otherwise an error is returned.
  /// A tree connection whose join path the other joins contradict (they
  /// force a deeper common ancestor) is an InvalidArgument too.
  /// A non-zero `options.deadline_ms` bounds the run: on expiry the partial
  /// result comes back with `deadline_exceeded` set instead of an error.
  Result<CompleteResult> Execute(const std::vector<TermBinding>& terms,
                                 const std::vector<ChosenConnection>& connections,
                                 const ExecuteOptions& options = {}) const;

 private:
  std::vector<std::vector<text::NodeMatch>> TermStreams(
      const std::vector<TermBinding>& terms) const;

  const text::InvertedIndex* index_;
  const graph::DataGraph* graph_;
};

}  // namespace seda::twig

#endif  // SEDA_TWIG_TWIG_H_
