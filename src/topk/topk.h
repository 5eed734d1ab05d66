#ifndef SEDA_TOPK_TOPK_H_
#define SEDA_TOPK_TOPK_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/candidates.h"
#include "graph/data_graph.h"
#include "obs/trace.h"
#include "query/query.h"
#include "text/inverted_index.h"
#include "topk/engine_counters.h"

namespace seda {
class ThreadPool;
}

namespace seda::topk {

/// One ranked answer: a tuple of nodes, one per query term, with the combined
/// score (content × structural compactness) described in paper §4.
struct ScoredTuple {
  std::vector<text::NodeMatch> nodes;     ///< one per query term, in term order
  double content_score = 0.0;             ///< sum of per-term content scores
  size_t connection_size = 0;             ///< edges of the minimal connecting graph
  double score = 0.0;                     ///< content × 1/(1 + connection_size)

  std::string ToString(const store::DocumentStore& store) const;
};

/// What one search did: the engine counters (topk/engine_counters.h), which
/// api::SedaService returns in every response's stats block and accumulates
/// into its seda_engine_*_total metrics, plus the request-level outcome.
/// Graph-kernel counters are summed over connection scoring in
/// tuple-enumeration order, so any worker count reports identical stats.
struct SearchStats {
  SEDA_ENGINE_COUNTERS(SEDA_ENGINE_COUNTER_FIELD)
  /// The per-request deadline (TopKOptions::deadline_ms) fired and the scan
  /// stopped with unexamined documents remaining: the returned top-k is the
  /// best of what was scored in time, not the full TA fixpoint. Surfaced in
  /// the api::SedaService stats block so overruns show up in the response
  /// instead of as unbounded latency.
  bool deadline_exceeded = false;
  /// Commit epoch of the snapshot that served the query (1 = the Finalize()
  /// epoch; 0 only when the searcher runs outside a core::Snapshot). Lets a
  /// client correlate results with the data version while commits race.
  uint64_t epoch = 0;
};

/// Options controlling the search.
struct TopKOptions {
  size_t k = 10;
  /// Per-term cap on candidate nodes taken from the index (highest content
  /// scores first). 0 = unlimited.
  size_t max_candidates_per_term = 4096;
  /// Per-document cap on candidates per term during tuple enumeration,
  /// bounding the cross-product.
  size_t max_per_doc_per_term = 16;
  /// BFS bound for connecting tuples through the data graph.
  size_t max_connect_depth = 10;
  /// Follow non-tree edges to join candidates from linked documents.
  bool allow_cross_document = true;
  /// Minimum tuples in one document's scoring batch before the batch fans
  /// out across the searcher's thread pool; smaller batches stay inline to
  /// avoid scheduling overhead. Results are identical either way.
  size_t parallel_batch_min = 4;
  /// Hub-degree cap for cross-document borrowing: a link edge is not
  /// followed when either endpoint has non-tree degree above this, so a
  /// dense value-edge hub (e.g. every country importing from "United
  /// States") no longer welds its whole neighborhood into one giant
  /// per-document cross product. Skips are counted in
  /// SearchStats::hub_links_skipped. 0 = unlimited.
  size_t max_hub_degree = 64;
  /// Per-BFS work budget for cross-document connection scoring: each
  /// ShortestPath expansion inside ConnectionSize may visit at most this
  /// many nodes before the pair counts as "not connected". In a value-edge
  /// mesh the whole collection sits within a few hops of everything, so a
  /// depth bound alone still floods the store once per scored tuple — this
  /// is what turned the ROADMAP hub corpus into seconds-per-query. 0 =
  /// unlimited.
  size_t max_connect_visits = 512;
  /// Hard per-query budget on tuples scored (ConnectionSize calls) across
  /// the whole scan — the backstop when even capped documents are dense.
  /// Documents are consumed in TA upper-bound order, so trimming drops the
  /// least-promising enumerations first; trimmed counts land in
  /// SearchStats::tuples_trimmed. 0 = unlimited.
  size_t max_tuples_per_query = 10000;
  /// Per-request trace span (obs/trace.h): when non-null, the scan opens
  /// child spans (candidates / group_docs / ta_scan) under it and attaches
  /// its counters at close. Spans are touched only on the coordinating
  /// thread — the RunParallel scoring fan-out reports through counters. Like
  /// deadline_ms this is a per-request field, deliberately NOT persisted in
  /// snapshot images.
  obs::TraceSpan* trace = nullptr;
  /// Per-request wall-clock budget for the scan, in milliseconds (0 = none).
  /// Checked cooperatively once per candidate document: when it fires, the
  /// scan stops, SearchStats::deadline_exceeded is set, and the tuples scored
  /// so far are returned — a well-formed partial answer instead of unbounded
  /// latency. Because documents are consumed in TA upper-bound order, what
  /// survives is the most promising prefix. Unlike the structural budgets
  /// above this is a per-request field (see api::SedaService), not a corpus
  /// property, so it is deliberately NOT persisted in snapshot images.
  uint64_t deadline_ms = 0;
};

/// Top-k search unit (paper §4), rebuilt as a streaming engine: per-term
/// candidate streams come from cursor trees composed directly over posting
/// lists (src/exec/), the Threshold-Algorithm scan (Fagin et al. [8])
/// consumes candidate documents in upper-bound order, the running top-k is a
/// bounded heap, and each document's tuple enumeration + ConnectionSize
/// scoring fans out across an optional ThreadPool with results merged in
/// enumeration order — so any worker count returns byte-identical rankings.
/// The score of a tuple is its content score discounted by the compactness
/// of the minimal graph connecting its nodes; the TA threshold uses
/// compactness 1 as the monotone upper bound, so the scan stops as soon as
/// the k-th best tuple dominates every unexamined document's bound.
class TopKSearcher {
 public:
  /// `pool` (optional) parallelizes per-document tuple scoring. Concurrent
  /// Search calls may share the pool — ParallelFor state is per call — they
  /// just contend for its workers.
  TopKSearcher(const text::InvertedIndex* index, const graph::DataGraph* graph,
               ThreadPool* pool = nullptr)
      : index_(index), graph_(graph), pool_(pool) {}

  /// Runs the TA search. Results are sorted by descending score; ties break
  /// by document order of the first differing node. Each distinct node tuple
  /// appears at most once. With `k` above every tuple count the heap never
  /// fills, so the threshold never stops the scan and every candidate
  /// combination is scored; tests/reference/topk_oracle.h checks the result
  /// against the paper's definition.
  Result<std::vector<ScoredTuple>> Search(const query::Query& query,
                                          const TopKOptions& options,
                                          SearchStats* stats = nullptr) const;

  /// TA search over a pre-built candidate set (one cursor evaluation shared
  /// across the engine and the summary generators; see
  /// core::Snapshot::Search).
  Result<std::vector<ScoredTuple>> Search(const query::Query& query,
                                          const TopKOptions& options,
                                          const exec::CandidateSet& candidates,
                                          SearchStats* stats = nullptr) const;

 private:
  const text::InvertedIndex* index_;
  const graph::DataGraph* graph_;
  ThreadPool* pool_;
};

}  // namespace seda::topk

#endif  // SEDA_TOPK_TOPK_H_
