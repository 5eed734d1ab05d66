#ifndef SEDA_TOPK_ENGINE_COUNTERS_H_
#define SEDA_TOPK_ENGINE_COUNTERS_H_

#include <cstdint>

/// The engine's per-query execution counters, declared once. Each entry is
/// X(field, type, metric, help), in the order the api stats block encodes
/// them on the wire (a key order clients and byte-identity checks rely on).
/// The list generates the topk::SearchStats and api::StatsDto fields, their
/// JSON codec (api/wire.cc) and the cumulative `metric` families with `help`
/// text (api/service.cc).
///
/// `type` is Count (a uint64_t counter with a metric family) or Flag (the
/// early_terminated bool, which has no metric and sits where the wire order
/// puts it).
///
/// The column_* counters are filled by the cube endpoint only; searches
/// leave them 0.
#define SEDA_ENGINE_COUNTERS(X)                                               \
  X(candidates_total, Count, "seda_engine_candidates_total",                  \
    "Candidate nodes produced by term lookups.")                              \
  X(docs_considered, Count, "seda_engine_docs_considered_total",              \
    "Documents entering the TA scan.")                                        \
  X(docs_scored, Count, "seda_engine_docs_scored_total",                      \
    "Documents fully scored by the TA scan.")                                 \
  X(tuples_scored, Count, "seda_engine_tuples_scored_total",                  \
    "Term-node tuples scored.")                                               \
  X(early_terminated, Flag, "", "")                                           \
  X(postings_advanced, Count, "seda_engine_postings_advanced_total",          \
    "Posting cursor advances.")                                               \
  X(docs_skipped, Count, "seda_engine_docs_skipped_total",                    \
    "Documents pruned before scoring.")                                       \
  X(heap_evictions, Count, "seda_engine_heap_evictions_total",                \
    "Top-k heap evictions.")                                                  \
  X(hub_links_skipped, Count, "seda_engine_hub_links_skipped_total",          \
    "Hub links skipped while scoring.")                                       \
  X(tuples_trimmed, Count, "seda_engine_tuples_trimmed_total",                \
    "Tuples trimmed by per-doc budgets.")                                     \
  X(bfs_expansions, Count, "seda_engine_bfs_expansions_total",                \
    "Connection-scoring BFS expansions.")                                     \
  X(intersection_probes, Count, "seda_engine_intersection_probes_total",      \
    "Adjacency intersection probes (graph kernels).")                         \
  X(sketch_hits, Count, "seda_engine_sketch_hits_total",                      \
    "2-hop sketch hits (graph kernels).")                                     \
  X(column_rows_scanned, Count, "seda_engine_column_rows_scanned_total",      \
    "Columnar row lookups during cube extraction.")                           \
  X(column_fallback_docs, Count, "seda_engine_column_fallback_docs_total",    \
    "Cube result tuples extracted via the tree-walk fallback.")

#define SEDA_ENGINE_COUNTER_TYPE_Count uint64_t
#define SEDA_ENGINE_COUNTER_TYPE_Flag bool

/// Declares one struct field per list entry, zero-initialized.
#define SEDA_ENGINE_COUNTER_FIELD(field, type, metric, help) \
  SEDA_ENGINE_COUNTER_TYPE_##type field = {};

#endif  // SEDA_TOPK_ENGINE_COUNTERS_H_
