#ifndef SEDA_TOPK_ENGINE_COUNTERS_H_
#define SEDA_TOPK_ENGINE_COUNTERS_H_

#include <cstdint>

/// The engine's per-query execution counters, declared once. Each entry is
/// X(field, merge, metric, help), in the order the api stats block encodes
/// them on the wire (a key order clients and byte-identity checks rely on).
/// The list generates the topk::SearchStats and api::StatsDto fields, their
/// JSON codec (api/wire.cc), the cumulative `metric` families with `help`
/// text (api/service.cc) and the shard-stats merge (core/snapshot.cc).
///
/// `merge` says how core::Snapshot::Search folds per-shard stats into one:
///  * Copy — computed over the full candidate set, so every shard holds the
///    same value; shard 0's is kept.
///  * Sum  — partitioned by the shard's documents; summed.
///  * Any  — the early_terminated flag (no metric): set when any shard's TA
///    scan stopped early. It sits where the wire order puts it.
///
/// The column_* counters are filled by the cube endpoint only; searches
/// leave them 0.
#define SEDA_ENGINE_COUNTERS(X)                                               \
  X(candidates_total, Copy, "seda_engine_candidates_total",                   \
    "Candidate nodes produced by term lookups.")                              \
  X(docs_considered, Sum, "seda_engine_docs_considered_total",                \
    "Documents entering the TA scan.")                                        \
  X(docs_scored, Sum, "seda_engine_docs_scored_total",                        \
    "Documents fully scored by the TA scan.")                                 \
  X(tuples_scored, Sum, "seda_engine_tuples_scored_total",                    \
    "Term-node tuples scored.")                                               \
  X(early_terminated, Any, "", "")                                            \
  X(postings_advanced, Copy, "seda_engine_postings_advanced_total",           \
    "Posting cursor advances.")                                               \
  X(docs_skipped, Copy, "seda_engine_docs_skipped_total",                     \
    "Documents pruned before scoring.")                                       \
  X(heap_evictions, Sum, "seda_engine_heap_evictions_total",                  \
    "Top-k heap evictions.")                                                  \
  X(hub_links_skipped, Copy, "seda_engine_hub_links_skipped_total",           \
    "Hub links skipped while scoring.")                                       \
  X(tuples_trimmed, Sum, "seda_engine_tuples_trimmed_total",                  \
    "Tuples trimmed by per-doc budgets.")                                     \
  X(bfs_expansions, Sum, "seda_engine_bfs_expansions_total",                  \
    "Connection-scoring BFS expansions.")                                     \
  X(intersection_probes, Sum, "seda_engine_intersection_probes_total",        \
    "Adjacency intersection probes (graph kernels).")                         \
  X(sketch_hits, Sum, "seda_engine_sketch_hits_total",                        \
    "2-hop sketch hits (graph kernels).")                                     \
  X(column_rows_scanned, Copy, "seda_engine_column_rows_scanned_total",       \
    "Columnar row lookups during cube extraction.")                           \
  X(column_fallback_docs, Copy, "seda_engine_column_fallback_docs_total",     \
    "Cube result tuples extracted via the tree-walk fallback.")

#define SEDA_ENGINE_COUNTER_TYPE_Copy uint64_t
#define SEDA_ENGINE_COUNTER_TYPE_Sum uint64_t
#define SEDA_ENGINE_COUNTER_TYPE_Any bool

/// Declares one struct field per list entry, zero-initialized.
#define SEDA_ENGINE_COUNTER_FIELD(field, merge, metric, help) \
  SEDA_ENGINE_COUNTER_TYPE_##merge field = {};

#endif  // SEDA_TOPK_ENGINE_COUNTERS_H_
