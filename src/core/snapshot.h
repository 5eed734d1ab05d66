#ifndef SEDA_CORE_SNAPSHOT_H_
#define SEDA_CORE_SNAPSHOT_H_

#include <memory>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "column/column_store.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "persist/reader.h"
#include "persist/writer.h"
#include "cube/cube_builder.h"
#include "dataguide/dataguide.h"
#include "graph/data_graph.h"
#include "olap/olap.h"
#include "query/query.h"
#include "store/document_store.h"
#include "summary/connection_summary.h"
#include "summary/context_summary.h"
#include "text/inverted_index.h"
#include "topk/topk.h"
#include "twig/twig.h"

namespace seda::core {

/// Everything SEDA returns for one search interaction (paper Fig. 6): the
/// top-k answers plus the two result summaries driving refinement.
struct SearchResponse {
  std::vector<topk::ScoredTuple> topk;
  summary::ContextSummary contexts;
  summary::ConnectionSummary connections;
  topk::SearchStats stats;
};

/// The most threads an image's options may ask for (num_threads,
/// query_threads); ReadSedaOptions rejects a larger count, and so does
/// net::Server::Start for its io and worker threads.
inline constexpr size_t kMaxThreadCount = 1024;

/// Configuration of a Seda instance, fixed by the first commit (Finalize())
/// and reused by every later Commit().
struct SedaOptions {
  double dataguide_overlap_threshold = 0.4;  ///< Table 1 uses 40%
  topk::TopKOptions topk;
  bool resolve_idrefs = true;
  bool resolve_xlinks = true;
  /// Worker threads for the commit ingestion pipeline: per-document parsing,
  /// link resolution and inverted-index posting construction fan out across
  /// this many threads. 0 = one per hardware core; 1 = fully inline. Any
  /// value yields byte-identical indexes and dataguides: parallel stages
  /// only produce per-document shards, which are merged in document order.
  size_t num_threads = 0;
  /// Worker threads for query execution: each Search() fans per-document
  /// tuple scoring (ConnectionSize) out across a pool owned by the serving
  /// snapshot. 0 = one per hardware core; 1 = fully inline. Any value
  /// returns byte-identical SearchResponses — scored batches are merged in
  /// enumeration order. Search() stays safe to call concurrently:
  /// ThreadPool::ParallelFor keeps per-call state, so concurrent queries
  /// only contend for workers.
  size_t query_threads = 0;
  /// Value-based PK/FK relationships provided as input (paper §3: "we assume
  /// instances of ... value-based relationships are provided as input").
  struct ValueEdge {
    std::string pk_path;
    std::string fk_path;
    std::string label;
  };
  std::vector<ValueEdge> value_edges;
  /// Commit-time schema-inference thresholds for the columnar projections
  /// (src/column/) the cube layer scans; `columns.enabled = false` turns the
  /// subsystem off and every cube takes the tree walk.
  column::InferenceOptions columns;
};

/// One immutable, atomically-published epoch of the query side: the store
/// view, data graph, inverted index, dataguide summary and top-k searcher a
/// query needs, frozen at commit time. Snapshots are built off to the side
/// by the Seda writer path and swapped in via std::shared_ptr, so readers
/// never block on (and are never torn by) a concurrent Commit(): whoever
/// holds a Snapshot keeps exactly the epoch it pinned, and the epoch is
/// freed when its last holder lets go. All query entry points are const and
/// safe to call from many threads at once.
class Snapshot {
 public:
  /// Builds epoch `epoch` over `store` (ownership taken; the writer hands in
  /// a DocumentStore::Clone so later ingestion never touches this view).
  /// With a `base` snapshot, stages that new documents cannot invalidate are
  /// extended instead of rebuilt: parsed documents are shared through the
  /// store clone, the inverted index merges only the new documents' shards,
  /// and the dataguide summary continues the sequential overlap merge — all
  /// bit-identical to a from-scratch build over the same store. Only link
  /// resolution always rescans, because a new document may carry the id an
  /// old document's IDREF/XLink points at (and value edges may span epochs).
  /// `query_pool` (may be null = inline scoring) is shared across epochs:
  /// the writer owns one pool and every snapshot co-owns it, so commits
  /// don't spawn threads and a Session outliving the writer keeps a working
  /// searcher.
  static std::shared_ptr<const Snapshot> Build(
      std::unique_ptr<store::DocumentStore> store, const SedaOptions& options,
      uint64_t epoch, const Snapshot* base, ThreadPool* ingest_pool,
      std::shared_ptr<ThreadPool> query_pool);

  /// Serializes this epoch to a versioned, checksummed binary image at
  /// `path` (src/persist/ format): options, path dictionary, document trees,
  /// data-graph edge log, inverted index and dataguide summary as aligned,
  /// offset-addressed sections. Load()/Seda::Open() reopen the image without
  /// re-parsing or re-indexing anything and serve byte-identical
  /// SearchResponses. Snapshots are immutable, so Save can run concurrently
  /// with searches and commits.
  Status Save(const std::string& path) const;

  /// Reopens a saved epoch from a validated image: documents materialize in
  /// parallel over `load_pool`, posting blocks and dataguides come straight
  /// out of the mapping, and nothing is re-tokenized or re-resolved —
  /// making reopen O(image size) instead of O(re-ingestion). The loaded
  /// snapshot is a full epoch: it serves queries (scoring fans out over
  /// `query_pool` when given) and can be the base of further Commit()s.
  /// `options` are the image's own, read once by the caller
  /// (ReadSedaOptions) — Seda::Open sizes both pools from them.
  static Result<std::shared_ptr<const Snapshot>> Load(
      std::shared_ptr<const persist::MappedImage> image, SedaOptions options,
      ThreadPool* load_pool, std::shared_ptr<ThreadPool> query_pool);
  /// Single-threaded load that reads the options itself (tools, tests).
  static Result<std::shared_ptr<const Snapshot>> Load(
      std::shared_ptr<const persist::MappedImage> image);
  static Result<std::shared_ptr<const Snapshot>> Load(const std::string& path);

  /// Commit epoch id: 1 for the Finalize() epoch, +1 per Commit().
  uint64_t epoch() const { return epoch_; }
  const SedaOptions& options() const { return options_; }

  const store::DocumentStore& store() const { return *store_; }
  const graph::DataGraph& data_graph() const { return *graph_; }
  const text::InvertedIndex& index() const { return *index_; }
  const dataguide::DataguideCollection& dataguides() const { return *guides_; }
  /// Schema-inferred columnar projections of this epoch (never null; empty
  /// when inference is disabled or nothing qualified).
  const column::ColumnStore& columns() const { return *columns_; }

  /// Parses the paper's query syntax, e.g.
  ///   (*, "United States") AND (trade_country, *) AND (percentage, *)
  Result<query::Query> Parse(const std::string& text) const;

  /// Runs top-k search and computes both summaries (Fig. 6 first stage).
  /// The response's stats carry this snapshot's epoch().
  Result<SearchResponse> Search(const query::Query& query) const;
  Result<SearchResponse> Search(const std::string& query_text) const;

  /// Search with per-request engine options (the api::SedaService path: a
  /// request's deadline_ms / k overrides are layered over this snapshot's
  /// configured TopKOptions without touching the shared epoch state).
  Result<SearchResponse> Search(const query::Query& query,
                                const topk::TopKOptions& topk_options) const;

  /// Context refinement (§5): restricts each term to the chosen context
  /// paths (empty vector = keep the term as is) and returns the refined
  /// query for a new Search round. Pure query rewrite — needs no epoch
  /// state.
  static Result<query::Query> RefineContexts(
      const query::Query& query,
      const std::vector<std::vector<std::string>>& chosen_paths);

  /// Computes the complete result set (§7) for terms pinned to single
  /// contexts, honoring the chosen connections. `options.deadline_ms` bounds
  /// the twig join; on expiry the partial result carries deadline_exceeded.
  Result<twig::CompleteResult> CompleteResults(
      const query::Query& query, const std::vector<std::string>& term_paths,
      const std::vector<twig::ChosenConnection>& connections,
      const twig::ExecuteOptions& options = {}) const;

  /// Builds the star schema from a complete result (§7 steps 1-3). The
  /// catalog (user-defined dimensions/facts) lives on the writer side and is
  /// passed in per call.
  Result<cube::StarSchema> BuildCube(
      const twig::CompleteResult& result, const cube::Catalog& catalog,
      const cube::CubeBuilder::Options& options) const;

  /// Convenience: loads the first fact table of a star schema into the OLAP
  /// engine (the paper feeds the tables to an off-the-shelf OLAP tool).
  Result<olap::Cube> ToOlapCube(const cube::StarSchema& schema) const;

  /// Debug validation (src/audit/): walks every component structure of this
  /// epoch and verifies the cross-layer invariants the engine's hot paths
  /// assume. O(collection); meant for tests and the seda_audit CLI, not the
  /// serving path. The image overload additionally checks the persisted
  /// sections this snapshot was loaded from agree with the decoded
  /// structures (section sanity, leading counts, epoch).
  audit::AuditReport Audit() const;
  audit::AuditReport Audit(const persist::MappedImage& image) const;

 private:
  Snapshot() = default;

  uint64_t epoch_ = 0;
  SedaOptions options_;
  std::unique_ptr<store::DocumentStore> store_;
  std::unique_ptr<graph::DataGraph> graph_;
  std::unique_ptr<text::InvertedIndex> index_;
  std::unique_ptr<dataguide::DataguideCollection> guides_;
  std::unique_ptr<column::ColumnStore> columns_;
  /// Query-time pool (tuple scoring); co-owned with the writer and every
  /// other live epoch, so a Session that outlives the writer keeps a working
  /// searcher. Outlives searcher_, which borrows it.
  std::shared_ptr<ThreadPool> query_pool_;
  std::unique_ptr<topk::TopKSearcher> searcher_;
};

/// SedaOptions codec for the image's options section, shared by
/// Snapshot::Save/Load and Seda::Open (which must restore the options before
/// it can size the thread pools). ReadSedaOptions fails with ParseError on a
/// truncated section or a thread count above kMaxThreadCount.
void WriteSedaOptions(persist::ImageWriter* writer, const SedaOptions& options);
Result<SedaOptions> ReadSedaOptions(const persist::MappedImage& image);

}  // namespace seda::core

#endif  // SEDA_CORE_SNAPSHOT_H_
