#ifndef SEDA_CORE_SEDA_H_
#define SEDA_CORE_SEDA_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/session.h"
#include "core/snapshot.h"
#include "cube/catalog.h"

namespace seda::core {

/// The SEDA system, split into three layers (writer / snapshot / session):
///
///  * **Writer path (this class).** AddXml() queues documents at any time —
///    before or after finalization. Finalize() performs the first Commit();
///    every later Commit() parses what is queued and builds the next epoch,
///    reusing the previous snapshot's work for every stage new documents
///    cannot invalidate (parsed documents are shared, the inverted index and
///    dataguide summary are extended; only link resolution rescans). The new
///    Snapshot is published atomically via std::shared_ptr, so in-flight
///    queries are never blocked or torn. The writer itself is
///    single-threaded: calls that mutate (AddXml, mutable_store, Commit,
///    mutable_catalog) must be externally serialized. Reader threads may
///    freely race with the writer through snapshot() or a Session, both of
///    which pin an epoch.
///
///  * **Snapshot.** One immutable epoch of everything query-side; see
///    core/snapshot.h.
///
///  * **Session.** A stateful Fig. 6 exploration pinned to one snapshot; see
///    core/session.h. NewSession() pins the current epoch.
///
/// Reads go through snapshot(), a Session, or api::SedaService (the wire
/// surface over Sessions); this class only writes and publishes epochs.
class Seda {
 public:
  Seda() : store_(std::make_unique<store::DocumentStore>()) {}

  /// The writer-side staging store. Eager loads (generators, tests) land
  /// here and become queryable at the next Finalize()/Commit(); published
  /// snapshots hold their own immutable clone, so staging mutations never
  /// disturb running queries.
  store::DocumentStore* mutable_store() { return store_.get(); }

  /// Queues an XML document for ingestion; parsing and Dewey assignment are
  /// deferred to the next Finalize()/Commit(), where queued documents parse
  /// in parallel. Legal at any time — after finalization the document joins
  /// the epoch built by the next Commit(). Returns the DocId the document
  /// will receive (ids are assigned in queue order after everything already
  /// staged). A malformed document surfaces as a ParseError from the commit.
  /// Eager loading via mutable_store()->AddXml() remains available, but all
  /// eager loads of a commit cycle must happen before its first AddXml() —
  /// the commit rejects the interleaving with FailedPrecondition, since it
  /// would invalidate the promised ids.
  Result<store::DocId> AddXml(std::string xml_text, std::string doc_name);

  /// Builds the first snapshot epoch (data graph, full-text index, dataguide
  /// summary) and fixes the SedaOptions used by every later Commit(). Call
  /// once; afterwards snapshot() and NewSession() serve queries and further
  /// ingestion goes through AddXml() + Commit(). Thread counts above
  /// kMaxThreadCount, which Open() would reject, are InvalidArgument.
  Status Finalize(const SedaOptions& options);
  Status Finalize() { return Finalize(SedaOptions{}); }

  /// Reopens a saved snapshot image (Save()) as this instance's first served
  /// epoch — the persistence counterpart of Finalize(): the image's options
  /// become the instance options, its epoch is served immediately, and
  /// further AddXml() + Commit() build epoch N+1 incrementally on top of the
  /// loaded state, exactly as if this process had built epoch N itself.
  /// Requires a fresh instance (nothing staged, not finalized). Cost is
  /// O(image size): no XML parsing, tokenization, link resolution or
  /// dataguide probing. Many processes may Open() the same image
  /// concurrently — the file is mapped read-only — which is what enables
  /// one-writer/many-reader multi-process serving.
  Status Open(const std::string& path);

  /// Serializes the currently-served epoch to `path` (Snapshot::Save).
  /// Fails before Finalize(). Safe to call while queries run; a concurrent
  /// Commit() simply determines which epoch gets saved.
  Status Save(const std::string& path) const;

  /// What a Commit() did, for logging and tests.
  struct CommitInfo {
    uint64_t epoch = 0;      ///< epoch now being served
    size_t docs_added = 0;   ///< documents new in this epoch
    size_t docs_total = 0;   ///< documents in the epoch
    bool incremental = false;  ///< previous epoch's index/guides were extended
  };

  /// Ingests everything staged since the last commit and atomically
  /// publishes the next snapshot epoch. In-flight searches and pinned
  /// Sessions keep the epoch they started on; new queries see the new one.
  /// With nothing staged this is a cheap no-op returning the current epoch.
  /// Requires Finalize() first (it is the first commit and fixes the
  /// options).
  Result<CommitInfo> Commit();

  bool finalized() const { return snapshot() != nullptr; }

  /// The currently-served epoch (nullptr before Finalize()). Lock-free
  /// atomic load; the returned shared_ptr keeps the epoch alive for as long
  /// as the caller holds it.
  std::shared_ptr<const Snapshot> snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// Starts a Fig. 6 exploration pinned to the current epoch (and wired to
  /// this instance's cube catalog). Fails before Finalize().
  Result<Session> NewSession() const;

  /// The cube catalog Sessions build star schemas against (cube/catalog.h).
  cube::Catalog* mutable_catalog() { return &catalog_; }
  const cube::Catalog& catalog() const { return catalog_; }

 private:
  struct PendingDocument {
    std::string xml_text;
    std::string name;
  };

  /// Stage 1 of a commit: parses queued documents in parallel and appends
  /// them to the staging store in queue order.
  Status IngestPending(ThreadPool* pool);

  /// The commit pipeline shared by Finalize() and Commit(): ingests pending
  /// documents, builds the next Snapshot off to the side (incrementally over
  /// the served epoch when there is one, cold at Finalize()) and publishes
  /// it.
  Status CommitInternal(CommitInfo* info);

  std::vector<PendingDocument> pending_docs_;
  /// Staging-store size when the first pending document was queued; AddXml()
  /// DocId promises are relative to it, and IngestPending() verifies it
  /// still holds.
  size_t pending_base_ = 0;
  /// Writer-side staging store; every snapshot serves an immutable clone.
  std::unique_ptr<store::DocumentStore> store_;
  /// Query-time scoring pool, created once at the first commit and co-owned
  /// by every published snapshot (commits never spawn query threads; null
  /// when query_threads resolves to 1).
  std::shared_ptr<ThreadPool> query_pool_;
  /// Currently-published epoch; atomically swapped by CommitInternal.
  std::atomic<std::shared_ptr<const Snapshot>> snapshot_{nullptr};
  cube::Catalog catalog_;
  SedaOptions options_;
  uint64_t next_epoch_ = 1;
};

}  // namespace seda::core

#endif  // SEDA_CORE_SEDA_H_
