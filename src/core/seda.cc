#include "core/seda.h"

#include "xml/parser.h"

namespace seda::core {

namespace {

/// A pool for `threads`-way parallelism (0 = one per hardware core), or null
/// for 1. The calling thread joins every ParallelFor, so the pool spawns one
/// fewer worker than the parallelism to avoid oversubscribing by one.
std::unique_ptr<ThreadPool> NewPool(size_t threads) {
  if (threads == 0) threads = ThreadPool::DefaultThreadCount();
  if (threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(threads - 1);
}

}  // namespace

Result<store::DocId> Seda::AddXml(std::string xml_text, std::string doc_name) {
  if (pending_docs_.empty()) pending_base_ = store_->DocumentCount();
  store::DocId id =
      static_cast<store::DocId>(pending_base_ + pending_docs_.size());
  pending_docs_.push_back({std::move(xml_text), std::move(doc_name)});
  return id;
}

Status Seda::IngestPending(ThreadPool* pool) {
  if (pending_docs_.empty()) return Status::OK();
  if (store_->DocumentCount() != pending_base_) {
    // An eager mutable_store() load slipped in after the first AddXml() of
    // this commit cycle; the DocIds promised by AddXml() would silently
    // point at the wrong documents, so fail loudly instead.
    return Status::FailedPrecondition(
        "documents were added to the store after the first deferred AddXml(); "
        "queue all eager loads before deferring");
  }

  // Parse (and assign Dewey ids) in parallel: documents are independent
  // until they enter the shared store.
  size_t count = pending_docs_.size();
  std::vector<std::unique_ptr<xml::Document>> parsed(count);
  std::vector<Status> statuses(count);
  RunParallel(pool, count, [&](size_t i) {
    auto result = xml::Parser::Parse(pending_docs_[i].xml_text,
                                     pending_docs_[i].name);
    if (result.ok()) {
      parsed[i] = std::move(result).value();
    } else {
      statuses[i] = result.status();
    }
  });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }

  // Append in queue order so DocIds match what AddXml() promised and path
  // interning order is deterministic.
  for (std::unique_ptr<xml::Document>& doc : parsed) {
    store_->AddDocument(std::move(doc));
  }
  pending_docs_.clear();
  return Status::OK();
}

Status Seda::Finalize(const SedaOptions& options) {
  if (finalized()) {
    return Status::FailedPrecondition(
        "Seda already finalized; ingest later epochs with AddXml() + Commit()");
  }
  // The same ceiling ReadSedaOptions enforces, so Save() never writes an
  // image Open() rejects; checked before any pool is sized from the counts.
  if (options.num_threads > kMaxThreadCount ||
      options.query_threads > kMaxThreadCount) {
    return Status::InvalidArgument("SedaOptions ask for more than " +
                                   std::to_string(kMaxThreadCount) +
                                   " threads");
  }
  options_ = options;
  CommitInfo info;
  return CommitInternal(&info);
}

Status Seda::Open(const std::string& path) {
  if (finalized()) {
    return Status::FailedPrecondition(
        "Open() requires a fresh Seda instance (already finalized)");
  }
  if (!pending_docs_.empty() || store_->DocumentCount() > 0) {
    return Status::FailedPrecondition(
        "Open() requires an empty staging store; load images before staging "
        "documents");
  }
  SEDA_ASSIGN_OR_RETURN(auto image, persist::MappedImage::Open(path));
  SEDA_ASSIGN_OR_RETURN(options_, ReadSedaOptions(*image));

  // Pools are sized from the restored options, as in CommitInternal: a
  // transient ingest-shaped pool for parallel document materialization, and
  // the long-lived query pool every epoch co-owns.
  std::unique_ptr<ThreadPool> load_pool = NewPool(options_.num_threads);
  query_pool_ = NewPool(options_.query_threads);
  SEDA_ASSIGN_OR_RETURN(std::shared_ptr<const Snapshot> snap,
                        Snapshot::Load(std::move(image), options_,
                                       load_pool.get(), query_pool_));
  // The staging store continues from the loaded epoch's view (documents are
  // shared, not copied), so the next Commit() extends it incrementally.
  store_ = snap->store().Clone();
  next_epoch_ = snap->epoch() + 1;
  snapshot_.store(std::move(snap), std::memory_order_release);
  return Status::OK();
}

Status Seda::Save(const std::string& path) const {
  std::shared_ptr<const Snapshot> snap = snapshot();
  if (snap == nullptr) {
    return Status::FailedPrecondition("call Finalize() or Open() first");
  }
  return snap->Save(path);
}

Result<Seda::CommitInfo> Seda::Commit() {
  if (!finalized()) {
    return Status::FailedPrecondition(
        "call Finalize() first — it performs the first commit and fixes the "
        "SedaOptions");
  }
  CommitInfo info;
  SEDA_RETURN_IF_ERROR(CommitInternal(&info));
  return info;
}

Status Seda::CommitInternal(CommitInfo* info) {
  std::shared_ptr<const Snapshot> base = snapshot();
  size_t base_docs = base != nullptr ? base->store().DocumentCount() : 0;

  if (base != nullptr && pending_docs_.empty() &&
      store_->DocumentCount() == base_docs) {
    // Nothing new: the published epoch already serves exactly this state.
    // Checked before any pool spawns, so a polling Commit() really is cheap.
    info->epoch = base->epoch();
    info->docs_added = 0;
    info->docs_total = base_docs;
    info->incremental = true;
    return Status::OK();
  }

  // The commit pipeline (Fig. 6 left half) runs in four stages. Stages fan
  // per-document work out over the pool; every merge happens in DocId order,
  // so any worker count produces identical indexes and dataguides.
  std::unique_ptr<ThreadPool> pool = NewPool(options_.num_threads);

  // Stage 1: parse queued documents and load them into the staging store.
  SEDA_RETURN_IF_ERROR(IngestPending(pool.get()));

  // Query-time pool, shared by every epoch; created once, at the first
  // commit.
  if (base == nullptr) query_pool_ = NewPool(options_.query_threads);

  // Stages 2-4 run inside Snapshot::Build, off to the side of the published
  // epoch: readers keep querying `base` undisturbed until the single atomic
  // swap below.
  std::shared_ptr<const Snapshot> next =
      Snapshot::Build(store_->Clone(), options_, next_epoch_, base.get(),
                      pool.get(), query_pool_);
  ++next_epoch_;

  info->epoch = next->epoch();
  info->docs_total = store_->DocumentCount();
  info->docs_added = info->docs_total - base_docs;
  info->incremental = base != nullptr;

  snapshot_.store(std::move(next), std::memory_order_release);
  return Status::OK();
}

Result<Session> Seda::NewSession() const {
  std::shared_ptr<const Snapshot> snap = snapshot();
  if (snap == nullptr) {
    return Status::FailedPrecondition("call Finalize() first");
  }
  return Session(std::move(snap), &catalog_);
}

}  // namespace seda::core
