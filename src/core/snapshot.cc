#include "core/snapshot.h"

#include "exec/candidates.h"
#include "obs/trace.h"

namespace seda::core {

audit::AuditReport Snapshot::Audit() const {
  return audit::SnapshotAuditor(store_.get(), index_.get(), graph_.get(),
                                guides_.get(), columns_.get())
      .AuditAll();
}

audit::AuditReport Snapshot::Audit(const persist::MappedImage& image) const {
  audit::SnapshotAuditor auditor(store_.get(), index_.get(), graph_.get(),
                                 guides_.get(), columns_.get());
  audit::AuditReport report = auditor.AuditAll();
  auditor.AuditImage(image, epoch_, &report);
  return report;
}

std::shared_ptr<const Snapshot> Snapshot::Build(
    std::unique_ptr<store::DocumentStore> store, const SedaOptions& options,
    uint64_t epoch, const Snapshot* base, ThreadPool* ingest_pool,
    std::shared_ptr<ThreadPool> query_pool) {
  // Not make_shared: the constructor is private, and a plain new keeps the
  // control block separate so the (large) snapshot frees as soon as the last
  // session drops it.
  std::shared_ptr<Snapshot> snap(new Snapshot());
  snap->epoch_ = epoch;
  snap->options_ = options;
  snap->store_ = std::move(store);

  // Stage 2 (stage 1, parsing, happened on the writer side): data graph.
  // Always a full rescan — a newly committed document may carry the id an
  // old document's dangling IDREF/XLink points at, and value-based edges may
  // span epochs, so link resolution is the one stage incremental commits
  // cannot reuse without changing results.
  snap->graph_ = std::make_unique<graph::DataGraph>(snap->store_.get());
  snap->graph_->ResolveLinks(options.resolve_idrefs, options.resolve_xlinks,
                             ingest_pool);
  for (const SedaOptions::ValueEdge& edge : options.value_edges) {
    snap->graph_->AddValueBasedEdges(edge.pk_path, edge.fk_path, edge.label);
  }
  // The edge log is final for this epoch: build the CSR kernel layer the
  // connection-scoring hot path runs on (graph/csr.h).
  snap->graph_->BuildCsr();

  // Stage 3: inverted index — with a base epoch, only the new documents'
  // shards are built and merged (appending after the base postings, which is
  // exactly where a from-scratch DocId-ordered merge would put them).
  store::DocId base_docs =
      base != nullptr ? static_cast<store::DocId>(base->store().DocumentCount())
                      : 0;
  if (base != nullptr) {
    snap->index_ = std::make_unique<text::InvertedIndex>(
        base->index(), snap->store_.get(), base_docs, ingest_pool);
  } else {
    snap->index_ =
        std::make_unique<text::InvertedIndex>(snap->store_.get(), ingest_pool);
  }

  // Stage 4: dataguide summary — the paper's build is sequential in document
  // order, so extending the base collection over the new documents makes the
  // same merge decisions a cold build over the full store would.
  dataguide::DataguideCollection::Options dg_options;
  dg_options.overlap_threshold = options.dataguide_overlap_threshold;
  snap->guides_ = std::make_unique<dataguide::DataguideCollection>(
      base != nullptr
          ? dataguide::DataguideCollection::Extend(base->dataguides(),
                                                   *snap->store_, dg_options)
          : dataguide::DataguideCollection::Build(*snap->store_, dg_options));
  snap->guides_->AddLinksFromGraph(*snap->graph_);

  // Stage 5: columnar projections — rebuilt per epoch from the full store
  // (inference is deterministic in the store contents, so an incremental
  // commit infers exactly the columns a cold build over the same documents
  // would, keeping epochs bit-identical either way).
  snap->columns_ = column::ColumnStore::Build(*snap->store_, options.columns);

  snap->query_pool_ = std::move(query_pool);
  snap->searcher_ = std::make_unique<topk::TopKSearcher>(
      snap->index_.get(), snap->graph_.get(), snap->query_pool_.get());
  return snap;
}

void WriteSedaOptions(persist::ImageWriter* writer, const SedaOptions& options) {
  writer->PutDouble(options.dataguide_overlap_threshold);
  writer->PutU8(options.resolve_idrefs ? 1 : 0);
  writer->PutU8(options.resolve_xlinks ? 1 : 0);
  writer->PutU64(options.num_threads);
  writer->PutU64(options.query_threads);
  const topk::TopKOptions& topk = options.topk;
  writer->PutU64(topk.k);
  writer->PutU64(topk.max_candidates_per_term);
  writer->PutU64(topk.max_per_doc_per_term);
  writer->PutU64(topk.max_connect_depth);
  writer->PutU8(topk.allow_cross_document ? 1 : 0);
  writer->PutU64(topk.parallel_batch_min);
  writer->PutU64(topk.max_hub_degree);
  writer->PutU64(topk.max_tuples_per_query);
  writer->PutU64(topk.max_connect_visits);
  writer->PutU64(options.value_edges.size());
  for (const SedaOptions::ValueEdge& edge : options.value_edges) {
    writer->PutString(edge.pk_path);
    writer->PutString(edge.fk_path);
    writer->PutString(edge.label);
  }
  // Column-inference thresholds.
  writer->PutU8(options.columns.enabled ? 1 : 0);
  writer->PutDouble(options.columns.min_doc_support);
  writer->PutU64(options.columns.min_docs);
  writer->PutDouble(options.columns.max_avg_occurrences);
  writer->PutU64(options.columns.max_columns);
}

Result<SedaOptions> ReadSedaOptions(const persist::MappedImage& image) {
  SEDA_ASSIGN_OR_RETURN(persist::SectionCursor cursor,
                        persist::OpenSection(image, persist::SectionId::kOptions));
  SedaOptions options;
  options.dataguide_overlap_threshold = cursor.GetDouble();
  options.resolve_idrefs = cursor.GetU8() != 0;
  options.resolve_xlinks = cursor.GetU8() != 0;
  const uint64_t num_threads = cursor.GetU64();
  const uint64_t query_threads = cursor.GetU64();
  // Seda::Open sizes its thread pools from these: a hostile count must not
  // reach a pool constructor.
  if (num_threads > kMaxThreadCount || query_threads > kMaxThreadCount) {
    return Status::ParseError("image options ask for more than " +
                              std::to_string(kMaxThreadCount) + " threads");
  }
  options.num_threads = static_cast<size_t>(num_threads);
  options.query_threads = static_cast<size_t>(query_threads);
  options.topk.k = static_cast<size_t>(cursor.GetU64());
  options.topk.max_candidates_per_term = static_cast<size_t>(cursor.GetU64());
  options.topk.max_per_doc_per_term = static_cast<size_t>(cursor.GetU64());
  options.topk.max_connect_depth = static_cast<size_t>(cursor.GetU64());
  options.topk.allow_cross_document = cursor.GetU8() != 0;
  options.topk.parallel_batch_min = static_cast<size_t>(cursor.GetU64());
  options.topk.max_hub_degree = static_cast<size_t>(cursor.GetU64());
  options.topk.max_tuples_per_query = static_cast<size_t>(cursor.GetU64());
  options.topk.max_connect_visits = static_cast<size_t>(cursor.GetU64());
  uint64_t edge_count = cursor.GetU64();
  options.value_edges.reserve(cursor.BoundedCount(edge_count, 12));
  for (uint64_t i = 0; i < edge_count && !cursor.failed(); ++i) {
    SedaOptions::ValueEdge edge;
    edge.pk_path = cursor.GetString();
    edge.fk_path = cursor.GetString();
    edge.label = cursor.GetString();
    options.value_edges.push_back(std::move(edge));
  }
  options.columns.enabled = cursor.GetU8() != 0;
  options.columns.min_doc_support = cursor.GetDouble();
  options.columns.min_docs = cursor.GetU64();
  options.columns.max_avg_occurrences = cursor.GetDouble();
  options.columns.max_columns = cursor.GetU64();
  SEDA_RETURN_IF_ERROR(cursor.status());
  return options;
}

Status Snapshot::Save(const std::string& path) const {
  persist::ImageWriter writer;
  SEDA_RETURN_IF_ERROR(writer.Open(path));
  writer.BeginSection(persist::SectionId::kOptions);
  WriteSedaOptions(&writer, options_);
  SEDA_RETURN_IF_ERROR(writer.EndSection());
  SEDA_RETURN_IF_ERROR(store_->SaveTo(&writer));
  SEDA_RETURN_IF_ERROR(graph_->SaveTo(&writer));
  SEDA_RETURN_IF_ERROR(index_->SaveTo(&writer));
  SEDA_RETURN_IF_ERROR(guides_->SaveTo(&writer));
  if (options_.columns.enabled) {
    writer.BeginSection(persist::SectionId::kColumns);
    SEDA_RETURN_IF_ERROR(columns_->SaveTo(&writer));
    SEDA_RETURN_IF_ERROR(writer.EndSection());
  }
  return writer.Finish(epoch_);
}

Result<std::shared_ptr<const Snapshot>> Snapshot::Load(
    std::shared_ptr<const persist::MappedImage> image, SedaOptions options,
    ThreadPool* load_pool, std::shared_ptr<ThreadPool> query_pool) {
  std::shared_ptr<Snapshot> snap(new Snapshot());
  snap->epoch_ = image->epoch();
  snap->options_ = std::move(options);
  SEDA_ASSIGN_OR_RETURN(snap->store_,
                        store::DocumentStore::LoadFrom(*image, load_pool));
  SEDA_ASSIGN_OR_RETURN(
      snap->graph_, graph::DataGraph::LoadFrom(image, snap->store_.get()));
  SEDA_ASSIGN_OR_RETURN(
      snap->index_, text::InvertedIndex::LoadFrom(image, snap->store_.get()));
  SEDA_ASSIGN_OR_RETURN(auto guides, dataguide::DataguideCollection::LoadFrom(
                                         *image, snap->store_.get()));
  snap->guides_ = std::make_unique<dataguide::DataguideCollection>(
      std::move(guides));
  // Save() writes the columns section exactly when the options enable
  // columns; a columns-off epoch holds the empty store its commit built.
  const bool has_columns = image->HasSection(persist::SectionId::kColumns);
  if (has_columns != snap->options_.columns.enabled) {
    return Status::ParseError(
        "image columns section disagrees with its options (columns.enabled)");
  }
  if (has_columns) {
    SEDA_ASSIGN_OR_RETURN(snap->columns_,
                          column::ColumnStore::LoadFrom(image, *snap->store_));
  } else {
    snap->columns_ =
        column::ColumnStore::Build(*snap->store_, snap->options_.columns);
  }
  snap->query_pool_ = std::move(query_pool);
  snap->searcher_ = std::make_unique<topk::TopKSearcher>(
      snap->index_.get(), snap->graph_.get(), snap->query_pool_.get());
  return std::shared_ptr<const Snapshot>(std::move(snap));
}

Result<std::shared_ptr<const Snapshot>> Snapshot::Load(
    std::shared_ptr<const persist::MappedImage> image) {
  SEDA_ASSIGN_OR_RETURN(SedaOptions options, ReadSedaOptions(*image));
  return Load(std::move(image), std::move(options), nullptr, nullptr);
}

Result<std::shared_ptr<const Snapshot>> Snapshot::Load(const std::string& path) {
  SEDA_ASSIGN_OR_RETURN(auto image, persist::MappedImage::Open(path));
  return Load(std::move(image));
}

Result<query::Query> Snapshot::Parse(const std::string& text) const {
  return query::ParseQuery(text);
}

Result<SearchResponse> Snapshot::Search(const query::Query& query) const {
  return Search(query, options_.topk);
}

Result<SearchResponse> Snapshot::Search(
    const query::Query& query, const topk::TopKOptions& topk_options) const {
  SearchResponse response;

  // One cursor-built candidate set per query, shared by the top-k engine and
  // the summary generators instead of re-evaluating the expressions.
  obs::ScopedSpan candidates_span(topk_options.trace, "candidates");
  exec::CandidateSet candidates = exec::BuildCandidates(
      *index_, query, topk_options.max_candidates_per_term);
  candidates_span.AddCounter("candidates_total", candidates.CandidatesTotal());
  candidates_span.End();

  obs::ScopedSpan topk_span(topk_options.trace, "topk");
  // The searcher nests its own group_docs/ta_scan spans under "topk".
  topk::TopKOptions traced_options = topk_options;
  traced_options.trace = topk_span.get();
  auto topk_result =
      searcher_->Search(query, traced_options, candidates, &response.stats);
  if (!topk_result.ok()) return topk_result.status();
  response.topk = std::move(topk_result).value();
  topk_span.End();
  response.stats.epoch = epoch_;

  obs::ScopedSpan context_span(topk_options.trace, "context_summary");
  summary::ContextSummaryGenerator context_gen(index_.get());
  std::vector<const std::vector<store::PathId>*> resolved_contexts;
  resolved_contexts.reserve(candidates.terms.size());
  for (const exec::TermCandidates& term : candidates.terms) {
    resolved_contexts.push_back(term.context_restricted ? &term.context_paths
                                                        : nullptr);
  }
  response.contexts = context_gen.Generate(query, resolved_contexts);
  context_span.End();

  // The connection summary consumes the engine's top-k tuples directly (the
  // §6.1 instance validation), so it inherits the shared candidate set too.
  obs::ScopedSpan connection_span(topk_options.trace, "connection_summary");
  summary::ConnectionSummaryGenerator connection_gen(guides_.get(),
                                                     graph_.get());
  response.connections = connection_gen.Generate(response.topk);
  connection_span.End();
  return response;
}

Result<SearchResponse> Snapshot::Search(const std::string& query_text) const {
  auto query = Parse(query_text);
  if (!query.ok()) return query.status();
  return Search(query.value());
}

Result<query::Query> Snapshot::RefineContexts(
    const query::Query& query,
    const std::vector<std::vector<std::string>>& chosen_paths) {
  if (chosen_paths.size() != query.terms.size()) {
    return Status::InvalidArgument(
        "one context choice list per query term required: query has " +
        std::to_string(query.terms.size()) + " term(s) but " +
        std::to_string(chosen_paths.size()) + " list(s) were given");
  }
  query::Query refined = query;  // deep-copies terms
  for (size_t i = 0; i < refined.terms.size(); ++i) {
    if (chosen_paths[i].empty()) continue;  // keep unrestricted
    query::ContextSpec spec;
    for (const std::string& path : chosen_paths[i]) {
      if (path.empty() || path[0] != '/') {
        return Status::InvalidArgument(
            "context choice for term " + std::to_string(i) +
            " must be an absolute path; got '" + path + "'");
      }
      spec.AddPath(path);
    }
    refined.terms[i].context = std::move(spec);
  }
  return refined;
}

Result<twig::CompleteResult> Snapshot::CompleteResults(
    const query::Query& query, const std::vector<std::string>& term_paths,
    const std::vector<twig::ChosenConnection>& connections,
    const twig::ExecuteOptions& options) const {
  if (term_paths.size() != query.terms.size()) {
    return Status::InvalidArgument("one chosen path per term required");
  }
  std::vector<twig::TermBinding> bindings;
  bindings.reserve(query.terms.size());
  for (size_t i = 0; i < query.terms.size(); ++i) {
    twig::TermBinding binding;
    binding.path = term_paths[i];
    binding.search = query.terms[i].search.get();
    bindings.push_back(binding);
  }
  twig::CompleteResultGenerator generator(index_.get(), graph_.get());
  return generator.Execute(bindings, connections, options);
}

Result<cube::StarSchema> Snapshot::BuildCube(
    const twig::CompleteResult& result, const cube::Catalog& catalog,
    const cube::CubeBuilder::Options& options) const {
  cube::CubeBuilder builder(store_.get(), &catalog, columns_.get());
  return builder.Build(result, options);
}

Result<olap::Cube> Snapshot::ToOlapCube(const cube::StarSchema& schema) const {
  if (schema.fact_tables.empty()) {
    return Status::FailedPrecondition("star schema has no fact table");
  }
  return olap::Cube::FromFactTable(schema.fact_tables.front());
}

}  // namespace seda::core
