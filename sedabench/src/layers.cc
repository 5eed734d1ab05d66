#include "layers.h"

#include <cstdio>
#include <functional>

#include "api/wire.h"
#include "query/query.h"
#include "twig/twig.h"
#include "column/column_store.h"
#include "dataguide/dataguide.h"
#include "graph/data_graph.h"
#include "persist/reader.h"
#include "text/inverted_index.h"
#include "xml/parser.h"
#include "exec/candidates.h"
#include "summary/connection_summary.h"
#include "summary/context_summary.h"
#include "templates.h"
#include "topk/topk.h"

namespace sedabench {

using seda::api::Json;
using seda::obs::ScopedSpan;
using seda::obs::SpanNode;

void SpanLog::Keep(seda::obs::Trace* trace) {
  if (trace->enabled()) trees_.push_back(trace->Detach());
}

std::vector<std::map<std::string, double>> SpanLog::SelfMsByOp() const {
  std::vector<std::map<std::string, double>> ops;
  for (const SpanNode& tree : trees_) {
    std::map<std::string, double>& self = ops.emplace_back();
    std::function<void(const SpanNode&)> walk = [&](const SpanNode& node) {
      self[node.name] += static_cast<double>(node.SelfUs()) / 1000.0;
      for (const SpanNode& child : node.children) walk(child);
    };
    walk(tree);
  }
  return ops;
}

std::map<std::string, std::vector<double>> SpanLog::SelfMsPerOp() const {
  std::map<std::string, std::vector<double>> self;
  for (const auto& op : SelfMsByOp()) {
    for (const auto& [name, ms] : op) self[name].push_back(ms);
  }
  return self;
}

bool SpanLog::Write(const std::string& path) const {
  FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < trees_.size(); ++i) {
    std::fprintf(out, "{\"op\":%zu,\"trace\":%s}\n", i,
                 seda::api::ToJson(trees_[i]).Write().c_str());
  }
  return std::fclose(out) == 0;
}

seda::Result<seda::core::SearchResponse> ReplaySearch(
    const seda::core::Snapshot& snapshot, const seda::query::Query& query,
    seda::obs::TraceSpan* parent, LayerCounts* counts) {
  const seda::topk::TopKOptions& options = snapshot.options().topk;
  seda::core::SearchResponse response;

  ScopedSpan candidates_span(parent, "exec.candidates");
  seda::exec::CandidateSet candidates = seda::exec::BuildCandidates(
      snapshot.index(), query, options.max_candidates_per_term);
  candidates_span.End();

  ScopedSpan topk_span(parent, "topk.scan");
  seda::topk::TopKSearcher searcher(&snapshot.index(), &snapshot.data_graph());
  auto topk = searcher.Search(query, options, candidates, &response.stats);
  topk_span.End();
  if (!topk.ok()) return topk.status();
  response.topk = std::move(topk).value();

  ScopedSpan context_span(parent, "summary.context");
  seda::summary::ContextSummaryGenerator context_gen(&snapshot.index());
  std::vector<const std::vector<seda::store::PathId>*> resolved;
  for (const seda::exec::TermCandidates& term : candidates.terms) {
    resolved.push_back(term.context_restricted ? &term.context_paths
                                               : nullptr);
  }
  response.contexts = context_gen.Generate(query, resolved);
  context_span.End();

  ScopedSpan connection_span(parent, "summary.connection");
  seda::summary::ConnectionSummaryGenerator connection_gen(
      &snapshot.dataguides(), &snapshot.data_graph());
  response.connections = connection_gen.Generate(response.topk);
  connection_span.End();

  const seda::topk::SearchStats& stats = response.stats;
  counts->Add("searches", 1);
  counts->Add("exec.postings_advanced",
              static_cast<double>(candidates.stats.postings_advanced));
  counts->Add("exec.docs_skipped",
              static_cast<double>(candidates.stats.docs_skipped));
  counts->Add("topk.docs_considered", static_cast<double>(stats.docs_considered));
  counts->Add("topk.docs_scored", static_cast<double>(stats.docs_scored));
  counts->Add("topk.tuples_scored", static_cast<double>(stats.tuples_scored));
  counts->Add("topk.heap_evictions", static_cast<double>(stats.heap_evictions));
  counts->Add("graph.bfs_expansions", static_cast<double>(stats.bfs_expansions));
  counts->Add("graph.intersection_probes",
              static_cast<double>(stats.intersection_probes));
  counts->Add("graph.sketch_hits", static_cast<double>(stats.sketch_hits));
  counts->Add("summary.connections",
              static_cast<double>(response.connections.entries.size()));
  counts->Add("summary.false_positives",
              static_cast<double>(response.connections.FalsePositiveCount()));
  return response;
}

namespace {

/// Decodes a request envelope the way SedaService::Handle does.
void DecodeRequest(const std::string& method, const Json& json) {
  using namespace seda::api;
  if (method == "create_session") {
    (void)CreateSessionRequestFromJson(json);
  } else if (method == "close_session") {
    (void)CloseSessionRequestFromJson(json);
  } else if (method == "search") {
    (void)SearchRequestFromJson(json);
  } else if (method == "refine") {
    (void)RefineRequestFromJson(json);
  } else if (method == "complete") {
    (void)CompleteRequestFromJson(json);
  } else if (method == "cube") {
    (void)CubeRequestFromJson(json);
  }
}

}  // namespace

void ReplayApi(const Exchange& exchange, seda::obs::TraceSpan* parent) {
  using namespace seda::api;
  {
    ScopedSpan decode(parent, "api.decode");
    auto json = Json::Parse(exchange.request);
    if (json.ok()) DecodeRequest(exchange.method, json.value());
  }
  // Rebuild the response DTO off the clock, then time its encoding.
  auto json = Json::Parse(exchange.response);
  if (!json.ok()) return;
  const Json& body = json.value();
  const std::string& method = exchange.method;
  if (method == "search" || method == "refine") {
    SearchResponseDto dto = SearchResponseDtoFromJson(body);
    ScopedSpan encode(parent, "api.encode");
    (void)ToJson(dto).Write();
  } else if (method == "complete") {
    CompleteResponseDto dto = CompleteResponseDtoFromJson(body);
    ScopedSpan encode(parent, "api.encode");
    (void)ToJson(dto).Write();
  } else if (method == "cube") {
    CubeResponseDto dto = CubeResponseDtoFromJson(body);
    ScopedSpan encode(parent, "api.encode");
    (void)ToJson(dto).Write();
  } else if (method == "create_session") {
    CreateSessionResponse dto = CreateSessionResponseFromJson(body);
    ScopedSpan encode(parent, "api.encode");
    (void)ToJson(dto).Write();
  } else if (method == "close_session") {
    CloseSessionResponse dto = CloseSessionResponseFromJson(body);
    ScopedSpan encode(parent, "api.encode");
    (void)ToJson(dto).Write();
  }
}

std::string RankingSignature(const std::vector<seda::topk::ScoredTuple>& topk) {
  std::string out;
  char number[64];
  for (const seda::topk::ScoredTuple& tuple : topk) {
    for (const seda::text::NodeMatch& match : tuple.nodes) {
      out += std::to_string(match.node.doc) + ":" +
             match.node.dewey.ToString() + ",";
    }
    std::snprintf(number, sizeof(number), "%.17g/%zu;", tuple.score,
                  tuple.connection_size);
    out += number;
  }
  return out;
}

std::string RankingSignature(const std::vector<seda::api::TupleDto>& topk) {
  std::string out;
  char number[64];
  for (const seda::api::TupleDto& tuple : topk) {
    for (const seda::api::NodeRefDto& node : tuple.nodes) {
      out += std::to_string(node.doc) + ":" + node.dewey + ",";
    }
    std::snprintf(number, sizeof(number), "%.17g/%zu;", tuple.score,
                  static_cast<size_t>(tuple.connection_size));
    out += number;
  }
  return out;
}

double ReplayDrillDown(const seda::core::Snapshot& snapshot,
                       const seda::cube::Catalog& catalog,
                       const TaskTemplate& task,
                       const seda::query::Query& refined,
                       seda::obs::TraceSpan* parent, LayerCounts* counts) {
  std::vector<seda::twig::TermBinding> bindings;
  for (size_t i = 0; i < refined.terms.size(); ++i) {
    bindings.push_back({task.term_paths[i], refined.terms[i].search.get()});
  }
  ScopedSpan complete_span(parent, "twig.complete");
  seda::twig::CompleteResultGenerator generator(&snapshot.index(),
                                                &snapshot.data_graph());
  auto complete = generator.Execute(bindings, {}, {});
  complete_span.End();
  if (!complete.ok()) return -1;
  counts->Add("twig.tuples", static_cast<double>(complete->tuples.size()));
  counts->Add("twig.cross_twig_joins",
              static_cast<double>(complete->cross_twig_joins));

  ScopedSpan cube_span(parent, "cube.build");
  seda::cube::CubeBuilder builder(&snapshot.store(), &catalog,
                                  &snapshot.columns());
  auto schema = builder.Build(complete.value());
  cube_span.End();
  if (!schema.ok() || schema->fact_tables.empty()) return -1;
  counts->Add("column.rows_scanned",
              static_cast<double>(schema->column_rows_scanned));
  counts->Add("column.fallback_docs",
              static_cast<double>(schema->column_fallback_docs));

  ScopedSpan olap_span(parent, "olap.aggregate");
  auto cube = seda::olap::Cube::FromFactTable(schema->fact_tables[0]);
  auto fn = AggFnByName(task.agg_fn);
  if (!cube.ok() || !fn.ok()) return -1;
  auto cuboid = cube->Aggregate(task.group_dims, fn.value(), task.measure);
  return cuboid.ok() ? cuboid->Total() : -1;
}

double ReplayTasks(Serving& serving, seda::net::BlockingClient& client,
                   const std::vector<TaskTemplate>& pool,
                   const std::vector<TaskReference>& references, SpanLog* log,
                   LayerReport* report, RunResult* result) {
  double pass_ms[2] = {0, 0};
  for (int pass = 0; pass < 2; ++pass) {
    SpanLog off(false);
    SpanLog* spans = pass == 0 ? log : &off;
    LayerReport scratch;
    LayerReport* rep = pass == 0 ? report : &scratch;
    Clock::time_point pass_start = Clock::now();
    for (size_t t = 0; t < pool.size(); ++t) {
      const TaskTemplate& task = pool[t];
      const TaskReference& reference = references[t];
      seda::obs::Trace trace = spans->Start("task");
      seda::obs::TraceSpan* root = trace.root();
      Transport net = [&](const std::string& request) {
        ScopedSpan span(root, "net.call");
        return client.Call(request);
      };
      Transport handle = [&](const std::string& request) {
        ScopedSpan span(root, "api.handle");
        return seda::Result<std::string>(serving.service->Handle(request));
      };
      TaskResult wire = RunTask(net, task, true);
      TaskResult local = RunTask(handle, task, true);
      for (const Exchange& exchange : local.exchanges) {
        ReplayApi(exchange, root);
      }
      auto snapshot = serving.seda->snapshot();
      seda::Result<seda::query::Query> query = seda::Status::OK();
      {
        ScopedSpan parse(root, "query.parse");
        query = seda::query::ParseQuery(task.query);
      }
      std::vector<std::vector<std::string>> picks;
      for (const std::string& path : task.term_paths) picks.push_back({path});
      seda::Result<seda::query::Query> refined =
          query.ok() ? seda::core::Snapshot::RefineContexts(query.value(), picks)
                     : query;
      double olap_total = -1;
      if (refined.ok() &&
          ReplaySearch(*snapshot, query.value(), root, &rep->counts).ok() &&
          ReplaySearch(*snapshot, refined.value(), root, &rep->counts).ok()) {
        olap_total = ReplayDrillDown(*snapshot, serving.seda->catalog(), task,
                                     refined.value(), root, &rep->counts);
      }
      spans->Keep(&trace);

      ++result->attempted;
      if (!wire.ok || !local.ok || wire.cell_total != reference.cell_total ||
          local.cell_total != reference.cell_total ||
          olap_total != reference.cell_total) {
        ++result->failed;
        result->Fail("traced task " + task.kind + " differs from reference " +
                     wire.error + local.error);
      }
      double rtt = 0;
      for (const Exchange& exchange : wire.exchanges) {
        rtt += exchange.ms;
        rep->response_bytes += static_cast<double>(exchange.response.size());
        rep->shed += IsShed(exchange.response);
        rep->exchanges += 1;
      }
      rep->ops += 1;
      rep->rtt_ms.push_back(rtt);
      for (const Exchange& exchange : wire.exchanges) {
        if (exchange.method == "search") {
          rep->warm_search_ms.push_back(exchange.ms);
        }
      }
    }
    pass_ms[pass] = Ms(pass_start, Clock::now());
  }
  return pass_ms[0] / pass_ms[1];
}

double ColdConnectionSummaryMs(const seda::core::Snapshot& snapshot,
                               RunResult* result) {
  auto query = seda::query::ParseQuery(Query1Task().query);
  if (!query.ok()) {
    result->Fail("query 1: " + query.status().ToString());
    return 0;
  }
  const seda::topk::TopKOptions& options = snapshot.options().topk;
  seda::exec::CandidateSet candidates = seda::exec::BuildCandidates(
      snapshot.index(), query.value(), options.max_candidates_per_term);
  seda::topk::TopKSearcher searcher(&snapshot.index(), &snapshot.data_graph());
  auto topk = searcher.Search(query.value(), options, candidates);
  if (!topk.ok()) {
    result->Fail("query 1: " + topk.status().ToString());
    return 0;
  }
  seda::summary::ConnectionSummaryGenerator generator(&snapshot.dataguides(),
                                                      &snapshot.data_graph());
  Clock::time_point start = Clock::now();
  (void)generator.Generate(topk.value());
  return Ms(start, Clock::now());
}

double ReplayCommitStages(const seda::core::Snapshot* base,
                          const std::vector<const XmlDoc*>& docs,
                          const seda::core::SedaOptions& options,
                          seda::obs::TraceSpan* parent, LayerReport* report) {
  double stages_ms = 0;
  std::unique_ptr<seda::store::DocumentStore> store =
      base != nullptr ? base->store().Clone()
                      : std::make_unique<seda::store::DocumentStore>();
  const seda::store::DocId base_docs =
      static_cast<seda::store::DocId>(store->DocumentCount());
  for (const XmlDoc* doc : docs) {
    ScopedSpan parse(parent, "xml.parse");
    Clock::time_point start = Clock::now();
    auto parsed = seda::xml::Parser::Parse(doc->text, doc->name);
    double ms = Ms(start, Clock::now());
    parse.End();
    stages_ms += ms;
    report->parse_ms += ms;
    report->parse_bytes += static_cast<double>(doc->text.size());
    if (parsed.ok()) store->AddDocument(std::move(parsed).value());
  }

  auto timed = [&](const char* name, const auto& body) {
    ScopedSpan span(parent, name);
    Clock::time_point start = Clock::now();
    body();
    stages_ms += Ms(start, Clock::now());
  };
  seda::graph::DataGraph graph(store.get());
  timed("graph.resolve", [&] {
    graph.ResolveLinks(options.resolve_idrefs, options.resolve_xlinks, nullptr);
    for (const auto& edge : options.value_edges) {
      graph.AddValueBasedEdges(edge.pk_path, edge.fk_path, edge.label);
    }
  });
  timed("graph.csr_build", [&] { graph.BuildCsr(); });
  std::unique_ptr<seda::text::InvertedIndex> index;
  timed("text.index_extend", [&] {
    index = base != nullptr
                ? std::make_unique<seda::text::InvertedIndex>(
                      base->index(), store.get(), base_docs, nullptr)
                : std::make_unique<seda::text::InvertedIndex>(store.get(),
                                                              nullptr);
  });
  timed("dataguide.extend", [&] {
    seda::dataguide::DataguideCollection::Options guide_options;
    guide_options.overlap_threshold = options.dataguide_overlap_threshold;
    auto guides =
        base != nullptr
            ? seda::dataguide::DataguideCollection::Extend(base->dataguides(),
                                                           *store, guide_options)
            : seda::dataguide::DataguideCollection::Build(*store, guide_options);
    guides.AddLinksFromGraph(graph);
  });
  timed("column.infer",
        [&] { (void)seda::column::ColumnStore::Build(*store, options.columns); });
  return stages_ms;
}

void MeasurePersist(const seda::core::Seda& seda, const std::string& path,
                    SpanLog* log, LayerReport* report, RunResult* result) {
  for (int rep = 0; rep < 3; ++rep) {
    seda::obs::Trace save = log->Start("persist.save");
    seda::Status status = seda.Save(path);
    log->Keep(&save);
    if (!status.ok()) result->Fail("save: " + status.ToString());
  }
  auto image = seda::persist::MappedImage::Open(path);
  if (!image.ok()) {
    result->Fail("reopen for sections: " + image.status().ToString());
  } else {
    using seda::persist::SectionId;
    auto layer_of = [](uint32_t id) -> const char* {
      switch (static_cast<SectionId>(id)) {
        case SectionId::kStorePaths:
        case SectionId::kStoreDocs:
          return "store";
        case SectionId::kIndexTerms:
        case SectionId::kIndexPaths:
          return "index";
        case SectionId::kGraphEdges:
          return "graph";
        case SectionId::kGraphCsr:
          return "csr";
        case SectionId::kColumns:
          return "columns";
        case SectionId::kDataguides:
          return "dataguides";
        default:
          return nullptr;
      }
    };
    for (const char* layer :
         {"store", "index", "graph", "csr", "columns", "dataguides"}) {
      report->section_bytes[layer] = 0;
    }
    for (const auto& section : image.value()->sections()) {
      if (const char* layer = layer_of(section.id)) {
        report->section_bytes[layer] += static_cast<double>(section.size);
      }
    }
  }
  std::remove(path.c_str());
}

void EmitLayerMetrics(const SpanLog& log, const LayerReport& report,
                      RunResult* result) {
  const auto self = log.SelfMsPerOp();
  std::vector<double> transport_self, handle_self;
  for (const auto& op : log.SelfMsByOp()) {
    auto handled = op.find("api.handle");
    if (handled == op.end()) continue;
    auto sum_of = [&](const char* span) {
      auto it = op.find(span);
      return it == op.end() ? 0.0 : it->second;
    };
    transport_self.push_back(sum_of("net.call") - handled->second);
    double layers = 0;
    for (const char* span :
         {"api.decode", "api.encode", "query.parse", "exec.candidates",
          "topk.scan", "summary.context", "summary.connection",
          "twig.complete", "cube.build", "olap.aggregate"}) {
      layers += sum_of(span);
    }
    handle_self.push_back(handled->second - layers);
  }
  auto span_median = [&](const char* span) {
    auto it = self.find(span);
    return it == self.end() ? 0.0 : Median(it->second);
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const LayerCounts& c = report.counts;
  const double searches = c.Get("searches");
  const double ops = report.ops;

  result->Set("net.rtt_ms", Median(report.rtt_ms), "ms");
  result->Set("net.transport_self_ms", Median(transport_self), "ms");
  result->Set("net.response_bytes", ratio(report.response_bytes, ops), "bytes");
  result->Set("net.shed_ratio", ratio(report.shed, report.exchanges), "ratio");
  result->Set("api.decode_ms", span_median("api.decode"), "ms");
  result->Set("api.encode_ms", span_median("api.encode"), "ms");
  result->Set("api.handle_self_ms", Median(handle_self), "ms");
  result->Set("core.commit_ms", Median(report.commit_ms), "ms");
  result->Set("core.commit_unattributed_ms",
              Median(report.commit_unattributed_ms), "ms");
  result->Set("core.read_slowdown_during_commit",
              ratio(Median(report.read_during_commit_ms),
                    Median(report.read_idle_ms)),
              "ratio");
  result->Set("query.parse_ms", span_median("query.parse"), "ms");
  result->Set("exec.candidates_ms", span_median("exec.candidates"), "ms");
  result->Set("exec.postings_advanced",
              ratio(c.Get("exec.postings_advanced"), searches), "count");
  result->Set("exec.docs_skipped", ratio(c.Get("exec.docs_skipped"), searches),
              "count");
  result->Set("topk.scan_ms", span_median("topk.scan"), "ms");
  result->Set("topk.docs_scored", ratio(c.Get("topk.docs_scored"), searches),
              "count");
  result->Set("topk.tuples_scored", ratio(c.Get("topk.tuples_scored"), searches),
              "count");
  result->Set("topk.heap_evictions",
              ratio(c.Get("topk.heap_evictions"), searches), "count");
  result->Set("topk.scored_ratio",
              ratio(c.Get("topk.docs_scored"), c.Get("topk.docs_considered")),
              "ratio");
  result->Set("graph.bfs_expansions",
              ratio(c.Get("graph.bfs_expansions"), searches), "count");
  result->Set("graph.intersection_probes",
              ratio(c.Get("graph.intersection_probes"), searches), "count");
  result->Set("graph.sketch_hit_ratio",
              ratio(c.Get("graph.sketch_hits"), c.Get("topk.tuples_scored")),
              "ratio");
  result->Set("graph.resolve_ms", span_median("graph.resolve"), "ms");
  result->Set("graph.csr_build_ms", span_median("graph.csr_build"), "ms");
  result->Set("summary.context_ms", span_median("summary.context"), "ms");
  result->Set("summary.connection_ms", span_median("summary.connection"), "ms");
  result->Set("summary.connection_first_ms", Median(report.connection_first_ms),
              "ms");
  result->Set("summary.false_positive_ratio",
              ratio(c.Get("summary.false_positives"),
                    c.Get("summary.connections")),
              "ratio");
  result->Set("dataguide.extend_ms", span_median("dataguide.extend"), "ms");
  result->Set("dataguide.count", report.dataguides, "count");
  result->Set("twig.complete_ms", span_median("twig.complete"), "ms");
  result->Set("twig.tuples", ratio(c.Get("twig.tuples"), ops), "count");
  result->Set("twig.cross_twig_joins", ratio(c.Get("twig.cross_twig_joins"), ops),
              "count");
  result->Set("column.infer_ms", span_median("column.infer"), "ms");
  result->Set("column.rows_scanned", ratio(c.Get("column.rows_scanned"), ops),
              "count");
  result->Set("column.fallback_ratio",
              ratio(c.Get("column.fallback_docs"), c.Get("twig.tuples")),
              "ratio");
  result->Set("cube.build_ms", span_median("cube.build"), "ms");
  result->Set("olap.aggregate_ms", span_median("olap.aggregate"), "ms");
  result->Set("text.first_touch_search_p50_ms",
              Median(report.first_touch_search_ms), "ms");
  result->Set("text.warm_search_p50_ms", Median(report.warm_search_ms), "ms");
  result->Set("text.index_extend_ms", span_median("text.index_extend"), "ms");
  result->Set("xml.parse_mb_per_s",
              report.parse_ms > 0
                  ? report.parse_bytes / 1e6 / (report.parse_ms / 1000.0)
                  : 0.0,
              "MB/s");
  result->Set("persist.save_ms", span_median("persist.save"), "ms");
  for (const auto& [layer, bytes] : report.section_bytes) {
    result->Set("persist.section_bytes." + layer, bytes, "bytes");
  }
  result->Set("bench.late_p99_ms", Percentile(report.late_ms, 0.99), "ms");
  result->Set("wall.op_p50_ms", Percentile(report.op_wall_ms, 0.50), "ms");
  result->Set("wall.op_tail_ms", Percentile(report.op_wall_ms, 0.90), "ms");
  result->Set("bench.trace_overhead_ratio", report.trace_overhead_ratio,
              "ratio");
  result->Set("proc.cpu_ms_per_op", report.cpu_ms_per_op, "ms");
}

void DumpSpans(const SpanLog& log, const std::string& workload,
               const RunConfig& config) {
  const std::string path = config.work_dir + "/spans-" + workload + "-" +
                           std::to_string(config.seed) + ".jsonl";
  if (!log.Write(path)) {
    std::fprintf(stderr, "could not write %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "%zu span trees written to %s\n", log.size(),
                 path.c_str());
  }
}

void FinishFirstCommitTrace(const std::vector<XmlDoc>& docs,
                            const seda::core::Seda& seda,
                            const std::string& image,
                            const std::string& workload,
                            const RunConfig& config, SpanLog* log,
                            LayerReport* report, RunResult* result) {
  std::vector<const XmlDoc*> all;
  for (const XmlDoc& doc : docs) all.push_back(&doc);
  // Stages, then the real first commit of the same documents right after,
  // twice; only the second round counts, so neither side pays for first
  // touching the heap the other then reuses.
  for (int round = 0; round < 2; ++round) {
    SpanLog off(false);
    LayerReport scratch;
    SpanLog* spans = round == 1 ? log : &off;
    LayerReport* rep = round == 1 ? report : &scratch;
    seda::obs::Trace trace = spans->Start("commit");
    const double stages_ms =
        ReplayCommitStages(nullptr, all, BenchOptions(), trace.root(), rep);
    seda::core::Seda rebuilt;
    for (const XmlDoc& doc : docs) (void)rebuilt.AddXml(doc.text, doc.name);
    ScopedSpan finalize(trace.root(), "core.commit");
    Clock::time_point start = Clock::now();
    seda::Status status = rebuilt.Finalize(BenchOptions());
    const double commit_ms = Ms(start, Clock::now());
    finalize.End();
    spans->Keep(&trace);
    ++result->attempted;
    if (!status.ok()) {
      ++result->failed;
      result->Fail("finalize: " + status.ToString());
    }
    rep->commit_ms.push_back(commit_ms);
    rep->commit_unattributed_ms.push_back(commit_ms - stages_ms);
  }
  report->dataguides =
      static_cast<double>(seda.snapshot()->dataguides().size());
  seda::core::Seda fresh;
  seda::Status status = fresh.Open(image);
  if (status.ok()) {
    report->connection_first_ms.push_back(
        ColdConnectionSummaryMs(*fresh.snapshot(), result));
  } else {
    result->Fail("reopen: " + status.ToString());
  }
  MeasurePersist(seda, config.work_dir + "/" + workload + "-save.img", log,
                 report, result);
  EmitLayerMetrics(*log, *report, result);
  DumpSpans(*log, workload, config);
}

}  // namespace sedabench
