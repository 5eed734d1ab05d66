#include "api/service.h"

#include <algorithm>

#include "api/wire.h"

namespace seda::api {

namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Layers a request's overrides (top-k, deadline) and its trace over the
/// snapshot's configured engine options.
topk::TopKOptions RequestTopKOptions(const core::Snapshot& snapshot, uint64_t k,
                                     uint64_t deadline_ms,
                                     obs::TraceSpan* trace) {
  topk::TopKOptions options = snapshot.options().topk;
  if (k > 0) options.k = static_cast<size_t>(k);
  options.deadline_ms = deadline_ms;
  options.trace = trace;
  return options;
}

/// statz latency histogram bounds (upper bound per bucket, ms); one overflow
/// bucket rides at the end, so there are kLatencyBucketCount+1 counters.
constexpr double kLatencyBoundsMs[] = {0.25, 0.5,  1,    2,    5,    10,
                                       25,   50,   100,  250,  500,  1000,
                                       2500, 5000, 10000};
constexpr size_t kLatencyBucketCount =
    sizeof(kLatencyBoundsMs) / sizeof(*kLatencyBoundsMs);

const char* MethodName(size_t method) {
  static constexpr const char* kNames[] = {
      "create_session", "close_session", "search",  "refine", "complete",
      "cube",           "statz",         "metricz", "slowlog"};
  return kNames[method];
}

/// Cumulative engine counters (seda_engine_*_total): one row per counter of
/// topk/engine_counters.h, in list order, carrying the StatsDto field it is
/// read from. The early_terminated flag has no metric and no row.
struct EngineCounterSpec {
  const char* name;
  const char* help;
  uint64_t StatsDto::*field;
};
#define SEDA_COUNTER_ROW_Count(field, metric, help) \
  {metric, help, &StatsDto::field},
#define SEDA_COUNTER_ROW_Flag(field, metric, help)
#define SEDA_COUNTER_ROW(field, type, metric, help) \
  SEDA_COUNTER_ROW_##type(field, metric, help)
constexpr EngineCounterSpec kEngineCounters[] = {
    SEDA_ENGINE_COUNTERS(SEDA_COUNTER_ROW)};
#undef SEDA_COUNTER_ROW
#undef SEDA_COUNTER_ROW_Flag
#undef SEDA_COUNTER_ROW_Count
constexpr size_t kEngineCounterCount = std::size(kEngineCounters);

uint64_t NowUnixMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

StatsDto MakeStats(const topk::SearchStats& stats, double elapsed_ms,
                   uint64_t deadline_ms) {
  StatsDto dto;
  dto.epoch = stats.epoch;
  dto.elapsed_ms = elapsed_ms;
  dto.deadline_ms = deadline_ms;
  dto.deadline_exceeded = stats.deadline_exceeded;
#define SEDA_COPY_COUNTER(field, type, metric, help) dto.field = stats.field;
  SEDA_ENGINE_COUNTERS(SEDA_COPY_COUNTER)
#undef SEDA_COPY_COUNTER
  return dto;
}

/// Service-side stats for requests that have no engine scan (complete/cube):
/// epoch + elapsed + after-the-fact deadline overrun flag.
StatsDto MakeServiceStats(uint64_t epoch, double elapsed_ms,
                          uint64_t deadline_ms) {
  StatsDto dto;
  dto.epoch = epoch;
  dto.elapsed_ms = elapsed_ms;
  dto.deadline_ms = deadline_ms;
  dto.deadline_exceeded =
      deadline_ms > 0 && elapsed_ms >= static_cast<double>(deadline_ms);
  return dto;
}

NodeRefDto MakeNodeRef(const store::NodeId& node, store::PathId path,
                       const store::DocumentStore& store, bool with_content) {
  NodeRefDto dto;
  dto.doc = node.doc;
  dto.dewey = node.dewey.ToString();
  if (path != store::kInvalidPathId) dto.path = store.paths().PathString(path);
  if (with_content) dto.content = store.GetContent(node);
  return dto;
}

const char* MoveName(dataguide::Connection::Move move) {
  switch (move) {
    case dataguide::Connection::Move::kUp: return "up";
    case dataguide::Connection::Move::kDown: return "down";
    case dataguide::Connection::Move::kLink: return "link";
  }
  return "up";
}

/// Projects a core::SearchResponse onto the wire DTO: nodes become stable
/// (doc, Dewey, path) references, connection entries keep their summary
/// order — their position IS the connection index Complete refers to.
SearchResponseDto MakeSearchResponse(const core::SearchResponse& response,
                                     const store::DocumentStore& store) {
  SearchResponseDto dto;
  dto.topk.reserve(response.topk.size());
  for (const topk::ScoredTuple& tuple : response.topk) {
    TupleDto tuple_dto;
    tuple_dto.nodes.reserve(tuple.nodes.size());
    for (const text::NodeMatch& match : tuple.nodes) {
      tuple_dto.nodes.push_back(
          MakeNodeRef(match.node, match.path, store, /*with_content=*/true));
    }
    tuple_dto.content_score = tuple.content_score;
    tuple_dto.connection_size = tuple.connection_size;
    tuple_dto.score = tuple.score;
    dto.topk.push_back(std::move(tuple_dto));
  }
  dto.contexts.reserve(response.contexts.buckets.size());
  for (const summary::ContextBucket& bucket : response.contexts.buckets) {
    ContextBucketDto bucket_dto;
    bucket_dto.term = bucket.term_text;
    bucket_dto.entries.reserve(bucket.entries.size());
    for (const summary::ContextEntry& entry : bucket.entries) {
      ContextEntryDto entry_dto;
      entry_dto.path = entry.path_text;
      entry_dto.doc_count = entry.doc_count;
      entry_dto.node_count = entry.node_count;
      bucket_dto.entries.push_back(std::move(entry_dto));
    }
    dto.contexts.push_back(std::move(bucket_dto));
  }
  dto.connections.reserve(response.connections.entries.size());
  for (const summary::ConnectionEntry& entry : response.connections.entries) {
    ConnectionDto conn;
    conn.term_a = entry.term_a;
    conn.term_b = entry.term_b;
    conn.from_path = entry.connection.from_path;
    conn.to_path = entry.connection.to_path;
    conn.steps.reserve(entry.connection.steps.size());
    for (const dataguide::Connection::Step& step : entry.connection.steps) {
      ConnectionStepDto step_dto;
      step_dto.move = MoveName(step.move);
      step_dto.path = step.path;
      step_dto.label = step.label;
      conn.steps.push_back(std::move(step_dto));
    }
    conn.instance_count = entry.instance_count;
    conn.false_positive = entry.false_positive;
    dto.connections.push_back(std::move(conn));
  }
  return dto;
}

TableDto MakeTable(const cube::Table& table) {
  TableDto dto;
  dto.name = table.name;
  dto.columns = table.columns;
  dto.key_columns.reserve(table.key_columns.size());
  for (size_t column : table.key_columns) dto.key_columns.push_back(column);
  dto.rows = table.rows;
  return dto;
}

Result<olap::AggFn> ParseAggFn(const std::string& name) {
  if (name == "sum") return olap::AggFn::kSum;
  if (name == "count") return olap::AggFn::kCount;
  if (name == "avg") return olap::AggFn::kAvg;
  if (name == "min") return olap::AggFn::kMin;
  if (name == "max") return olap::AggFn::kMax;
  return Status::InvalidArgument("unknown agg_fn '" + name +
                                 "'; expected sum|count|avg|min|max");
}

}  // namespace

SedaService::SedaService(const core::Seda* seda, ServiceOptions options)
    : seda_(seda), options_(std::move(options)), slowlog_(options_.slowlog) {
  const std::vector<double> bounds(kLatencyBoundsMs,
                                   kLatencyBoundsMs + kLatencyBucketCount);
  for (size_t method = 0; method < kMethodCount; ++method) {
    const obs::LabelSet labels = {{"method", MethodName(method)}};
    MethodSeries& series = method_series_[method];
    series.count = registry_.AddCounter(
        "seda_requests_total", "Requests handled, by envelope method.", labels);
    series.errors = registry_.AddCounter(
        "seda_request_errors_total",
        "Requests that returned a non-OK status.", labels);
    series.deadline_exceeded = registry_.AddCounter(
        "seda_request_deadline_exceeded_total",
        "Responses flagged as partial by a deadline overrun.", labels);
    series.latency_ms = registry_.AddHistogram(
        "seda_request_latency_ms",
        "Request wall-clock latency in milliseconds.", bounds, labels);
    slow_threshold_ms_[method] =
        options_.slowlog.ThresholdFor(MethodName(method));
  }
  engine_counters_.reserve(kEngineCounterCount);
  for (const EngineCounterSpec& spec : kEngineCounters) {
    engine_counters_.push_back(registry_.AddCounter(spec.name, spec.help));
  }
  registry_.AddGauge("seda_sessions", "Live (non-evicted) sessions.", {},
                     [this] { return static_cast<double>(SessionCount()); });
  registry_.AddCallbackCounter("seda_sessions_created_total",
                               "Sessions ever created.", {}, [this] {
                                 std::lock_guard<std::mutex> lock(registry_mu_);
                                 return sessions_created_;
                               });
  registry_.AddCallbackCounter(
      "seda_sessions_evicted_total",
      "Sessions evicted by TTL expiry or LRU pressure.", {}, [this] {
        std::lock_guard<std::mutex> lock(registry_mu_);
        return sessions_evicted_;
      });
  registry_.AddGauge("seda_epoch", "Currently served snapshot epoch.", {},
                     [this] {
                       const auto snapshot = seda_->snapshot();
                       return snapshot != nullptr
                                  ? static_cast<double>(snapshot->epoch())
                                  : 0.0;
                     });
  registry_.AddGauge("seda_uptime_ms",
                     "Milliseconds since service construction.", {},
                     [this] { return ElapsedMs(start_time_); });
  registry_.AddCallbackCounter(
      "seda_slowlog_entries_total",
      "Requests ever captured by the slow-query log.", {},
      [this] { return slowlog_.TotalLogged(); });
}

size_t SedaService::SessionCount() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return sessions_.size();
}

void SedaService::SweepExpiredLocked(Clock::time_point now) {
  last_sweep_ = now;
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    const SessionEntry& entry = *it->second;
    if (entry.ttl_ms > 0 &&
        now - entry.last_used >= std::chrono::milliseconds(entry.ttl_ms)) {
      it = sessions_.erase(it);  // in-flight requests keep the shared_ptr
      ++sessions_evicted_;
    } else {
      ++it;
    }
  }
}

void SedaService::EvictLruForInsertLocked() {
  while (options_.max_sessions > 0 && sessions_.size() >= options_.max_sessions) {
    auto oldest = sessions_.begin();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->second->last_used < oldest->second->last_used) oldest = it;
    }
    sessions_.erase(oldest);
    ++sessions_evicted_;
  }
}

CreateSessionResponse SedaService::DoCreateSession(
    const CreateSessionRequest& request) {
  CreateSessionResponse response;
  auto session = seda_->NewSession();
  if (!session.ok()) {
    response.status = WireStatus::FromStatus(session.status());
    return response;
  }
  const Clock::time_point now = Clock::now();

  std::lock_guard<std::mutex> lock(registry_mu_);
  // Expired sessions are fair game for any request (that is the TTL
  // contract), but the duplicate-id check must come BEFORE any LRU
  // eviction: a create that fails with AlreadyExists must not have cost a
  // live session its slot — least of all the very session it collided with.
  SweepExpiredLocked(now);
  std::string id = request.session_id;
  if (id.empty()) {
    do {
      id = "s" + std::to_string(next_session_number_++);
    } while (sessions_.count(id) > 0);
  } else if (sessions_.count(id) > 0) {
    response.status = WireStatus::FromStatus(
        Status::AlreadyExists("session '" + id + "' already exists"));
    return response;
  }
  EvictLruForInsertLocked();
  auto entry =
      std::make_shared<SessionEntry>(id, std::move(session).value());
  entry->ttl_ms = request.ttl_ms > 0 ? request.ttl_ms : options_.session_ttl_ms;
  entry->last_used = now;
  response.epoch = entry->session.epoch();
  sessions_.emplace(id, std::move(entry));
  ++sessions_created_;
  response.session_id = std::move(id);
  return response;
}

CloseSessionResponse SedaService::DoCloseSession(
    const CloseSessionRequest& request) {
  CloseSessionResponse response;
  std::lock_guard<std::mutex> lock(registry_mu_);
  if (sessions_.erase(request.session_id) == 0) {
    response.status = WireStatus::FromStatus(Status::NotFound(
        "unknown or expired session '" + request.session_id + "'"));
  }
  return response;
}

Result<std::shared_ptr<SedaService::SessionEntry>> SedaService::FindSession(
    const std::string& id) {
  if (id.empty()) {
    return Status::InvalidArgument(
        "this request is stateful and requires a session_id; call "
        "create_session first");
  }
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(registry_mu_);
  // Periodic full sweep so idle-expired sessions release their pinned
  // epochs even when no CreateSession ever runs again; rate-limited to keep
  // the lookup hot path O(1).
  if (now - last_sweep_ >= std::chrono::seconds(1)) SweepExpiredLocked(now);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::NotFound("unknown or expired session '" + id + "'");
  }
  SessionEntry& entry = *it->second;
  if (entry.ttl_ms > 0 &&
      now - entry.last_used >= std::chrono::milliseconds(entry.ttl_ms)) {
    sessions_.erase(it);
    ++sessions_evicted_;
    return Status::NotFound("session '" + id + "' expired");
  }
  entry.last_used = now;
  return it->second;
}

SearchResponseDto SedaService::DoSearch(const SearchRequest& request,
                                        obs::TraceSpan* root) {
  const Clock::time_point start = Clock::now();
  const uint64_t deadline_ms = EffectiveDeadline(request.deadline_ms);
  SearchResponseDto response;

  // One-shot path: an empty session id pins the current epoch for exactly
  // this request.
  if (request.session_id.empty()) {
    auto session = seda_->NewSession();
    if (!session.ok()) {
      response.status = WireStatus::FromStatus(session.status());
      return response;
    }
    auto result = session->Search(
        request.query,
        RequestTopKOptions(session->snapshot(), request.k, deadline_ms, root));
    if (!result.ok()) {
      response.status = WireStatus::FromStatus(result.status());
      return response;
    }
    response = MakeSearchResponse(result.value(), session->snapshot().store());
    response.stats =
        MakeStats(result.value().stats, ElapsedMs(start), deadline_ms);
    return response;
  }

  auto entry = FindSession(request.session_id);
  if (!entry.ok()) {
    response.status = WireStatus::FromStatus(entry.status());
    return response;
  }
  SessionEntry& state = *entry.value();
  std::lock_guard<std::mutex> lock(state.mu);
  auto result = state.session.Search(
      request.query,
      RequestTopKOptions(state.session.snapshot(), request.k, deadline_ms,
                         root));
  if (!result.ok()) {
    response.status = WireStatus::FromStatus(result.status());
    return response;
  }
  state.last_complete.reset();  // new query round invalidates the old R(q)
  response = MakeSearchResponse(result.value(), state.session.snapshot().store());
  response.stats = MakeStats(result.value().stats, ElapsedMs(start), deadline_ms);
  return response;
}

SearchResponseDto SedaService::DoRefine(const RefineRequest& request,
                                        obs::TraceSpan* root) {
  const Clock::time_point start = Clock::now();
  const uint64_t deadline_ms = EffectiveDeadline(request.deadline_ms);
  SearchResponseDto response;
  auto entry = FindSession(request.session_id);
  if (!entry.ok()) {
    response.status = WireStatus::FromStatus(entry.status());
    return response;
  }
  SessionEntry& state = *entry.value();
  std::lock_guard<std::mutex> lock(state.mu);
  auto result = state.session.RefineContexts(
      request.chosen_paths,
      RequestTopKOptions(state.session.snapshot(), request.k, deadline_ms,
                         root));
  if (!result.ok()) {
    response.status = WireStatus::FromStatus(result.status());
    return response;
  }
  state.last_complete.reset();
  response = MakeSearchResponse(result.value(), state.session.snapshot().store());
  response.stats = MakeStats(result.value().stats, ElapsedMs(start), deadline_ms);
  return response;
}

CompleteResponseDto SedaService::DoComplete(const CompleteRequest& request,
                                            obs::TraceSpan* root) {
  const Clock::time_point start = Clock::now();
  const uint64_t deadline_ms = EffectiveDeadline(request.deadline_ms);
  CompleteResponseDto response;
  auto entry = FindSession(request.session_id);
  if (!entry.ok()) {
    response.status = WireStatus::FromStatus(entry.status());
    return response;
  }
  SessionEntry& state = *entry.value();
  std::lock_guard<std::mutex> lock(state.mu);

  // Resolve connection indices against the session's last search round —
  // the wire format references connections by their position in that
  // response's connection list.
  std::vector<twig::ChosenConnection> connections;
  connections.reserve(request.connections.size());
  const core::SearchResponse* last = state.session.last_response();
  for (uint64_t index : request.connections) {
    if (last == nullptr) {
      response.status = WireStatus::FromStatus(Status::FailedPrecondition(
          "connection indices refer to the last search response, but this "
          "session has not searched yet"));
      return response;
    }
    if (index >= last->connections.entries.size()) {
      response.status = WireStatus::FromStatus(Status::OutOfRange(
          "connection index " + std::to_string(index) +
          " out of range: the last search response has " +
          std::to_string(last->connections.entries.size()) + " connection(s)"));
      return response;
    }
    const summary::ConnectionEntry& chosen = last->connections.entries[index];
    auto executable = twig::ChosenConnection::FromDataguideConnection(
        chosen.term_a, chosen.term_b, chosen.connection);
    if (!executable.ok()) {
      response.status = WireStatus::FromStatus(executable.status());
      return response;
    }
    connections.push_back(std::move(executable).value());
  }

  twig::ExecuteOptions exec_options;
  exec_options.deadline_ms = deadline_ms;
  exec_options.trace = root;
  auto result = state.session.CompleteResults(request.term_paths, connections,
                                              exec_options);
  if (!result.ok()) {
    response.status = WireStatus::FromStatus(result.status());
    return response;
  }
  const store::DocumentStore& store = state.session.snapshot().store();
  response.tuples.reserve(result.value().tuples.size());
  for (const twig::ResultTuple& tuple : result.value().tuples) {
    std::vector<NodeRefDto> row;
    row.reserve(tuple.nodes.size());
    for (size_t i = 0; i < tuple.nodes.size(); ++i) {
      row.push_back(MakeNodeRef(tuple.nodes[i], tuple.paths[i], store,
                                /*with_content=*/false));
    }
    response.tuples.push_back(std::move(row));
  }
  response.twig_count = result.value().twig_count;
  response.cross_twig_joins = result.value().cross_twig_joins;
  const bool engine_deadline = result.value().deadline_exceeded;
  state.last_complete = std::move(result).value();
  response.stats = MakeServiceStats(state.session.epoch(), ElapsedMs(start),
                                    deadline_ms);
  // The cooperative in-join check may fire before the after-the-fact
  // elapsed-time comparison does; either signal means truncation.
  response.stats.deadline_exceeded |= engine_deadline;
  return response;
}

CubeResponseDto SedaService::DoCube(const CubeRequest& request,
                                    obs::TraceSpan* root) {
  const Clock::time_point start = Clock::now();
  const uint64_t deadline_ms = EffectiveDeadline(request.deadline_ms);
  CubeResponseDto response;
  auto entry = FindSession(request.session_id);
  if (!entry.ok()) {
    response.status = WireStatus::FromStatus(entry.status());
    return response;
  }
  SessionEntry& state = *entry.value();
  std::lock_guard<std::mutex> lock(state.mu);
  if (!state.last_complete.has_value()) {
    response.status = WireStatus::FromStatus(Status::FailedPrecondition(
        "no complete result in this session; call complete before cube"));
    return response;
  }

  cube::CubeBuilder::Options options;
  options.trace = root;
  options.add_facts = request.add_facts;
  options.remove_facts = request.remove_facts;
  options.add_dimensions = request.add_dimensions;
  options.remove_dimensions = request.remove_dimensions;
  options.merge_fact_tables = request.merge_fact_tables;
  auto schema = state.session.BuildCube(*state.last_complete, options);
  if (!schema.ok()) {
    response.status = WireStatus::FromStatus(schema.status());
    return response;
  }
  for (const cube::Table& table : schema.value().fact_tables) {
    response.fact_tables.push_back(MakeTable(table));
  }
  for (const cube::Table& table : schema.value().dimension_tables) {
    response.dimension_tables.push_back(MakeTable(table));
  }
  response.warnings = schema.value().warnings;

  if (!request.measure.empty()) {
    auto agg_fn = ParseAggFn(request.agg_fn);
    if (!agg_fn.ok()) {
      response.status = WireStatus::FromStatus(agg_fn.status());
      return response;
    }
    auto cube = state.session.ToOlapCube(schema.value());
    if (!cube.ok()) {
      response.status = WireStatus::FromStatus(cube.status());
      return response;
    }
    auto cuboid =
        cube.value().Aggregate(request.group_dims, agg_fn.value(), request.measure);
    if (!cuboid.ok()) {
      response.status = WireStatus::FromStatus(cuboid.status());
      return response;
    }
    response.cells.reserve(cuboid.value().cells.size());
    for (const olap::Cell& cell : cuboid.value().cells) {
      CellDto dto;
      dto.group = cell.group;
      dto.value = cell.value;
      dto.count = cell.count;
      response.cells.push_back(std::move(dto));
    }
    response.cell_total = cuboid.value().Total();
  }
  response.stats = MakeServiceStats(state.session.epoch(), ElapsedMs(start),
                                    deadline_ms);
  response.stats.column_rows_scanned = schema.value().column_rows_scanned;
  response.stats.column_fallback_docs = schema.value().column_fallback_docs;
  return response;
}

// --- Tracing + metric-recording wrappers -------------------------------

obs::Trace SedaService::StartTrace(Method method) const {
  return options_.tracing ? obs::Trace(MethodName(method)) : obs::Trace();
}

void SedaService::FinishRequest(Method method, double elapsed_ms,
                                const WireStatus& status, const StatsDto* stats,
                                obs::Trace trace, bool trace_requested,
                                obs::SpanNode* trace_out,
                                const std::string& session_id,
                                const std::string& detail) {
  // Request accounting: every update is a relaxed atomic on a series
  // registered at construction — no lock, no contention across methods.
  MethodSeries& series = method_series_[method];
  series.count->Inc();
  if (!status.ok()) series.errors->Inc();
  series.latency_ms->Observe(elapsed_ms);
  if (stats != nullptr) {
    if (stats->deadline_exceeded) series.deadline_exceeded->Inc();
    for (size_t i = 0; i < kEngineCounterCount; ++i) {
      const uint64_t value = stats->*kEngineCounters[i].field;
      if (value > 0) engine_counters_[i]->Inc(value);
    }
  }

  // Keep the trace? Ship it back when the envelope asked; retain it in the
  // slow log when the method's threshold fired or the sampling knob picked
  // this request. The common case (none of the three) detaches nothing.
  const uint64_t threshold_ms = slow_threshold_ms_[method];
  const bool slow =
      threshold_ms > 0 && elapsed_ms >= static_cast<double>(threshold_ms);
  bool sampled = false;
  if (options_.trace_sample_every_n > 0) {
    const uint64_t n =
        sample_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
    sampled = n % options_.trace_sample_every_n == 0;
  }
  if (!trace_requested && !slow && !sampled) return;
  obs::SpanNode tree = trace.Detach();
  if (trace_requested && trace_out != nullptr) *trace_out = tree;
  if (!slow && !sampled) return;
  obs::SlowLogEntry entry;
  entry.unix_ms = NowUnixMs();
  entry.method = MethodName(method);
  entry.session_id = session_id;
  entry.detail = detail;
  entry.elapsed_ms = elapsed_ms;
  entry.threshold_ms = threshold_ms;
  entry.status_code = status.code;
  entry.deadline_exceeded = stats != nullptr && stats->deadline_exceeded;
  entry.sampled = sampled && !slow;
  entry.trace = std::move(tree);
  slowlog_.Add(std::move(entry));
}

CreateSessionResponse SedaService::CreateSession(
    const CreateSessionRequest& request) {
  const Clock::time_point start = Clock::now();
  obs::Trace trace = StartTrace(kCreateSession);
  CreateSessionResponse response = DoCreateSession(request);
  FinishRequest(kCreateSession, ElapsedMs(start), response.status, nullptr,
                std::move(trace), /*trace_requested=*/false, nullptr,
                request.session_id, /*detail=*/"");
  return response;
}

CloseSessionResponse SedaService::CloseSession(
    const CloseSessionRequest& request) {
  const Clock::time_point start = Clock::now();
  obs::Trace trace = StartTrace(kCloseSession);
  CloseSessionResponse response = DoCloseSession(request);
  FinishRequest(kCloseSession, ElapsedMs(start), response.status, nullptr,
                std::move(trace), /*trace_requested=*/false, nullptr,
                request.session_id, /*detail=*/"");
  return response;
}

SearchResponseDto SedaService::Search(const SearchRequest& request) {
  const Clock::time_point start = Clock::now();
  obs::Trace trace = StartTrace(kSearch);
  SearchResponseDto response = DoSearch(request, trace.root());
  FinishRequest(kSearch, ElapsedMs(start), response.status, &response.stats,
                std::move(trace), request.trace, &response.trace,
                request.session_id, request.query);
  return response;
}

SearchResponseDto SedaService::Refine(const RefineRequest& request) {
  const Clock::time_point start = Clock::now();
  obs::Trace trace = StartTrace(kRefine);
  SearchResponseDto response = DoRefine(request, trace.root());
  FinishRequest(kRefine, ElapsedMs(start), response.status, &response.stats,
                std::move(trace), request.trace, &response.trace,
                request.session_id,
                std::to_string(request.chosen_paths.size()) +
                    " context pick list(s)");
  return response;
}

CompleteResponseDto SedaService::Complete(const CompleteRequest& request) {
  const Clock::time_point start = Clock::now();
  obs::Trace trace = StartTrace(kComplete);
  CompleteResponseDto response = DoComplete(request, trace.root());
  std::string detail;
  for (const std::string& path : request.term_paths) {
    if (!detail.empty()) detail += ", ";
    detail += path;
  }
  FinishRequest(kComplete, ElapsedMs(start), response.status, &response.stats,
                std::move(trace), request.trace, &response.trace,
                request.session_id, detail);
  return response;
}

CubeResponseDto SedaService::Cube(const CubeRequest& request) {
  const Clock::time_point start = Clock::now();
  obs::Trace trace = StartTrace(kCube);
  CubeResponseDto response = DoCube(request, trace.root());
  FinishRequest(kCube, ElapsedMs(start), response.status, &response.stats,
                std::move(trace), request.trace, &response.trace,
                request.session_id,
                request.measure.empty() ? std::string("star schema")
                                        : request.agg_fn + "(" +
                                              request.measure + ")");
  return response;
}

StatzResponse SedaService::Statz(const StatzRequest&) {
  const Clock::time_point start = Clock::now();
  obs::Trace trace = StartTrace(kStatz);
  StatzResponse response;
  const std::shared_ptr<const core::Snapshot> snapshot = seda_->snapshot();
  response.epoch = snapshot != nullptr ? snapshot->epoch() : 0;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    response.sessions = sessions_.size();
    response.sessions_created = sessions_created_;
    response.sessions_evicted = sessions_evicted_;
  }
  response.uptime_ms = ElapsedMs(start_time_);
  response.bucket_bounds_ms.assign(kLatencyBoundsMs,
                                   kLatencyBoundsMs + kLatencyBucketCount);
  // The statz JSON is a projection of the metrics registry: the same series
  // the Prometheus exposition renders, so the two surfaces cannot disagree.
  response.methods.reserve(kMethodCount);
  for (size_t method = 0; method < kMethodCount; ++method) {
    const MethodSeries& series = method_series_[method];
    MethodStatsDto dto;
    dto.method = MethodName(method);
    dto.count = series.count->Value();
    dto.errors = series.errors->Value();
    dto.deadline_exceeded = series.deadline_exceeded->Value();
    dto.total_ms = series.latency_ms->Sum();
    dto.latency_buckets.reserve(series.latency_ms->BucketCount());
    for (size_t i = 0; i < series.latency_ms->BucketCount(); ++i) {
      dto.latency_buckets.push_back(series.latency_ms->BinCount(i));
    }
    response.methods.push_back(std::move(dto));
  }
  StatsDto& cumulative = response.cumulative;
  for (size_t i = 0; i < kEngineCounterCount; ++i) {
    cumulative.*kEngineCounters[i].field = engine_counters_[i]->Value();
  }
  if (transport_statz_) response.transport = transport_statz_();
  FinishRequest(kStatz, ElapsedMs(start), response.status, nullptr,
                std::move(trace), /*trace_requested=*/false, nullptr,
                /*session_id=*/"", /*detail=*/"");
  return response;
}

MetriczResponse SedaService::Metricz(const MetriczRequest&) {
  const Clock::time_point start = Clock::now();
  obs::Trace trace = StartTrace(kMetricz);
  MetriczResponse response;
  response.text = registry_.RenderText();
  FinishRequest(kMetricz, ElapsedMs(start), response.status, nullptr,
                std::move(trace), /*trace_requested=*/false, nullptr,
                /*session_id=*/"", /*detail=*/"");
  return response;
}

SlowlogResponse SedaService::Slowlog(const SlowlogRequest& request) {
  const Clock::time_point start = Clock::now();
  obs::Trace trace = StartTrace(kSlowlog);
  SlowlogResponse response;
  response.total_logged = slowlog_.TotalLogged();
  response.entries = slowlog_.Entries(request.limit);
  FinishRequest(kSlowlog, ElapsedMs(start), response.status, nullptr,
                std::move(trace), /*trace_requested=*/false, nullptr,
                /*session_id=*/"", /*detail=*/"");
  return response;
}

std::string SedaService::Handle(const std::string& request_json) {
  auto envelope = Json::Parse(request_json);
  auto envelope_error = [](const Status& status) {
    Json json = Json::Object();
    json.Set("status", ToJson(WireStatus::FromStatus(status)));
    return json.Write();
  };
  if (!envelope.ok()) return envelope_error(envelope.status());
  if (envelope.value().kind() != Json::Kind::kObject) {
    return envelope_error(
        Status::InvalidArgument("request envelope must be a JSON object"));
  }
  const Json& json = envelope.value();
  const std::string method = json.Find("method") != nullptr
                                 ? json.Find("method")->AsString()
                                 : std::string();
  if (method == "create_session") {
    return ToJson(CreateSession(CreateSessionRequestFromJson(json))).Write();
  }
  if (method == "close_session") {
    return ToJson(CloseSession(CloseSessionRequestFromJson(json))).Write();
  }
  if (method == "search") {
    return ToJson(Search(SearchRequestFromJson(json))).Write();
  }
  if (method == "refine") {
    return ToJson(Refine(RefineRequestFromJson(json))).Write();
  }
  if (method == "complete") {
    return ToJson(Complete(CompleteRequestFromJson(json))).Write();
  }
  if (method == "cube") {
    return ToJson(Cube(CubeRequestFromJson(json))).Write();
  }
  if (method == "statz") {
    return ToJson(Statz(StatzRequest{})).Write();
  }
  if (method == "metricz") {
    return ToJson(Metricz(MetriczRequest{})).Write();
  }
  if (method == "slowlog") {
    return ToJson(Slowlog(SlowlogRequestFromJson(json))).Write();
  }
  return envelope_error(Status::InvalidArgument(
      "unknown method '" + method +
      "'; expected "
      "create_session|close_session|search|refine|complete|cube|statz|"
      "metricz|slowlog"));
}

}  // namespace seda::api
