#ifndef SEDA_API_DTO_H_
#define SEDA_API_DTO_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "topk/engine_counters.h"

namespace seda::api {

/// The service boundary's data-transfer objects: every request and response
/// of api::SedaService is a plain-data struct over std types only — no
/// pointers into a snapshot, no engine objects — referencing nodes, paths
/// and connections by stable ids (DocId + Dewey string, root-to-leaf path
/// strings, connection indices into the session's last search response).
/// Each DTO has a canonical JSON encoding in api/wire.h, so an in-process
/// caller, the explore_cli stdin/stdout client and a future network frontend
/// all speak the same schema.

/// Serializable Status: `code` is the StatusCodeName ("OK",
/// "InvalidArgument", ...), `message` the human-readable detail.
struct WireStatus {
  std::string code = "OK";
  std::string message;

  bool ok() const { return code == "OK"; }
  static WireStatus FromStatus(const Status& status);
  /// Reconstructs a Status (kInternal for an unknown code string).
  Status ToStatus() const;
};

/// Per-request accounting, on every response. Mirrors topk::SearchStats for
/// search-shaped requests (zeros elsewhere) plus the service-side deadline
/// bookkeeping: `deadline_ms` echoes the request, `deadline_exceeded` is the
/// overrun flag — a response with it set is a well-formed partial answer,
/// not an error.
struct StatsDto {
  uint64_t epoch = 0;          ///< snapshot epoch that served the request
  double elapsed_ms = 0;       ///< service-measured wall clock
  uint64_t deadline_ms = 0;    ///< request budget (0 = none)
  bool deadline_exceeded = false;
  // The engine counters (topk/engine_counters.h): filled by search/refine,
  // the column_* pair by cube; zeros elsewhere.
  SEDA_ENGINE_COUNTERS(SEDA_ENGINE_COUNTER_FIELD)
};

/// Stable node reference: document id + Dewey id ("1.2.2.1"), plus the
/// node's root-to-leaf path and content for display — everything a client
/// needs without holding pointers into the store.
struct NodeRefDto {
  uint32_t doc = 0;
  std::string dewey;
  std::string path;
  std::string content;
};

/// One ranked answer (topk::ScoredTuple over the wire).
struct TupleDto {
  std::vector<NodeRefDto> nodes;  ///< one per query term, in term order
  double content_score = 0;
  uint64_t connection_size = 0;
  double score = 0;
};

/// One context bucket entry (§5 summary; absolute collection frequencies).
struct ContextEntryDto {
  std::string path;
  uint64_t doc_count = 0;
  uint64_t node_count = 0;
};

struct ContextBucketDto {
  std::string term;
  std::vector<ContextEntryDto> entries;
};

/// One step of a schema-level connection ("up" / "down" / "link").
struct ConnectionStepDto {
  std::string move;
  std::string path;   ///< context arrived at after the move
  std::string label;  ///< relationship label for link moves
};

/// One connection summary entry (§6). Its position in
/// SearchResponseDto::connections is the *connection index*
/// CompleteRequest::connections refers to.
struct ConnectionDto {
  uint64_t term_a = 0;
  uint64_t term_b = 0;
  std::string from_path;
  std::string to_path;
  std::vector<ConnectionStepDto> steps;
  uint64_t instance_count = 0;
  bool false_positive = false;
};

// --- Observability (statz) ---------------------------------------------

/// Per-request-type accounting: request count, error count, and a
/// fixed-bound latency histogram (bucket i counts requests with latency <=
/// StatzResponse::bucket_bounds_ms[i]; the final bucket is the overflow).
struct MethodStatsDto {
  std::string method;
  uint64_t count = 0;
  uint64_t errors = 0;             ///< responses with non-OK status
  uint64_t deadline_exceeded = 0;  ///< responses flagged as partial
  double total_ms = 0;             ///< summed wall clock across requests
  std::vector<uint64_t> latency_buckets;
};

struct StatzRequest {};

/// The service's observability surface: session-registry gauges, per-method
/// latency histograms and the cumulative engine counters, all monotonic
/// since service construction. Served as envelope method "statz" — this is
/// what the net-layer admission controller, the CI server smoke and any
/// dashboard poll.
struct StatzResponse {
  WireStatus status;
  uint64_t epoch = 0;             ///< currently served snapshot epoch
  uint64_t sessions = 0;          ///< live (non-evicted) sessions
  uint64_t sessions_created = 0;
  uint64_t sessions_evicted = 0;  ///< TTL + LRU evictions (not explicit closes)
  double uptime_ms = 0;           ///< since service construction
  std::vector<double> bucket_bounds_ms;  ///< histogram upper bounds
  std::vector<MethodStatsDto> methods;
  /// Cumulative topk::SearchStats counters summed over every search-shaped
  /// response (epoch/elapsed/deadline fields carry their usual per-request
  /// meaning nowhere here and stay zero except deadline_ms-independent sums).
  StatsDto cumulative;
  /// Transport counters injected by a hosting frontend (net::Server) —
  /// empty when the service is driven in-process.
  std::vector<std::pair<std::string, uint64_t>> transport;
};

// --- Session lifecycle -------------------------------------------------

struct CreateSessionRequest {
  /// Caller-chosen id (must be unused); empty = the service assigns one.
  std::string session_id;
  /// Idle lifetime override in ms; 0 = the service default.
  uint64_t ttl_ms = 0;
};

struct CreateSessionResponse {
  WireStatus status;
  std::string session_id;
  uint64_t epoch = 0;  ///< snapshot epoch the session is pinned to
};

struct CloseSessionRequest {
  std::string session_id;
};

struct CloseSessionResponse {
  WireStatus status;
};

// --- Fig. 6 loop -------------------------------------------------------

/// First stage: top-k search + both summaries. An empty session_id runs the
/// request one-shot on the current epoch (no session state is kept).
struct SearchRequest {
  std::string session_id;
  std::string query;         ///< paper surface syntax, see query::ParseQuery
  uint64_t k = 0;            ///< top-k override; 0 = snapshot default
  uint64_t deadline_ms = 0;  ///< wall-clock budget; 0 = none
  /// Return the request's span tree in the response ("trace":true on the
  /// envelope). Tracing itself is always on (ServiceOptions::tracing); this
  /// flag only controls whether the tree is shipped back.
  bool trace = false;
};

struct SearchResponseDto {
  WireStatus status;
  std::vector<TupleDto> topk;
  std::vector<ContextBucketDto> contexts;     ///< one bucket per query term
  std::vector<ConnectionDto> connections;
  StatsDto stats;
  /// Detached span tree; only populated (and only serialized) when the
  /// request asked for it — `trace.name` is empty otherwise.
  obs::SpanNode trace;
};

/// Feedback edge: context picks (one list per term of the session's current
/// query; empty list = leave the term as is) applied and re-searched.
struct RefineRequest {
  std::string session_id;
  std::vector<std::vector<std::string>> chosen_paths;
  uint64_t k = 0;            ///< top-k override for the re-search; 0 = default
  uint64_t deadline_ms = 0;
  bool trace = false;        ///< see SearchRequest::trace
};

/// Completion stage: the full result set R(q) for the session's current
/// query with each term pinned to a single context path. `connections` are
/// indices into the session's last search response's connection list.
struct CompleteRequest {
  std::string session_id;
  std::vector<std::string> term_paths;  ///< one absolute path per term
  std::vector<uint64_t> connections;    ///< chosen connection indices
  uint64_t deadline_ms = 0;
  bool trace = false;                   ///< see SearchRequest::trace
};

struct CompleteResponseDto {
  WireStatus status;
  /// R(q) rows: one NodeRef per term (content omitted — rows can be many).
  std::vector<std::vector<NodeRefDto>> tuples;
  uint64_t twig_count = 0;
  uint64_t cross_twig_joins = 0;
  StatsDto stats;
  obs::SpanNode trace;  ///< see SearchResponseDto::trace
};

/// Last stage: star schema (and optional OLAP aggregate) from the session's
/// last complete result.
struct CubeRequest {
  std::string session_id;
  // CubeBuilder::Options step-2 augmentation, by catalog name:
  std::vector<std::string> add_facts;
  std::vector<std::string> remove_facts;
  std::vector<std::string> add_dimensions;
  std::vector<std::string> remove_dimensions;
  bool merge_fact_tables = true;
  /// Optional aggregation over the first fact table: when `measure` is
  /// non-empty the response carries the cells of
  /// olap::Cube::Aggregate(group_dims, agg_fn, measure).
  std::vector<std::string> group_dims;
  std::string agg_fn = "sum";  ///< sum | count | avg | min | max
  std::string measure;
  uint64_t deadline_ms = 0;
  bool trace = false;  ///< see SearchRequest::trace
};

/// A relational table (fact or dimension) over the wire.
struct TableDto {
  std::string name;
  std::vector<std::string> columns;
  std::vector<uint64_t> key_columns;
  std::vector<std::vector<std::string>> rows;
};

/// One aggregated cube cell.
struct CellDto {
  std::vector<std::string> group;  ///< one value per grouped dimension
  double value = 0;
  uint64_t count = 0;
};

struct CubeResponseDto {
  WireStatus status;
  std::vector<TableDto> fact_tables;
  std::vector<TableDto> dimension_tables;
  std::vector<std::string> warnings;
  std::vector<CellDto> cells;  ///< only when CubeRequest::measure was set
  double cell_total = 0;       ///< Cuboid::Total() of the aggregate
  StatsDto stats;
  obs::SpanNode trace;  ///< see SearchResponseDto::trace
};

// --- Observability (metricz / slowlog) ---------------------------------

/// Prometheus text exposition of the service's metrics registry. The same
/// bytes are served on the HTTP metrics listener (`GET /metrics`); this
/// envelope method exists so frame-protocol clients (explore_cli) can scrape
/// without a second port.
struct MetriczRequest {};

struct MetriczResponse {
  WireStatus status;
  std::string text;  ///< exposition format 0.0.4, byte-stable
};

/// The sampled slow-query log (obs/slowlog.h): requests that met their
/// method's latency threshold, plus every Nth request when the sampling
/// knob is on. Entries come back newest-first with their span trees.
struct SlowlogRequest {
  uint64_t limit = 0;  ///< cap on returned entries; 0 = all retained
};

struct SlowlogResponse {
  WireStatus status;
  uint64_t total_logged = 0;  ///< ever logged, including evicted entries
  std::vector<obs::SlowLogEntry> entries;
};

}  // namespace seda::api

#endif  // SEDA_API_DTO_H_
