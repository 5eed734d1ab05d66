#ifndef SEDA_API_SERVICE_H_
#define SEDA_API_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/dto.h"
#include "core/seda.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/trace.h"

namespace seda::api {

/// Configuration of the service facade.
struct ServiceOptions {
  /// Upper bound on live sessions; creating one past the bound evicts the
  /// least-recently-used session (expired ones first).
  size_t max_sessions = 1024;
  /// Idle lifetime: a session untouched for this long is evicted lazily (on
  /// the next registry sweep). CreateSessionRequest::ttl_ms overrides per
  /// session. 0 = sessions never expire by idleness.
  uint64_t session_ttl_ms = 15 * 60 * 1000;
  /// Applied when a request carries deadline_ms == 0. 0 = no deadline.
  uint64_t default_deadline_ms = 0;
  /// Per-request span collection (obs/trace.h). On (the default), every
  /// request opens a span tree — two steady_clock reads per span, gated to
  /// at most 10% throughput overhead by bench_gates. The tree is shipped
  /// back only when the envelope says "trace":true; slow/sampled requests
  /// retain it in the slow-query log. Off = requests run with a disabled
  /// Trace (the null-pointer fast path the gate compares against).
  bool tracing = true;
  /// Slow-query sampling knob, compiled in but disabled by default: when
  /// N > 0 every Nth request (across methods) lands in the slow log with
  /// its span tree regardless of latency. Deterministic — tests set 1.
  uint64_t trace_sample_every_n = 0;
  /// Slow-query log policy (ring capacity, per-method latency thresholds).
  obs::SlowLogOptions slowlog;
};

/// The service facade over the whole Fig. 6 loop — the one supported public
/// entry point of the system. Every method takes a plain-data request and
/// returns a plain-data response (api/dto.h) referencing nodes, paths and
/// connections by stable ids, so the same call shape works in-process, over
/// the explore_cli stdin/stdout wire, or behind a future network frontend.
///
/// Architecture: the service multiplexes many concurrent explorations over
/// the shared snapshot machinery. Each session entry owns a core::Session
/// (the internal engine object — no longer the public surface) pinned to the
/// epoch that was current at CreateSession time, plus the cross-request
/// state the wire format references by index (the last search response's
/// connection entries, the last complete result). A registry maps string
/// session ids to entries with TTL + LRU eviction; the registry lock is held
/// only for lookup/eviction, while each request serializes on its session's
/// own mutex — so thousands of sessions make progress concurrently and an
/// evicted session finishes its in-flight request safely (shared_ptr keeps
/// the entry alive).
///
/// Deadlines: every request carries deadline_ms (0 = ServiceOptions
/// default). Search-shaped requests plumb it into the engine's cooperative
/// TA-scan check (TopKOptions::deadline_ms) and return a well-formed partial
/// response with stats.deadline_exceeded set; complete/cube requests flag
/// the overrun in stats after the fact. An overrun is never an error.
///
/// Thread safety: all methods are safe to call from any number of threads.
/// Requests for the same session are serialized; requests for different
/// sessions run concurrently. The backing Seda writer may Commit() freely —
/// sessions keep their pinned epoch, new sessions pin the new one.
class SedaService {
 public:
  /// Serves `seda` (not owned; must outlive the service and be finalized
  /// before the first request — CreateSession fails cleanly otherwise).
  explicit SedaService(const core::Seda* seda,
                       ServiceOptions options = ServiceOptions{});

  // --- Typed entry points ---------------------------------------------
  CreateSessionResponse CreateSession(const CreateSessionRequest& request);
  CloseSessionResponse CloseSession(const CloseSessionRequest& request);
  /// An empty session_id runs one-shot on the current epoch (no state kept).
  SearchResponseDto Search(const SearchRequest& request);
  SearchResponseDto Refine(const RefineRequest& request);
  CompleteResponseDto Complete(const CompleteRequest& request);
  CubeResponseDto Cube(const CubeRequest& request);
  /// Observability snapshot: registry gauges, per-method latency histograms
  /// and cumulative engine counters (api/dto.h StatzResponse). Cheap —
  /// O(methods x buckets) reads of relaxed atomics, no lock, no engine work.
  StatzResponse Statz(const StatzRequest& request);
  /// Prometheus text exposition of the metrics registry (RenderMetrics()
  /// over the wire) — the same bytes `GET /metrics` serves.
  MetriczResponse Metricz(const MetriczRequest& request);
  /// The sampled slow-query log, newest-first, span trees included.
  SlowlogResponse Slowlog(const SlowlogRequest& request);

  /// Lets a hosting transport (net::Server) contribute its own counters to
  /// every Statz response, as name/value pairs under "transport". Call
  /// before serving; the callback must be thread-safe.
  void set_transport_statz(
      std::function<std::vector<std::pair<std::string, uint64_t>>()> source) {
    transport_statz_ = std::move(source);
  }

  /// The service's metrics registry. A hosting transport registers its own
  /// families here (net::Server does: seda_net_*) so one exposition covers
  /// service + transport; tests read it back via Snapshot().
  obs::MetricsRegistry& metrics() { return registry_; }
  /// Prometheus text exposition of every registered family; byte-stable for
  /// a given state. This is what the HTTP metrics listener serves.
  std::string RenderMetrics() const { return registry_.RenderText(); }
  /// The slow-query log (for the drain-time dump in seda_server).
  const obs::SlowLog& slow_log() const { return slowlog_; }

  /// Wire entry point: one JSON request envelope in, one JSON response out.
  /// The envelope is the request DTO's object plus a "method" field:
  ///   {"method":"search","session_id":"s1","query":"(a, b)", ...}
  /// Methods: create_session, close_session, search, refine, complete,
  /// cube, statz, metricz, slowlog. Search-shaped envelopes accept
  /// "trace":true to get the request's span tree back in the response.
  /// Envelope-level failures (malformed JSON, unknown method) return
  /// {"status":{...}} with the error; method-level failures are the
  /// method's own response DTO with its status set.
  std::string Handle(const std::string& request_json);

  /// Live (non-evicted) session count, for tests and ops.
  size_t SessionCount() const;

  const ServiceOptions& options() const { return options_; }

 private:
  struct SessionEntry {
    std::string id;
    /// Serializes requests on this session (core::Session mutates state).
    std::mutex mu;
    core::Session session;
    /// Result of the last Complete(), consumed by Cube(). Reset by a new
    /// Search/Refine round (the tuples belong to the superseded query).
    std::optional<twig::CompleteResult> last_complete;
    /// Guarded by the registry mutex (not mu): eviction bookkeeping.
    std::chrono::steady_clock::time_point last_used;
    uint64_t ttl_ms = 0;

    SessionEntry(std::string session_id, core::Session engine)
        : id(std::move(session_id)), session(std::move(engine)) {}
  };

  /// Looks up a session, refreshes its LRU stamp and returns a shared
  /// handle, or NotFound/expired. Never blocks on the session's own mutex.
  Result<std::shared_ptr<SessionEntry>> FindSession(const std::string& id);

  /// Registry-lock-held: drops every expired session. Runs on each
  /// CreateSession and, rate-limited, on lookups — so idle-expired sessions
  /// release their pinned epochs even without new session traffic.
  void SweepExpiredLocked(std::chrono::steady_clock::time_point now);

  /// Registry-lock-held: evicts least-recently-used sessions until an
  /// insert fits within max_sessions. Only called when an insert WILL
  /// happen — a request that fails validation must not cost a live session.
  void EvictLruForInsertLocked();

  uint64_t EffectiveDeadline(uint64_t request_deadline_ms) const {
    return request_deadline_ms != 0 ? request_deadline_ms
                                    : options_.default_deadline_ms;
  }

  /// Index into method_series_ — one slot per envelope method.
  enum Method : size_t {
    kCreateSession = 0,
    kCloseSession,
    kSearch,
    kRefine,
    kComplete,
    kCube,
    kStatz,
    kMetricz,
    kSlowlog,
    kMethodCount,
  };

  /// Registry handles for one method's request accounting. Every update is
  /// a relaxed atomic on a pre-registered series — the old stats_mu_ mutex
  /// serialized all methods through one lock and showed up as contention in
  /// the concurrent-connection bench once the engine work got cheap
  /// (sessions run concurrently, but every response funneled through it);
  /// per-series atomics make recording wait-free and scale with cores.
  struct MethodSeries {
    obs::Counter* count = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Histogram* latency_ms = nullptr;
  };

  /// Opens the per-request trace (enabled iff ServiceOptions::tracing).
  obs::Trace StartTrace(Method method) const;

  /// Records one finished request into the registry (count/error/deadline
  /// counters, latency histogram, cumulative engine sums — all atomics),
  /// then decides whether the trace is kept: shipped back via `trace_out`
  /// when the request asked, retained in the slow log when the method's
  /// latency threshold fired or the sampling knob picked the request.
  /// `stats` may be null for requests without a stats block.
  void FinishRequest(Method method, double elapsed_ms, const WireStatus& status,
                     const StatsDto* stats, obs::Trace trace,
                     bool trace_requested, obs::SpanNode* trace_out,
                     const std::string& session_id, const std::string& detail);

  // The typed entry points above are thin tracing+metric wrappers over
  // these implementations, so every return path of a request lands in the
  // accounting exactly once. `root` is the request's root span (null when
  // tracing is off).
  CreateSessionResponse DoCreateSession(const CreateSessionRequest& request);
  CloseSessionResponse DoCloseSession(const CloseSessionRequest& request);
  SearchResponseDto DoSearch(const SearchRequest& request,
                             obs::TraceSpan* root);
  SearchResponseDto DoRefine(const RefineRequest& request,
                             obs::TraceSpan* root);
  CompleteResponseDto DoComplete(const CompleteRequest& request,
                                 obs::TraceSpan* root);
  CubeResponseDto DoCube(const CubeRequest& request, obs::TraceSpan* root);

  const core::Seda* seda_;
  ServiceOptions options_;

  mutable std::mutex registry_mu_;
  std::unordered_map<std::string, std::shared_ptr<SessionEntry>> sessions_;
  uint64_t next_session_number_ = 1;  ///< guarded by registry_mu_
  /// Last full expiry sweep (guarded by registry_mu_); lookups re-sweep at
  /// most once per second to keep the hot path O(1).
  std::chrono::steady_clock::time_point last_sweep_{};
  /// Registry lifecycle counters for statz (guarded by registry_mu_).
  uint64_t sessions_created_ = 0;
  uint64_t sessions_evicted_ = 0;

  /// All request/engine accounting lives in the registry as lock-free
  /// atomics (see MethodSeries for the contention story); statz renders its
  /// JSON from these same series, so statz and /metrics can never disagree.
  obs::MetricsRegistry registry_;
  MethodSeries method_series_[kMethodCount];
  /// Cumulative engine counters (seda_engine_*_total), indexed like
  /// kEngineCounters in service.cc (topk/engine_counters.h list order).
  std::vector<obs::Counter*> engine_counters_;
  obs::SlowLog slowlog_;
  /// Per-method slow threshold, resolved once from options_.slowlog.
  uint64_t slow_threshold_ms_[kMethodCount] = {};
  /// Round-robin pick for the every-Nth-request sampling knob.
  mutable std::atomic<uint64_t> sample_counter_{0};
  std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
  std::function<std::vector<std::pair<std::string, uint64_t>>()>
      transport_statz_;
};

}  // namespace seda::api

#endif  // SEDA_API_SERVICE_H_
