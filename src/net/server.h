#ifndef SEDA_NET_SERVER_H_
#define SEDA_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "common/status.h"
#include "net/admission.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/http.h"

namespace seda::net {

/// Server tuning. Defaults are production-shaped; tests shrink the queue
/// and limits to force the shedding paths deterministically.
struct ServerOptions {
  /// Bind address. Tests and the CI smoke stay on loopback.
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (the kernel picks; read back via port()).
  uint16_t port = 0;
  /// epoll reactor threads; connections are pinned round-robin. Start()
  /// rejects more than core::kMaxThreadCount.
  size_t io_threads = 1;
  /// Threads executing SedaService::Handle. 0 = hardware_concurrency.
  /// Start() rejects more than core::kMaxThreadCount.
  size_t worker_threads = 0;
  /// Bounded work queue between IO and workers; a full queue sheds with an
  /// `overloaded` frame instead of building unbounded backlog.
  size_t queue_capacity = 256;
  /// Frame payload cap for reads (responses are never capped).
  uint32_t max_frame_bytes = kDefaultMaxPayloadBytes;
  /// Close connections idle (no traffic, nothing in flight) this long.
  /// 0 = never. This is the transport read timeout.
  uint64_t idle_timeout_ms = 0;
  /// Transport-level request budget: injected into each request envelope's
  /// deadline_ms (capping any client value), so a slow engine scan returns
  /// a well-formed partial response instead of holding the socket. 0 = off.
  uint64_t request_timeout_ms = 0;
  /// How long Stop() waits for in-flight requests, then for final flushes.
  uint64_t drain_timeout_ms = 5000;
  /// Admission control (connection caps, in-flight caps, rate limits).
  AdmissionOptions admission;
  /// Prometheus scrape port (`GET /metrics`, net/http.h) on the same host:
  /// -1 = no HTTP listener (default), 0 = ephemeral (read back via
  /// metrics_port()), >0 = fixed. Kept off the frame port so the exposition
  /// needs no frame-speaking client — `curl` and a Prometheus scraper work
  /// as-is (seda_server --metrics-port lands here).
  int metrics_port = -1;
};

/// Transport counters, all monotonic. Exposed raw for tests and exported
/// through SedaService::Statz as the "transport" section.
struct ServerStats {
  std::atomic<uint64_t> connections_accepted{0};
  std::atomic<uint64_t> connections_refused{0};  ///< at accept (conn cap)
  std::atomic<uint64_t> frames_received{0};
  std::atomic<uint64_t> responses_sent{0};
  std::atomic<uint64_t> requests_shed{0};    ///< overloaded error frames
  std::atomic<uint64_t> protocol_errors{0};  ///< decoder failures
  std::atomic<uint64_t> idle_closed{0};
  std::atomic<uint64_t> bytes_read{0};
  std::atomic<uint64_t> bytes_written{0};
};

/// The network front door: an epoll thread-per-core TCP server speaking
/// SEDA frames (net/frame.h) whose payloads are exactly the JSON envelopes
/// of SedaService::Handle(). Architecture:
///
///   accept (loop 0) -> Connection pinned to loop i -> FrameDecoder
///     -> admission verdict (IO thread; sheds answer inline)
///     -> bounded work queue -> worker thread -> service->Handle()
///     -> Post back to the owning loop -> framed response write
///
/// Every refusal — connection cap, in-flight cap, rate limits, full queue,
/// draining — is answered with a well-formed `overloaded` error frame
/// (status code "Unavailable"); the server never sheds by resetting or
/// silently dropping, so a loaded client can always tell backpressure from
/// breakage. Requests may complete out of order across worker threads; a
/// client that pipelines puts an "id" field in the envelope and the server
/// echoes it on the matching response.
///
/// Stop() drains: stop accepting, shed new frames, wait for in-flight work
/// (up to drain_timeout_ms), join workers, flush remaining writes, close.
class Server {
 public:
  Server(api::SedaService* service, ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns IO + worker threads. Registers this server's
  /// stats with the service's statz (set_transport_statz).
  Status Start();

  /// Graceful shutdown; idempotent, safe from any thread (not a loop
  /// thread). Returns after all threads joined and sockets closed.
  void Stop();

  /// The bound port (after Start); useful with port = 0.
  uint16_t port() const { return port_; }
  /// The bound HTTP metrics port, or 0 when no listener was configured.
  uint16_t metrics_port() const {
    return metrics_listener_ != nullptr ? metrics_listener_->port() : 0;
  }

  const ServerStats& stats() const { return stats_; }
  const ServerOptions& options() const { return options_; }
  size_t connection_count() const { return admission_.connection_count(); }

  /// Statz "transport" section snapshot.
  std::vector<std::pair<std::string, uint64_t>> TransportStatz() const;

  // --- Loop-thread entry points (called by Connection) -------------------

  /// One decoded frame from `conn`: admission check, deadline injection,
  /// enqueue — or an inline `overloaded` answer.
  void OnFrame(const std::shared_ptr<Connection>& conn, std::string payload);
  void OnConnectionClosed(Connection* conn);
  ServerStats& mutable_stats() { return stats_; }

 private:
  struct WorkItem {
    std::shared_ptr<Connection> conn;
    std::string payload;
    api::Json id;  ///< envelope "id" echoed onto the response (null = none)
    bool has_id = false;
  };

  /// Bounded MPMC queue, IO threads -> workers.
  class WorkQueue {
   public:
    explicit WorkQueue(size_t capacity) : capacity_(capacity) {}
    bool TryPush(WorkItem item);
    /// Blocks for the next item; false when closed and empty.
    bool Pop(WorkItem& item);
    void Close();
    size_t size() const;

   private:
    size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable ready_;
    std::deque<WorkItem> items_;
    bool closed_ = false;
  };

  void AcceptReady();
  void WorkerMain();
  /// Registers the transport's metric families (seda_net_*) with the
  /// service's registry; Stop() unregisters them so the render-time
  /// callbacks never outlive this server.
  void RegisterMetrics();
  void UnregisterMetrics();
  /// Builds the `overloaded` (or protocol-error) envelope for a refusal.
  static std::string RefusalPayload(AdmissionVerdict verdict,
                                    const api::Json* id);
  void Shed(const std::shared_ptr<Connection>& conn, AdmissionVerdict verdict,
            const api::Json* id);
  /// Per-loop periodic tick: idle sweep over that loop's connections.
  void LoopTick(size_t loop_index);

  api::SedaService* service_;
  ServerOptions options_;
  AdmissionController admission_;
  ServerStats stats_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> io_threads_;
  /// Loop-thread-owned connection registries, one per loop.
  std::vector<std::vector<std::shared_ptr<Connection>>> loop_connections_;
  std::atomic<size_t> next_loop_{0};

  WorkQueue queue_;
  std::vector<std::thread> workers_;
  std::atomic<size_t> inflight_total_{0};

  std::atomic<bool> draining_{false};
  bool started_ = false;
  bool stopped_ = false;
  std::mutex lifecycle_mu_;

  /// HTTP scrape responder (only when options_.metrics_port >= 0).
  std::unique_ptr<HttpMetricsListener> metrics_listener_;
  /// Family names registered with the service registry, for teardown.
  std::vector<std::string> registered_metrics_;
};

}  // namespace seda::net

#endif  // SEDA_NET_SERVER_H_
