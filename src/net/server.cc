#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/check.h"
#include "core/snapshot.h"
#include "obs/metrics.h"

namespace seda::net {

namespace {

using Clock = std::chrono::steady_clock;

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

// --- WorkQueue ----------------------------------------------------------

bool Server::WorkQueue::TryPush(WorkItem item) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
  }
  ready_.notify_one();
  return true;
}

bool Server::WorkQueue::Pop(WorkItem& item) {
  std::unique_lock<std::mutex> lock(mu_);
  ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
  if (items_.empty()) return false;
  item = std::move(items_.front());
  items_.pop_front();
  return true;
}

void Server::WorkQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  ready_.notify_all();
}

size_t Server::WorkQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

// --- Server -------------------------------------------------------------

Server::Server(api::SedaService* service, ServerOptions options)
    : service_(service),
      options_(options),
      admission_(options.admission),
      queue_(options.queue_capacity > 0 ? options.queue_capacity : 1) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (started_) return Status::FailedPrecondition("server already started");
  // Both counts come straight from seda_server flags: a typo must not spawn
  // millions of threads.
  if (options_.io_threads > core::kMaxThreadCount ||
      options_.worker_threads > core::kMaxThreadCount) {
    return Status::InvalidArgument("server options ask for more than " +
                                   std::to_string(core::kMaxThreadCount) +
                                   " threads");
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int enable = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));
  SEDA_RETURN_IF_ERROR(SetNonBlocking(listen_fd_));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address '" + options_.host + "'");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (listen(listen_fd_, 1024) != 0) return Errno("listen");
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) !=
      0) {
    return Errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  const size_t io_threads = std::max<size_t>(1, options_.io_threads);
  loops_.reserve(io_threads);
  loop_connections_.resize(io_threads);
  for (size_t i = 0; i < io_threads; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
    SEDA_RETURN_IF_ERROR(loops_.back()->status());
  }
  // The accept socket lives on loop 0; new connections go round-robin.
  SEDA_RETURN_IF_ERROR(
      loops_[0]->Add(listen_fd_, EPOLLIN, [this](uint32_t) { AcceptReady(); }));

  service_->set_transport_statz([this] { return TransportStatz(); });
  RegisterMetrics();
  if (options_.metrics_port >= 0) {
    metrics_listener_ = std::make_unique<HttpMetricsListener>(
        options_.host, static_cast<uint16_t>(options_.metrics_port),
        [service = service_] { return service->RenderMetrics(); });
    const Status listener_status = metrics_listener_->Start();
    if (!listener_status.ok()) {
      metrics_listener_.reset();
      UnregisterMetrics();
      return listener_status;
    }
  }

  size_t worker_threads = options_.worker_threads;
  if (worker_threads == 0) {
    worker_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(worker_threads);
  for (size_t i = 0; i < worker_threads; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  io_threads_.reserve(io_threads);
  for (size_t i = 0; i < io_threads; ++i) {
    EventLoop* loop = loops_[i].get();
    io_threads_.emplace_back(
        [this, loop, i] { loop->Run([this, i] { LoopTick(i); }, 100); });
  }
  started_ = true;
  return Status::OK();
}

void Server::AcceptReady() {
  for (;;) {
    const int fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept failure: wait for the next event
    }
    const int enable = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    if (draining_.load(std::memory_order_relaxed) ||
        admission_.OnConnectionOpen() != AdmissionVerdict::kAdmit) {
      // Refused at the door — still a well-formed answer, never a reset.
      // Counted before the frame goes out, so a client that has read the
      // refusal always sees it in the stats.
      stats_.connections_refused.fetch_add(1, std::memory_order_relaxed);
      const std::string payload = RefusalPayload(
          draining_.load(std::memory_order_relaxed)
              ? AdmissionVerdict::kDraining
              : AdmissionVerdict::kTooManyConnections,
          nullptr);
      const std::string frame = EncodeFrame(payload);
      [[maybe_unused]] ssize_t n =
          send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      close(fd);
      continue;
    }
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    const size_t index =
        next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    EventLoop* loop = loops_[index].get();
    auto conn = std::make_shared<Connection>(this, loop, fd);
    loop->Post([this, index, conn] {
      loop_connections_[index].push_back(conn);
      conn->Register();
    });
  }
}

std::string Server::RefusalPayload(AdmissionVerdict verdict,
                                   const api::Json* id) {
  api::Json envelope = api::Json::Object();
  envelope.Set("status", api::ToJson(api::WireStatus::FromStatus(
                             Status::Unavailable(std::string("overloaded: ") +
                                                 AdmissionVerdictName(verdict)))));
  if (id != nullptr) envelope.Set("id", *id);
  return envelope.Write();
}

void Server::Shed(const std::shared_ptr<Connection>& conn,
                  AdmissionVerdict verdict, const api::Json* id) {
  stats_.requests_shed.fetch_add(1, std::memory_order_relaxed);
  conn->SendPayload(RefusalPayload(verdict, id));
}

void Server::OnFrame(const std::shared_ptr<Connection>& conn,
                     std::string payload) {
  stats_.frames_received.fetch_add(1, std::memory_order_relaxed);

  // Parse the envelope once here: the admission check needs session_id, the
  // transport deadline rewrites deadline_ms, and the "id" must be echoed
  // even on refusals. A payload that fails to parse is forwarded untouched
  // — the service's own envelope handling produces the error response.
  api::Json id;
  bool has_id = false;
  std::string session_id;
  auto parsed = api::Json::Parse(payload);
  const bool is_object =
      parsed.ok() && parsed.value().kind() == api::Json::Kind::kObject;
  if (is_object) {
    const api::Json* id_field = parsed.value().Find("id");
    if (id_field != nullptr) {
      id = *id_field;
      has_id = true;
    }
    const api::Json* session = parsed.value().Find("session_id");
    if (session != nullptr) session_id = session->AsString();
  }

  if (draining_.load(std::memory_order_relaxed)) {
    Shed(conn, AdmissionVerdict::kDraining, has_id ? &id : nullptr);
    return;
  }
  const AdmissionVerdict verdict = admission_.OnRequest(
      conn->inflight(), conn->rate_bucket(), session_id, Clock::now());
  if (verdict != AdmissionVerdict::kAdmit) {
    Shed(conn, verdict, has_id ? &id : nullptr);
    return;
  }

  if (is_object && options_.request_timeout_ms > 0) {
    // Transport deadline: cap (or supply) the envelope's deadline_ms so the
    // engine's cooperative deadline check bounds socket occupancy. The
    // response comes back well-formed with stats.deadline_exceeded set —
    // load never turns into a hung connection.
    const api::Json* deadline = parsed.value().Find("deadline_ms");
    const uint64_t requested = deadline != nullptr ? deadline->AsUint() : 0;
    const uint64_t capped =
        requested == 0 ? options_.request_timeout_ms
                       : std::min(requested, options_.request_timeout_ms);
    parsed.value().Set("deadline_ms", api::Json::Uint(capped));
    payload = parsed.value().Write();
  }

  WorkItem item;
  item.conn = conn;
  item.payload = std::move(payload);
  item.id = id;
  item.has_id = has_id;
  inflight_total_.fetch_add(1, std::memory_order_relaxed);
  if (!queue_.TryPush(std::move(item))) {
    inflight_total_.fetch_sub(1, std::memory_order_relaxed);
    Shed(conn, AdmissionVerdict::kQueueFull, has_id ? &id : nullptr);
    return;
  }
  // Count in-flight only after a successful push; the counter lives on the
  // loop thread, and the worker's completion is Post()ed back to it.
  conn->OnRequestQueued();
}

void Server::WorkerMain() {
  WorkItem item;
  while (queue_.Pop(item)) {
    std::string response = service_->Handle(item.payload);
    if (item.has_id) {
      // Echo the client's correlation id: pipelined requests complete out
      // of order across workers, the id is how responses are matched up.
      auto parsed = api::Json::Parse(response);
      if (parsed.ok() && parsed.value().kind() == api::Json::Kind::kObject) {
        parsed.value().Set("id", item.id);
        response = parsed.value().Write();
      }
    }
    std::shared_ptr<Connection> conn = std::move(item.conn);
    EventLoop* loop = conn->loop();
    loop->Post([this, conn, response = std::move(response)] {
      conn->CompleteRequest(response);
      inflight_total_.fetch_sub(1, std::memory_order_relaxed);
    });
    item = WorkItem{};
  }
}

void Server::LoopTick(size_t loop_index) {
  std::vector<std::shared_ptr<Connection>>& connections =
      loop_connections_[loop_index];
  // Compact closed connections (dropping the registry reference) and sweep
  // idle ones.
  const Clock::time_point now = Clock::now();
  const std::chrono::milliseconds idle_timeout(options_.idle_timeout_ms);
  for (auto& conn : connections) {
    if (conn->closed()) continue;
    if (options_.idle_timeout_ms > 0 && conn->IdleExpired(now, idle_timeout)) {
      stats_.idle_closed.fetch_add(1, std::memory_order_relaxed);
      conn->Close();
    }
  }
  connections.erase(
      std::remove_if(connections.begin(), connections.end(),
                     [](const std::shared_ptr<Connection>& conn) {
                       return conn->closed();
                     }),
      connections.end());
}

void Server::OnConnectionClosed(Connection*) {
  admission_.OnConnectionClosed();
  // The registry entry is compacted by the owning loop's next tick.
}

void Server::RegisterMetrics() {
  obs::MetricsRegistry& registry = service_->metrics();
  // Monotonic transport counters: the values live in stats_ (updated on the
  // IO threads' hot paths with plain relaxed atomics), so the registry holds
  // render-time callbacks instead of duplicating the accounting.
  struct CounterSpec {
    const char* name;
    const char* help;
    const std::atomic<uint64_t>* value;
  };
  const CounterSpec counters[] = {
      {"seda_net_connections_accepted_total", "Connections accepted.",
       &stats_.connections_accepted},
      {"seda_net_connections_refused_total",
       "Connections refused at accept (connection cap or draining).",
       &stats_.connections_refused},
      {"seda_net_frames_received_total", "Request frames decoded.",
       &stats_.frames_received},
      {"seda_net_responses_sent_total", "Response frames fully written.",
       &stats_.responses_sent},
      {"seda_net_requests_shed_total",
       "Requests answered with an overloaded error frame.",
       &stats_.requests_shed},
      {"seda_net_protocol_errors_total", "Frame decoder failures.",
       &stats_.protocol_errors},
      {"seda_net_idle_closed_total", "Connections closed by the idle sweep.",
       &stats_.idle_closed},
      {"seda_net_bytes_read_total", "Bytes read off accepted sockets.",
       &stats_.bytes_read},
      {"seda_net_bytes_written_total", "Bytes written to accepted sockets.",
       &stats_.bytes_written},
  };
  registered_metrics_.clear();
  for (const CounterSpec& spec : counters) {
    registry.AddCallbackCounter(spec.name, spec.help, {},
                                [value = spec.value] {
                                  return value->load(std::memory_order_relaxed);
                                });
    registered_metrics_.emplace_back(spec.name);
  }
  registry.AddGauge("seda_net_connections_active", "Open connections.", {},
                    [this] {
                      return static_cast<double>(admission_.connection_count());
                    });
  registered_metrics_.emplace_back("seda_net_connections_active");
  registry.AddGauge("seda_net_queue_depth",
                    "Requests waiting in the IO->worker queue.", {},
                    [this] { return static_cast<double>(queue_.size()); });
  registered_metrics_.emplace_back("seda_net_queue_depth");
  registry.AddGauge(
      "seda_net_inflight", "Requests queued or executing.", {}, [this] {
        return static_cast<double>(
            inflight_total_.load(std::memory_order_relaxed));
      });
  registered_metrics_.emplace_back("seda_net_inflight");
}

void Server::UnregisterMetrics() {
  obs::MetricsRegistry& registry = service_->metrics();
  for (const std::string& name : registered_metrics_) {
    registry.Unregister(name);
  }
  registered_metrics_.clear();
}

std::vector<std::pair<std::string, uint64_t>> Server::TransportStatz() const {
  return {
      {"connections_active", admission_.connection_count()},
      {"connections_accepted",
       stats_.connections_accepted.load(std::memory_order_relaxed)},
      {"connections_refused",
       stats_.connections_refused.load(std::memory_order_relaxed)},
      {"frames_received",
       stats_.frames_received.load(std::memory_order_relaxed)},
      {"responses_sent", stats_.responses_sent.load(std::memory_order_relaxed)},
      {"requests_shed", stats_.requests_shed.load(std::memory_order_relaxed)},
      {"protocol_errors",
       stats_.protocol_errors.load(std::memory_order_relaxed)},
      {"idle_closed", stats_.idle_closed.load(std::memory_order_relaxed)},
      {"queue_depth", queue_.size()},
      {"inflight", inflight_total_.load(std::memory_order_relaxed)},
      {"bytes_read", stats_.bytes_read.load(std::memory_order_relaxed)},
      {"bytes_written", stats_.bytes_written.load(std::memory_order_relaxed)},
  };
}

void Server::Stop() {
  std::lock_guard<std::mutex> lock(lifecycle_mu_);
  if (!started_ || stopped_) return;
  stopped_ = true;

  // 0. Retire the scrape listener and the registry callbacks that read this
  // server's state, so no render can observe a half-torn-down transport.
  if (metrics_listener_ != nullptr) metrics_listener_->Stop();
  UnregisterMetrics();

  // 1. Stop accepting; new frames on live connections shed with "draining".
  draining_.store(true, std::memory_order_relaxed);
  loops_[0]->Post([this] {
    loops_[0]->Remove(listen_fd_);
    close(listen_fd_);
    listen_fd_ = -1;
  });

  // 2. Drain: wait for queued + executing requests to finish (their
  // responses land in connection write buffers), bounded by drain_timeout.
  const Clock::time_point drain_deadline =
      Clock::now() + std::chrono::milliseconds(options_.drain_timeout_ms);
  while (inflight_total_.load(std::memory_order_relaxed) > 0 &&
         Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // 3. Retire the workers.
  queue_.Close();
  for (std::thread& worker : workers_) worker.join();

  // 4. Flush remaining writes and close every connection, then stop loops.
  for (size_t i = 0; i < loops_.size(); ++i) {
    EventLoop* loop = loops_[i].get();
    loop->Post([this, i, drain_deadline] {
      for (auto& conn : loop_connections_[i]) {
        if (!conn->closed()) conn->FlushAndClose(drain_deadline);
      }
      loop_connections_[i].clear();
    });
    loop->Stop();
  }
  for (std::thread& io_thread : io_threads_) io_thread.join();
  workers_.clear();
  io_threads_.clear();
}

}  // namespace seda::net
