// seda_server: the network front door as a standalone binary. Loads (or
// generates) a corpus, finalizes a snapshot, and serves the JSON envelope
// protocol of api::SedaService over SEDA frames (src/net/) until SIGINT or
// SIGTERM, then drains gracefully.
//
//   build/tools/seda_server --factbook 0.15 --port 7474
//   build/tools/seda_server --image snap.img --port 0 --port-file /tmp/seda.port
//
// Flags:
//   --image PATH        serve a persisted snapshot image
//   --factbook SCALE    serve a synthetic World Factbook (default, scale 0.15)
//   --host ADDR         bind address            (default 127.0.0.1)
//   --port N            TCP port; 0 = ephemeral (default 7474)
//   --port-file PATH    write the bound port, for scripts using --port 0
//   --io-threads N      epoll reactor threads                  (default 2)
//   --workers N         request execution threads  (default: hw threads)
//   --queue N           bounded work queue capacity            (default 256)
//   --max-connections N admission cap, 0 = unlimited           (default 0)
//   --max-inflight N    per-connection in-flight cap           (default 64)
//   --conn-rps N        per-connection requests/sec, 0 = off   (default 0)
//   --session-rps N     per-session requests/sec, 0 = off      (default 0)
//   --idle-timeout-ms N close idle connections, 0 = never      (default 60000)
//   --request-timeout-ms N  transport deadline injected into deadline_ms
//   --max-frame-bytes N frame payload cap          (default 16 MiB)
//   --metrics-port N    HTTP GET /metrics listener; 0 = ephemeral,
//                       omit = no listener
//   --metrics-port-file PATH  write the bound metrics port
//   --slow-ms N         slow-query log threshold, 0 = off      (default 1000)
//   --trace-sample N    trace + slow-log every Nth request, 0 = off

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "api/service.h"
#include "core/seda.h"
#include "data/generators.h"
#include "net/server.h"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void HandleSignal(int) { g_shutdown = 1; }

uint64_t UintFlag(const char* value, const char* flag) {
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "bad value '%s' for %s\n", value, flag);
    std::exit(2);
  }
  return parsed;
}

}  // namespace

int main(int argc, char** argv) {
  std::string image_path;
  std::string port_file;
  std::string metrics_port_file;
  double factbook_scale = 0.15;
  uint64_t slow_ms = 1000;
  uint64_t trace_sample = 0;
  seda::net::ServerOptions options;
  options.port = 7474;
  options.io_threads = 2;
  options.idle_timeout_ms = 60 * 1000;
  options.admission.max_inflight_per_connection = 64;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--image") image_path = next();
    else if (flag == "--factbook") factbook_scale = std::atof(next());
    else if (flag == "--host") options.host = next();
    else if (flag == "--port") options.port = static_cast<uint16_t>(UintFlag(next(), "--port"));
    else if (flag == "--port-file") port_file = next();
    else if (flag == "--io-threads") options.io_threads = UintFlag(next(), "--io-threads");
    else if (flag == "--workers") options.worker_threads = UintFlag(next(), "--workers");
    else if (flag == "--queue") options.queue_capacity = UintFlag(next(), "--queue");
    else if (flag == "--max-connections") options.admission.max_connections = UintFlag(next(), "--max-connections");
    else if (flag == "--max-inflight") options.admission.max_inflight_per_connection = UintFlag(next(), "--max-inflight");
    else if (flag == "--conn-rps") options.admission.per_connection_rps = std::atof(next());
    else if (flag == "--session-rps") options.admission.per_session_rps = std::atof(next());
    else if (flag == "--idle-timeout-ms") options.idle_timeout_ms = UintFlag(next(), "--idle-timeout-ms");
    else if (flag == "--request-timeout-ms") options.request_timeout_ms = UintFlag(next(), "--request-timeout-ms");
    else if (flag == "--max-frame-bytes") options.max_frame_bytes = static_cast<uint32_t>(UintFlag(next(), "--max-frame-bytes"));
    else if (flag == "--metrics-port") options.metrics_port = static_cast<int>(UintFlag(next(), "--metrics-port"));
    else if (flag == "--metrics-port-file") metrics_port_file = next();
    else if (flag == "--slow-ms") slow_ms = UintFlag(next(), "--slow-ms");
    else if (flag == "--trace-sample") trace_sample = UintFlag(next(), "--trace-sample");
    else {
      std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
      return 2;
    }
  }

  seda::core::Seda seda;
  if (!image_path.empty()) {
    if (seda::Status opened = seda.Open(image_path); !opened.ok()) {
      std::fprintf(stderr, "cannot open image %s: %s\n", image_path.c_str(),
                   opened.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "opened image %s (%zu docs)\n", image_path.c_str(),
                 seda.snapshot()->store().DocumentCount());
  } else {
    seda::data::WorldFactbookGenerator::Options gen;
    gen.scale = factbook_scale;
    seda::data::WorldFactbookGenerator(gen).Populate(seda.mutable_store());
    if (seda::Status finalized = seda.Finalize(); !finalized.ok()) {
      std::fprintf(stderr, "finalize failed: %s\n",
                   finalized.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "generated factbook scale %.2f (%zu docs)\n",
                 factbook_scale, seda.snapshot()->store().DocumentCount());
  }

  seda::api::ServiceOptions service_options;
  service_options.slowlog.default_threshold_ms = slow_ms;
  service_options.trace_sample_every_n = trace_sample;
  seda::api::SedaService service(&seda, service_options);
  seda::net::Server server(&service, options);
  if (seda::Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "start failed: %s\n", started.ToString().c_str());
    return 1;
  }
  if (!port_file.empty()) {
    std::FILE* out = std::fopen(port_file.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(out, "%u\n", server.port());
    std::fclose(out);
  }
  if (!metrics_port_file.empty()) {
    std::FILE* out = std::fopen(metrics_port_file.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", metrics_port_file.c_str());
      return 1;
    }
    std::fprintf(out, "%u\n", server.metrics_port());
    std::fclose(out);
  }
  if (server.metrics_port() != 0) {
    std::fprintf(stderr, "metrics on http://%s:%u/metrics\n",
                 options.host.c_str(), server.metrics_port());
  }
  // Scripts (CI smoke, bench) wait for this exact line.
  std::fprintf(stderr, "listening on %s:%u\n", options.host.c_str(),
               server.port());
  std::fflush(stderr);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_shutdown == 0) {
    timespec sleep_for{0, 50 * 1000 * 1000};
    nanosleep(&sleep_for, nullptr);
  }
  std::fprintf(stderr, "draining...\n");
  server.Stop();
  // Dump the slow-query log on the way out: the last place those entries
  // exist once the process dies, and exactly when an operator wants them.
  const seda::obs::SlowLog& slowlog = service.slow_log();
  const auto entries = slowlog.Entries();
  if (!entries.empty()) {
    std::fprintf(stderr, "slow-query log (%llu logged, %zu retained):\n",
                 static_cast<unsigned long long>(slowlog.TotalLogged()),
                 entries.size());
    for (const seda::obs::SlowLogEntry& entry : entries) {
      std::fprintf(stderr,
                   "  #%llu %s %.3fms (threshold %llums)%s%s %s\n",
                   static_cast<unsigned long long>(entry.seq),
                   entry.method.c_str(), entry.elapsed_ms,
                   static_cast<unsigned long long>(entry.threshold_ms),
                   entry.sampled ? " [sampled]" : "",
                   entry.deadline_exceeded ? " [deadline]" : "",
                   entry.detail.c_str());
    }
  }
  const auto& stats = server.stats();
  std::fprintf(stderr,
               "served %llu frames (%llu shed, %llu protocol errors) over "
               "%llu connections\n",
               static_cast<unsigned long long>(stats.frames_received.load()),
               static_cast<unsigned long long>(stats.requests_shed.load()),
               static_cast<unsigned long long>(stats.protocol_errors.load()),
               static_cast<unsigned long long>(
                   stats.connections_accepted.load()));
  return 0;
}
