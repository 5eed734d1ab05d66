// Frontend benchmark AND correctness gate for the network serving path:
//
//   1. Response equivalence — the exact bytes a TCP client receives from a
//      sharded (scatter-gather) server match the unsharded server for every
//      query, modulo the volatile stats.elapsed_ms field. A mismatch is a
//      hard failure (non-zero exit), not a report line.
//   2. Concurrent-connection throughput — N clients (1 / 8 / 32 by default)
//      each run `--requests` round trips over their own socket against the
//      sharded server; reports req/s and p50/p99 per level.
//   3. Load shedding under overload — a deliberately tiny server (1 worker,
//      queue capacity 2) receives a pipelined burst of >= 2x queue capacity
//      frames per connection. Every frame MUST come back as a well-formed
//      response — OK or an explicit `Unavailable: overloaded` envelope —
//      with zero connection resets and zero decode failures. At least one
//      frame must actually be shed, or the phase didn't test anything.
//
//   ./bench_frontend --scale 0.15 --requests 24 --shards 3 --out BENCH_frontend.json
//
// Fd budget stays far under CI limits: max 32 concurrent sockets.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "core/seda.h"
#include "data/generators.h"
#include "net/client.h"
#include "net/server.h"

using Clock = std::chrono::steady_clock;

namespace {

double Ms(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  size_t index = static_cast<size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

const char* kQueries[] = {
    R"json({"method":"search","query":"(*, \"United States\") AND (trade_country, *)","k":10})json",
    R"json({"method":"search","query":"(trade_country, \"China\") AND (percentage, *)","k":10})json",
    R"json({"method":"search","query":"(name, *) AND (GDP_ppp, *)","k":10})json",
    R"json({"method":"search","query":"(*, pacific)","k":10})json",
};

struct Level {
  size_t clients = 0;
  size_t requests = 0;
  double wall_ms = 0;
  double rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

/// In-process server over a shared engine, on an ephemeral loopback port.
struct Frontend {
  Frontend(seda::core::Seda* seda, size_t shards,
           seda::net::ServerOptions options = seda::net::ServerOptions{}) {
    seda::api::ServiceOptions service_options;
    service_options.topk_shards = shards;
    service = std::make_unique<seda::api::SedaService>(seda, service_options);
    options.port = 0;
    server = std::make_unique<seda::net::Server>(service.get(), options);
    start_status = server->Start();
  }

  seda::net::BlockingClient Connect() {
    seda::net::BlockingClient client;
    seda::Status status =
        client.Connect("127.0.0.1", server->port(), /*recv_timeout_ms=*/30000);
    if (!status.ok()) {
      std::fprintf(stderr, "connect failed: %s\n", status.ToString().c_str());
    }
    return client;
  }

  std::unique_ptr<seda::api::SedaService> service;
  std::unique_ptr<seda::net::Server> server;
  seda::Status start_status;
};

/// Response bytes with stats cleared. Timing is volatile, and the scan
/// counters legitimately differ across serving modes (each shard's TA loop
/// terminates on its own threshold) — the equivalence claim is about the
/// ranking and summaries a client acts on.
bool CanonicalBytes(const std::string& response_json, std::string* out) {
  auto decoded = seda::api::DecodeSearchResponseDto(response_json);
  if (!decoded.ok()) return false;
  seda::api::SearchResponseDto response = std::move(decoded).value();
  response.stats = seda::api::StatsDto{};
  *out = Encode(response);
  return true;
}

/// Status code of a response envelope ("" when absent/unparseable).
std::string EnvelopeCode(const std::string& response_json) {
  auto parsed = seda::api::Json::Parse(response_json);
  if (!parsed.ok()) return "";
  const seda::api::Json* status = parsed.value().Find("status");
  if (status == nullptr) return "";
  const seda::api::Json* code = status->Find("code");
  return code != nullptr ? code->AsString() : "";
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.15;
  size_t requests_per_client = 24;
  size_t shards = 3;
  std::string out_path = "BENCH_frontend.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--scale") == 0) scale = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--requests") == 0) {
      requests_per_client = static_cast<size_t>(std::atoi(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--shards") == 0) {
      shards = static_cast<size_t>(std::atoi(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  std::printf("=== TCP frontend: equivalence, concurrency, load shedding ===\n");

  seda::core::Seda seda;
  {
    seda::data::WorldFactbookGenerator::Options corpus;
    corpus.scale = scale;
    seda::data::WorldFactbookGenerator(corpus).Populate(seda.mutable_store());
    if (!seda.Finalize().ok()) {
      std::printf("finalize failed\n");
      return 1;
    }
  }
  std::printf("corpus: factbook scale %.2f (%zu docs)\n", scale,
              seda.snapshot()->store().DocumentCount());

  bool gates_ok = true;

  // --- Phase 1: sharded vs unsharded response equivalence over TCP -------
  size_t equivalence_checked = 0;
  {
    Frontend unsharded(&seda, 1);
    Frontend sharded(&seda, shards);
    if (!unsharded.start_status.ok() || !sharded.start_status.ok()) {
      std::printf("server start failed\n");
      return 1;
    }
    seda::net::BlockingClient a = unsharded.Connect();
    seda::net::BlockingClient b = sharded.Connect();
    if (!a.connected() || !b.connected()) return 1;
    for (const char* query : kQueries) {
      auto base = a.Call(query);
      auto test = b.Call(query);
      std::string base_bytes, test_bytes;
      if (!base.ok() || !test.ok() ||
          !CanonicalBytes(base.value(), &base_bytes) ||
          !CanonicalBytes(test.value(), &test_bytes) ||
          base_bytes != test_bytes) {
        std::printf("EQUIVALENCE FAILED (shards=%zu): %s\n", shards, query);
        gates_ok = false;
        continue;
      }
      ++equivalence_checked;
    }
    std::printf("equivalence: %zu/%zu queries byte-identical at shards=%zu\n",
                equivalence_checked,
                sizeof(kQueries) / sizeof(*kQueries), shards);
  }

  // --- Phase 2: concurrent connections against the sharded server -------
  std::vector<Level> levels;
  {
    Frontend frontend(&seda, shards);
    if (!frontend.start_status.ok()) return 1;
    for (size_t clients : {size_t{1}, size_t{8}, size_t{32}}) {
      std::vector<std::vector<double>> per_client(clients);
      std::atomic<bool> failed{false};
      auto wall_start = Clock::now();
      std::vector<std::thread> threads;
      threads.reserve(clients);
      for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          seda::net::BlockingClient client = frontend.Connect();
          if (!client.connected()) {
            failed.store(true);
            return;
          }
          per_client[c].reserve(requests_per_client);
          for (size_t r = 0; r < requests_per_client; ++r) {
            const char* query =
                kQueries[(c + r) % (sizeof(kQueries) / sizeof(*kQueries))];
            auto start = Clock::now();
            auto response = client.Call(query);
            per_client[c].push_back(Ms(start, Clock::now()));
            if (!response.ok() || EnvelopeCode(response.value()) != "OK") {
              failed.store(true);
              return;
            }
          }
        });
      }
      for (std::thread& thread : threads) thread.join();
      double wall_ms = Ms(wall_start, Clock::now());
      if (failed.load()) {
        std::printf("concurrency level %zu failed\n", clients);
        gates_ok = false;
        continue;
      }
      std::vector<double> latencies;
      for (const auto& client_latencies : per_client) {
        latencies.insert(latencies.end(), client_latencies.begin(),
                         client_latencies.end());
      }
      std::sort(latencies.begin(), latencies.end());
      Level level;
      level.clients = clients;
      level.requests = latencies.size();
      level.wall_ms = wall_ms;
      level.rps = wall_ms > 0
                      ? 1000.0 * static_cast<double>(latencies.size()) / wall_ms
                      : 0;
      level.p50_ms = Percentile(latencies, 0.50);
      level.p99_ms = Percentile(latencies, 0.99);
      levels.push_back(level);
      std::printf("%2zu connection(s): %5zu requests in %8.1f ms  "
                  "%8.1f req/s  p50 %6.2f ms  p99 %6.2f ms\n",
                  level.clients, level.requests, level.wall_ms, level.rps,
                  level.p50_ms, level.p99_ms);
    }
  }

  // --- Phase 3: load shedding at >= 2x queue capacity --------------------
  uint64_t shed_ok = 0, shed_overloaded = 0, shed_other = 0;
  {
    seda::net::ServerOptions tiny;
    tiny.worker_threads = 1;
    tiny.queue_capacity = 2;
    Frontend frontend(&seda, 1, tiny);
    if (!frontend.start_status.ok()) return 1;
    constexpr size_t kClients = 4;
    // 16 pipelined frames per connection: 64 total against capacity 2.
    constexpr size_t kBurst = 16;
    std::atomic<uint64_t> resets{0};
    std::atomic<uint64_t> ok{0}, overloaded{0}, other{0};
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&] {
        seda::net::BlockingClient client = frontend.Connect();
        if (!client.connected()) {
          resets.fetch_add(kBurst);
          return;
        }
        std::string burst;
        for (size_t r = 0; r < kBurst; ++r) {
          burst += seda::net::EncodeFrame(kQueries[0]);
        }
        if (!client.SendRaw(burst).ok()) {
          resets.fetch_add(kBurst);
          return;
        }
        for (size_t r = 0; r < kBurst; ++r) {
          auto response = client.ReadFrame();
          if (!response.ok()) {
            // Connection reset / torn frame: the failure the gate forbids.
            resets.fetch_add(kBurst - r);
            return;
          }
          const std::string code = EnvelopeCode(response.value());
          if (code == "OK") {
            ok.fetch_add(1);
          } else if (code == "Unavailable") {
            overloaded.fetch_add(1);
          } else {
            other.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    shed_ok = ok.load();
    shed_overloaded = overloaded.load();
    shed_other = other.load();
    std::printf("overload burst: %llu ok, %llu overloaded, %llu other, "
                "%llu resets (of %zu frames)\n",
                static_cast<unsigned long long>(shed_ok),
                static_cast<unsigned long long>(shed_overloaded),
                static_cast<unsigned long long>(shed_other),
                static_cast<unsigned long long>(resets.load()),
                kClients * kBurst);
    if (resets.load() != 0 || shed_other != 0 ||
        shed_ok + shed_overloaded != kClients * kBurst) {
      std::printf("LOAD-SHED GATE FAILED: responses lost or malformed\n");
      gates_ok = false;
    }
    if (shed_overloaded == 0) {
      std::printf("LOAD-SHED GATE FAILED: burst never tripped admission\n");
      gates_ok = false;
    }
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) return 1;
  std::fprintf(out, "{\"bench\":\"frontend\",\"scale\":%g,\"shards\":%zu,",
               scale, shards);
  std::fprintf(out, "\"equivalent_queries\":%zu,", equivalence_checked);
  std::fprintf(out, "\"requests_per_client\":%zu,\"levels\":[",
               requests_per_client);
  for (size_t i = 0; i < levels.size(); ++i) {
    const Level& level = levels[i];
    std::fprintf(out,
                 "%s{\"clients\":%zu,\"requests\":%zu,\"wall_ms\":%.2f,"
                 "\"rps\":%.2f,\"p50_ms\":%.3f,\"p99_ms\":%.3f}",
                 i > 0 ? "," : "", level.clients, level.requests,
                 level.wall_ms, level.rps, level.p50_ms, level.p99_ms);
  }
  std::fprintf(out,
               "],\"overload\":{\"ok\":%llu,\"overloaded\":%llu,"
               "\"other\":%llu},\"gates_ok\":%s}\n",
               static_cast<unsigned long long>(shed_ok),
               static_cast<unsigned long long>(shed_overloaded),
               static_cast<unsigned long long>(shed_other),
               gates_ok ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return gates_ok ? 0 : 1;
}
