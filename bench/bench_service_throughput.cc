// Service-facade throughput: drives api::SedaService with 1 / 8 / 32
// concurrent sessions over a snapshot image loaded the way a serving process
// would (Save() then Open(), not re-ingestion), and reports requests/sec and
// p50/p99 request latency per concurrency level — the baseline the HTTP
// frontend and admission-control work builds on.
//
//   ./bench_service_throughput --scale 0.25 --requests 64 --out BENCH_service.json

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "core/seda.h"
#include "data/generators.h"

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
    R"((*, "United States") AND (trade_country, *))",
    R"((trade_country, "China") AND (percentage, *))",
    R"((name, *) AND (GDP_ppp, *))",
    R"((*, "refugees"))",
};

struct Level {
  size_t sessions = 0;
  size_t requests = 0;
  double wall_ms = 0;
  double rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.25;
  size_t requests_per_session = 32;
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--scale") == 0) scale = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--requests") == 0) {
      requests_per_session = static_cast<size_t>(std::atoi(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  std::printf("=== SedaService throughput over a loaded snapshot image ===\n");

  // Stage 0: build the corpus once and save it; the served instance Opens
  // the image like a fresh serving process would.
  const std::string image = "bench_service.img";
  {
    seda::core::Seda builder;
    seda::data::WorldFactbookGenerator::Options corpus;
    corpus.scale = scale;
    seda::data::WorldFactbookGenerator(corpus).Populate(builder.mutable_store());
    if (!builder.Finalize().ok()) {
      std::printf("finalize failed\n");
      return 1;
    }
    if (!builder.Save(image).ok()) {
      std::printf("save failed\n");
      return 1;
    }
  }
  seda::core::Seda seda;
  auto open_start = Clock::now();
  if (!seda.Open(image).ok()) {
    std::printf("open failed\n");
    return 1;
  }
  std::printf("opened image (%zu docs) in %.1f ms\n",
              seda.snapshot()->store().DocumentCount(),
              Ms(open_start, Clock::now()));

  seda::api::SedaService service(&seda);
  std::vector<Level> levels;

  for (size_t sessions : {size_t{1}, size_t{8}, size_t{32}}) {
    std::vector<double> latencies;
    std::vector<std::vector<double>> per_thread(sessions);
    std::atomic<bool> failed{false};
    auto wall_start = Clock::now();
    std::vector<std::thread> workers;
    workers.reserve(sessions);
    for (size_t s = 0; s < sessions; ++s) {
      workers.emplace_back([&, s] {
        auto created =
            service.CreateSession(seda::api::CreateSessionRequest{});
        if (!created.status.ok()) {
          failed.store(true);
          return;
        }
        per_thread[s].reserve(requests_per_session);
        for (size_t r = 0; r < requests_per_session; ++r) {
          seda::api::SearchRequest request;
          request.session_id = created.session_id;
          request.query = kQueries[(s + r) % (sizeof(kQueries) / sizeof(*kQueries))];
          auto start = Clock::now();
          seda::api::SearchResponseDto response = service.Search(request);
          per_thread[s].push_back(Ms(start, Clock::now()));
          if (!response.status.ok()) {
            std::printf("request failed: %s\n", response.status.message.c_str());
            failed.store(true);
            return;
          }
        }
        (void)service.CloseSession(
            seda::api::CloseSessionRequest{created.session_id});
      });
    }
    for (std::thread& worker : workers) worker.join();
    double wall_ms = Ms(wall_start, Clock::now());
    if (failed.load()) {
      std::remove(image.c_str());
      return 1;
    }
    for (const auto& thread_latencies : per_thread) {
      latencies.insert(latencies.end(), thread_latencies.begin(),
                       thread_latencies.end());
    }
    std::sort(latencies.begin(), latencies.end());

    Level level;
    level.sessions = sessions;
    level.requests = latencies.size();
    level.wall_ms = wall_ms;
    level.rps = wall_ms > 0 ? 1000.0 * static_cast<double>(latencies.size()) /
                                  wall_ms
                            : 0;
    level.p50_ms = Percentile(latencies, 0.50);
    level.p99_ms = Percentile(latencies, 0.99);
    levels.push_back(level);
    std::printf("%2zu session(s): %5zu requests in %8.1f ms  "
                "%8.1f req/s  p50 %6.2f ms  p99 %6.2f ms\n",
                level.sessions, level.requests, level.wall_ms, level.rps,
                level.p50_ms, level.p99_ms);
  }
  std::remove(image.c_str());

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) return 1;
  std::fprintf(out, "{\"bench\":\"service_throughput\",\"scale\":%g,", scale);
  std::fprintf(out, "\"requests_per_session\":%zu,\"levels\":[",
               requests_per_session);
  for (size_t i = 0; i < levels.size(); ++i) {
    const Level& level = levels[i];
    std::fprintf(out,
                 "%s{\"sessions\":%zu,\"requests\":%zu,\"wall_ms\":%.2f,"
                 "\"rps\":%.2f,\"p50_ms\":%.3f,\"p99_ms\":%.3f}",
                 i > 0 ? "," : "", level.sessions, level.requests, level.wall_ms,
                 level.rps, level.p50_ms, level.p99_ms);
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
