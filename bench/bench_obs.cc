// Observability overhead gate: a multi-session service workload (each
// session thread runs a stream of keyword searches over one loaded image)
// run twice per round — ServiceOptions::tracing=false (span tracking fully
// off) vs tracing=true with no request asking for a trace (the production
// default: spans are opened and timed, never detached). The gate holds the
// delta under --max-overhead (default 3%): the always-on span path must stay
// two clock reads per span, or this bench fails the build.
//
// Rounds alternate off/on and the best (minimum) wall time per mode is
// compared, so one scheduler hiccup cannot fail the gate by itself.
//
//   ./bench_obs --scale 0.25 --requests 48 --rounds 8 --out BENCH_obs.json

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

const char* kQueries[] = {
    R"((*, "United States") AND (trade_country, *))",
    R"((trade_country, "China") AND (percentage, *))",
    R"((name, *) AND (GDP_ppp, *))",
    R"((*, "refugees"))",
};

/// One full workload pass: `sessions` threads, `requests` searches each.
/// Returns wall ms, or a negative value on request failure.
double RunWorkload(seda::api::SedaService* service, size_t sessions,
                   size_t requests) {
  std::atomic<bool> failed{false};
  const auto wall_start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    workers.emplace_back([&, s] {
      auto created =
          service->CreateSession(seda::api::CreateSessionRequest{});
      if (!created.status.ok()) {
        failed.store(true);
        return;
      }
      for (size_t r = 0; r < requests; ++r) {
        seda::api::SearchRequest request;
        request.session_id = created.session_id;
        request.query =
            kQueries[(s + r) % (sizeof(kQueries) / sizeof(*kQueries))];
        if (!service->Search(request).status.ok()) {
          failed.store(true);
          return;
        }
      }
      (void)service->CloseSession(
          seda::api::CloseSessionRequest{created.session_id});
    });
  }
  for (std::thread& worker : workers) worker.join();
  const double wall_ms = Ms(wall_start, Clock::now());
  return failed.load() ? -1.0 : wall_ms;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.25;
  size_t sessions = 8;
  size_t requests = 48;
  size_t rounds = 8;
  double max_overhead = 0.03;
  std::string out_path = "BENCH_obs.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--scale") == 0) scale = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--sessions") == 0) {
      sessions = static_cast<size_t>(std::atoi(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--requests") == 0) {
      requests = static_cast<size_t>(std::atoi(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--rounds") == 0) {
      rounds = static_cast<size_t>(std::atoi(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--max-overhead") == 0) {
      max_overhead = std::atof(argv[i + 1]);
    }
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  std::printf("=== observability overhead gate (tracing off vs on) ===\n");

  seda::core::Seda seda;
  seda::data::WorldFactbookGenerator::Options corpus;
  corpus.scale = scale;
  seda::data::WorldFactbookGenerator(corpus).Populate(seda.mutable_store());
  if (!seda.Finalize().ok()) {
    std::printf("finalize failed\n");
    return 1;
  }
  std::printf("corpus: %zu docs, %zu sessions x %zu requests, %zu rounds\n",
              seda.snapshot()->store().DocumentCount(), sessions, requests,
              rounds);

  seda::api::ServiceOptions off_options;
  off_options.tracing = false;
  seda::api::SedaService off_service(&seda, off_options);
  seda::api::SedaService on_service(&seda);  // default: tracing on, untraced

  // Warmup both services once (first-touch allocations, page faults).
  if (RunWorkload(&off_service, sessions, requests) < 0 ||
      RunWorkload(&on_service, sessions, requests) < 0) {
    std::printf("warmup failed\n");
    return 1;
  }

  std::vector<double> off_ms;
  std::vector<double> on_ms;
  for (size_t round = 0; round < rounds; ++round) {
    const double off = RunWorkload(&off_service, sessions, requests);
    const double on = RunWorkload(&on_service, sessions, requests);
    if (off < 0 || on < 0) {
      std::printf("round %zu failed\n", round);
      return 1;
    }
    off_ms.push_back(off);
    on_ms.push_back(on);
    std::printf("round %zu: tracing-off %8.1f ms   tracing-on %8.1f ms\n",
                round, off, on);
  }

  const double best_off = *std::min_element(off_ms.begin(), off_ms.end());
  const double best_on = *std::min_element(on_ms.begin(), on_ms.end());
  const double overhead = best_off > 0 ? (best_on - best_off) / best_off : 0;
  const bool pass = overhead <= max_overhead;
  const size_t total = sessions * requests;
  std::printf("best: off %.1f ms (%.0f req/s)  on %.1f ms (%.0f req/s)\n",
              best_off, 1000.0 * static_cast<double>(total) / best_off,
              best_on, 1000.0 * static_cast<double>(total) / best_on);
  std::printf("span-tracking overhead: %+.2f%% (gate %.0f%%) -> %s\n",
              overhead * 100.0, max_overhead * 100.0,
              pass ? "PASS" : "FAIL");

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) return 1;
  std::fprintf(out,
               "{\"bench\":\"obs_overhead\",\"scale\":%g,\"sessions\":%zu,"
               "\"requests_per_session\":%zu,\"rounds\":%zu,"
               "\"best_off_ms\":%.2f,\"best_on_ms\":%.2f,"
               "\"overhead\":%.4f,\"max_overhead\":%.4f,\"pass\":%s}\n",
               scale, sessions, requests, rounds, best_off, best_on, overhead,
               max_overhead, pass ? "true" : "false");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  return pass ? 0 : 1;
}
