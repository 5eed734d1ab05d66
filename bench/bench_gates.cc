// Speed gates: four timing properties that no equivalence test can check,
// each measured on a small generated corpus against a fixed threshold.
// Exits 1 when any gate fails. The answers behind each timing are checked
// for equality by ctest; this binary only times them.
//
//  1. csr:  the CSR distance kernels answer ConnectionSize({hub, item}) at
//           least 3x faster than the reference hash-map BFS
//           (tests/reference/) on the 1 hub + 200 satellite corpus, where
//           every satellite links to the hub (visit budget off).
//  2. cube: the columnar star-schema extraction is at least 3x faster than
//           the tree walk, Fig. 3(b) catalog on Factbook 0.05.
//  3. span: always-on span tracking costs at most 10% over tracing off on
//           8 sessions x 16 searches (processor time of the process, best
//           of 8 alternating rounds).
//  4. open: a fresh-process Seda::Open costs at most 8 ms per MiB of image
//           (Factbook 0.05 with the trade_partner value edges).
//
// Usage:
//   bench_gates [--image PATH]   keep the saved image at PATH (for
//                                seda_audit and the server smoke)
//   bench_gates --reopen PATH    open PATH in this process and print its
//                                OPEN_MS (how gate 4 runs its fresh process)

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "core/seda.h"
#include "data/generators.h"
#include "graph/data_graph.h"
#include "reference/bfs.h"
#include "store/document_store.h"

using Clock = std::chrono::steady_clock;

namespace {

constexpr double kMinCsrSpeedup = 3.0;
constexpr double kMinCubeSpeedup = 3.0;
constexpr double kMaxSpanOverhead = 0.10;
// One x86-64 server core takes 4-5 ms/MiB at Factbook 0.05 and ~3.5 at 1.0,
// most of it decoding the document trees and checksumming the image.
// Rebuilding the inverted index and the dataguides on open instead of
// loading them reads ~8.7 ms/MiB at 0.05 (the index alone ~6.2).
constexpr double kMaxOpenMsPerMib = 8.0;

constexpr double kScale = 0.05;
constexpr const char* kName = "/country/name";
constexpr const char* kYear = "/country/year";
constexpr const char* kTrade =
    "/country/economy/import_partners/item/trade_country";
constexpr const char* kPct = "/country/economy/import_partners/item/percentage";
constexpr const char* kProbeQuery = R"((name, "United States") AND (GDP, *))";

double Ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Processor time this process has used, all threads summed. Unlike wall
/// time it does not grow while other processes hold the cores.
double ProcessCpuMs() {
  timespec now{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) * 1e3 +
         static_cast<double>(now.tv_nsec) / 1e6;
}

bool Report(const char* gate, double value, const char* unit, bool pass,
            const char* bound) {
  std::printf("%-5s %8.2f%-7s (gate %s): %s\n", gate, value, unit, bound,
              pass ? "PASS" : "FAIL");
  return pass;
}

void PopulateFactbook(seda::store::DocumentStore* store) {
  seda::data::WorldFactbookGenerator::Options options;
  options.scale = kScale;
  seda::data::WorldFactbookGenerator(options).Populate(store);
}

bool CsrGate() {
  constexpr int kSatellites = 200;
  seda::store::DocumentStore store;
  auto us = store.AddXml(
      "<country><name>United States</name><economy><GDP>14000</GDP>"
      "</economy></country>",
      "us");
  if (!us.ok()) return false;
  for (int i = 0; i < kSatellites; ++i) {
    auto doc = store.AddXml(
        "<country><name>Satellite " + std::to_string(i) +
            "</name><economy><import_partners><item>"
            "<trade_country>United States</trade_country><percentage>" +
            std::to_string(10 + i % 80) +
            ".5</percentage></item></import_partners></economy></country>",
        "satellite-" + std::to_string(i));
    if (!doc.ok()) return false;
  }
  seda::graph::DataGraph graph(&store);
  graph.AddValueBasedEdges(kName, kTrade, "trade_partner");
  if (!graph.BuildCsr()) return false;
  seda::reference::ReferenceGraph reference(graph);

  // The hub name node against every satellite's item: distance 2 through
  // the hub's value edge, the dominant hop of cross-document scoring.
  const seda::store::NodeId hub{us.value(), seda::xml::DeweyId::Parse("1.1")};
  std::vector<std::vector<seda::store::NodeId>> pairs;
  for (int i = 0; i < kSatellites; ++i) {
    pairs.push_back({hub, {static_cast<seda::store::DocId>(1 + i),
                           seda::xml::DeweyId::Parse("1.2.1.1")}});
  }
  // Microseconds per pair over 3 passes, after one warm-up pass that must
  // connect every pair.
  auto time_us = [&](const auto& connection_size) -> std::optional<double> {
    for (const auto& pair : pairs) {
      if (!connection_size(pair)) return std::nullopt;
    }
    constexpr int kRuns = 3;
    const auto start = Clock::now();
    for (int run = 0; run < kRuns; ++run) {
      for (const auto& pair : pairs) connection_size(pair);
    }
    return 1000.0 * Ms(start) / (kRuns * pairs.size());
  };
  const auto reference_us = time_us(
      [&](const auto& pair) { return reference.ConnectionSize(pair); });
  const auto csr_us = time_us(
      [&](const auto& pair) { return graph.ConnectionSize(pair); });
  if (!reference_us || !csr_us) {
    std::printf("csr: a hub pair did not connect\n");
    return false;
  }
  const double speedup = *csr_us > 0 ? *reference_us / *csr_us : 0.0;
  return Report("csr", speedup, "x", speedup >= kMinCsrSpeedup, ">= 3x");
}

bool CubeGate() {
  seda::core::Seda seda;
  PopulateFactbook(seda.mutable_store());
  if (!seda.Finalize().ok()) return false;
  auto snap = seda.snapshot();
  using seda::cube::RelativeKey;
  seda::cube::Catalog catalog;
  (void)catalog.DefineDimension("country",
                                {{kName, RelativeKey::Parse({kName, kYear})}});
  (void)catalog.DefineDimension("year",
                                {{kYear, RelativeKey::Parse({kName, kYear})}});
  (void)catalog.DefineDimension(
      "import-country", {{kTrade, RelativeKey::Parse({kName, kYear, "."})}});
  (void)catalog.DefineFact(
      "import-trade-percentage",
      {{kPct, RelativeKey::Parse({kName, kYear, "../trade_country"})}});
  auto query =
      seda::query::ParseQuery("(trade_country, *) AND (percentage, *)");
  if (!query.ok()) return false;
  auto result = snap->CompleteResults(query.value(), {kTrade, kPct}, {});
  if (!result.ok()) return false;

  seda::cube::CubeBuilder columns(&snap->store(), &catalog, &snap->columns());
  seda::cube::CubeBuilder tree_walk(&snap->store(), &catalog,
                                    /*columns=*/nullptr);
  // One warm-up build each, then 10 alternating timed builds.
  if (!columns.Build(result.value()).ok() ||
      !tree_walk.Build(result.value()).ok()) {
    return false;
  }
  double columns_ms = 0, tree_ms = 0;
  for (int rep = 0; rep < 10; ++rep) {
    auto start = Clock::now();
    const bool built = columns.Build(result.value()).ok();
    columns_ms += Ms(start);
    start = Clock::now();
    if (!built || !tree_walk.Build(result.value()).ok()) return false;
    tree_ms += Ms(start);
  }
  const double speedup = columns_ms > 0 ? tree_ms / columns_ms : 0.0;
  return Report("cube", speedup, "x", speedup >= kMinCubeSpeedup, ">= 3x");
}

/// One pass of the span workload: 8 session threads, 16 searches each.
/// Processor ms of the pass, or nullopt when a request fails.
std::optional<double> RunSearches(seda::api::SedaService* service) {
  static const char* const kQueries[] = {
      R"((*, "United States") AND (trade_country, *))",
      R"((trade_country, "China") AND (percentage, *))",
      R"((name, *) AND (GDP_ppp, *))",
      R"((*, "refugees"))",
  };
  constexpr size_t kSessions = 8;
  constexpr size_t kRequests = 16;
  std::atomic<bool> failed{false};
  const double start_ms = ProcessCpuMs();
  std::vector<std::thread> workers;
  for (size_t s = 0; s < kSessions; ++s) {
    workers.emplace_back([&, s] {
      auto created = service->CreateSession(seda::api::CreateSessionRequest{});
      if (!created.status.ok()) {
        failed.store(true);
        return;
      }
      for (size_t r = 0; r < kRequests; ++r) {
        seda::api::SearchRequest request;
        request.session_id = created.session_id;
        request.query = kQueries[(s + r) % std::size(kQueries)];
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
  const double cpu_ms = ProcessCpuMs() - start_ms;
  if (failed.load()) return std::nullopt;
  return cpu_ms;
}

bool SpanGate() {
  seda::core::Seda seda;
  PopulateFactbook(seda.mutable_store());
  if (!seda.Finalize().ok()) return false;
  seda::api::ServiceOptions off_options;
  off_options.tracing = false;
  seda::api::SedaService off(&seda, off_options);
  seda::api::SedaService on(&seda);  // the default: spans on, never shipped
  // A warm-up pass each, then 8 alternating rounds; the best pass of each
  // mode is compared. Passes are timed in processor time, so cores taken by
  // other processes do not count, and the best of 8 absorbs cache and
  // frequency noise.
  if (!RunSearches(&off) || !RunSearches(&on)) return false;
  double best_off = 0, best_on = 0;
  for (int round = 0; round < 8; ++round) {
    const auto off_ms = RunSearches(&off);
    const auto on_ms = RunSearches(&on);
    if (!off_ms || !on_ms) return false;
    best_off = round == 0 ? *off_ms : std::min(best_off, *off_ms);
    best_on = round == 0 ? *on_ms : std::min(best_on, *on_ms);
  }
  const double overhead = best_off > 0 ? (best_on - best_off) / best_off : 0.0;
  return Report("span", 100.0 * overhead, "%", overhead <= kMaxSpanOverhead,
                "<= 10%");
}

int ReopenMode(const std::string& path) {
  seda::core::Seda seda;
  const auto start = Clock::now();
  const seda::Status opened = seda.Open(path);
  const double open_ms = Ms(start);
  if (!opened.ok()) {
    std::printf("open failed: %s\n", opened.ToString().c_str());
    return 1;
  }
  auto response = seda.snapshot()->Search(kProbeQuery);
  if (!response.ok() || response->topk.empty()) {
    std::printf("the reopened image does not answer the probe query\n");
    return 1;
  }
  std::printf("OPEN_MS=%.4f\n", open_ms);
  return 0;
}

/// Runs `self --reopen image` — a restart, so Open does not inherit this
/// process's heap — and returns the Open latency the child measured.
std::optional<double> FreshProcessOpenMs(const char* self,
                                         const std::string& image) {
  const std::string command = std::string(self) + " --reopen " + image;
  std::FILE* child = ::popen(command.c_str(), "r");
  if (child == nullptr) return std::nullopt;
  std::optional<double> open_ms;
  char line[256];
  while (std::fgets(line, sizeof(line), child) != nullptr) {
    double value = 0;
    if (std::sscanf(line, "OPEN_MS=%lf", &value) == 1) open_ms = value;
  }
  if (::pclose(child) != 0) return std::nullopt;
  return open_ms;
}

bool OpenGate(const char* self, const std::string& image) {
  // The served configuration: the value-based trade_partner relationship
  // of the paper's scenario, and tight top-k budgets that travel inside the
  // image.
  seda::core::SedaOptions options;
  options.value_edges.push_back({kName, kTrade, "trade_partner"});
  options.topk.max_tuples_per_query = 500;
  options.topk.max_connect_visits = 256;
  seda::core::Seda seda;
  PopulateFactbook(seda.mutable_store());
  if (!seda.Finalize(options).ok() || !seda.Save(image).ok()) return false;
  const double mib =
      static_cast<double>(std::filesystem::file_size(image)) / (1024 * 1024);
  const auto open_ms = FreshProcessOpenMs(self, image);
  if (!open_ms) {
    std::printf("open: the fresh process failed to open %s\n", image.c_str());
    return false;
  }
  const double ms_per_mib = mib > 0 ? *open_ms / mib : 0.0;
  return Report("open", ms_per_mib, " ms/MiB", ms_per_mib <= kMaxOpenMsPerMib,
                "<= 8 ms/MiB");
}

}  // namespace

int main(int argc, char** argv) {
  std::string image;
  if (argc == 3 && std::strcmp(argv[1], "--reopen") == 0) {
    return ReopenMode(argv[2]);
  }
  if (argc == 3 && std::strcmp(argv[1], "--image") == 0) {
    image = argv[2];
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--image PATH]\n", argv[0]);
    return 2;
  }
  const bool keep_image = !image.empty();
  if (!keep_image) image = "bench_gates.img";

  bool pass = CsrGate();
  pass = CubeGate() && pass;
  pass = SpanGate() && pass;
  pass = OpenGate(argv[0], image) && pass;
  if (!keep_image) std::remove(image.c_str());
  return pass ? 0 : 1;
}
