// Persistence bench: cold Finalize() (full ingestion: parse + link resolve +
// tokenize/index + dataguide probing) vs Snapshot::Save vs Seda::Open on a
// mid-sized Factbook. Open reads a validated mmap'd image and materializes
// the structures without re-running any ingestion stage, so reopening a
// warehouse is O(image size) — the property the CI smoke gates: a
// fresh-process Open must stay within a fixed budget per MiB of image, and
// the loaded epoch must serve byte-identical answers (exit 1 on either
// failure). Emits BENCH_persist.json for the perf trajectory.
//
// Modes:
//   bench_snapshot_io [--scale S] [--out F] [--image PATH] [--keep-image]
//       full bench: build, save, reopen, verify, emit JSON
//   bench_snapshot_io --reopen PATH
//       open an existing image in THIS process (for the CI step that saves in
//       one process and reopens in a genuinely fresh one), run the probe
//       query, print timings; exit 1 if the image fails to load or serve.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/seda.h"
#include "data/generators.h"
#include "xml/parser.h"

using Clock = std::chrono::steady_clock;

namespace {

// The CI smoke's budget for a fresh-process Open. One x86-64 server core
// takes 4.2-6.3 ms/MiB at --scale 0.05 to 0.2 and ~3.5 at 1.0, most of it
// decoding the document trees and checksumming the image; rebuilding the
// inverted index on open instead of loading it reads 11-14 ms/MiB at 0.05.
constexpr double kMaxOpenMsPerMib = 8.0;

constexpr const char* kProbeQuery = R"((name, "United States") AND (GDP, *))";

double Ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::string EpochDigest(const seda::core::Snapshot& snap) {
  std::string out;
  out += "docs=" + std::to_string(snap.store().DocumentCount());
  out += " nodes=" + std::to_string(snap.store().TotalNodeCount());
  out += " paths=" + std::to_string(snap.store().paths().size());
  out += " edges=" + std::to_string(snap.data_graph().EdgeCount());
  out += " terms=" + std::to_string(snap.index().TermCount());
  out += " indexed=" + std::to_string(snap.index().IndexedNodeCount());
  out += " guides=" + std::to_string(snap.dataguides().size());
  out += " merges=" + std::to_string(snap.dataguides().build_stats().merges);
  out += " links=" + std::to_string(snap.dataguides().LinkCount());
  return out;
}

std::string ProbeFingerprint(const seda::core::Snapshot& snap) {
  auto response = snap.Search(kProbeQuery);
  if (!response.ok()) return "probe-failed: " + response.status().ToString();
  std::string out;
  for (const auto& tuple : response->topk) {
    out += tuple.ToString(snap.store()) + "\n";
  }
  out += response->contexts.ToString();
  out += response->connections.ToString();
  return out;
}

long FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  return size;
}

int ReopenMode(const std::string& path) {
  std::printf("=== Reopen-only mode (fresh process) ===\n");
  seda::core::Seda seda;
  auto open_start = Clock::now();
  seda::Status opened = seda.Open(path);
  double open_ms = Ms(open_start);
  if (!opened.ok()) {
    std::printf("FAIL: %s\n", opened.ToString().c_str());
    return 1;
  }
  std::printf("%-44s %9.1f ms  (%zu docs, epoch %llu)\n", "Seda::Open(image)",
              open_ms, seda.snapshot()->store().DocumentCount(),
              static_cast<unsigned long long>(seda.snapshot()->epoch()));
  auto response = seda.snapshot()->Search(kProbeQuery);
  if (!response.ok() || response->topk.empty()) {
    std::printf("FAIL: probe query on reopened image\n");
    return 1;
  }
  // Machine-parsed by the parent bench process (see FreshProcessOpenMs).
  std::printf("OPEN_MS=%.4f\n", open_ms);
  std::printf("probe query served %zu tuples from the reopened image  OK\n",
              response->topk.size());
  return 0;
}

/// Reopens `image` in a fresh child process — what a restart actually is —
/// and returns the child's measured Seda::Open latency. An in-process reopen
/// right after a full cold build measures the cold build's heap as much as
/// the image. Returns < 0 on failure.
double FreshProcessOpenMs(const char* self, const std::string& image) {
  std::string report = image + ".open_ms";
  std::string command = std::string(self) + " --reopen " + image + " > " +
                        report + " 2>&1";
  if (std::system(command.c_str()) != 0) return -1.0;
  double open_ms = -1.0;
  if (std::FILE* f = std::fopen(report.c_str(), "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      double value = 0;
      if (std::sscanf(line, "OPEN_MS=%lf", &value) == 1) open_ms = value;
    }
    std::fclose(f);
  }
  std::remove(report.c_str());
  return open_ms;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;  // full synthetic Factbook, ~1600 documents
  std::string out_path = "BENCH_persist.json";
  std::string image_path = "snapshot_bench.img";
  bool keep_image = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--keep-image") == 0) {
      keep_image = true;
      continue;
    }
    if (i + 1 >= argc) break;
    if (std::strcmp(argv[i], "--scale") == 0) scale = std::atof(argv[++i]);
    else if (std::strcmp(argv[i], "--out") == 0) out_path = argv[++i];
    else if (std::strcmp(argv[i], "--image") == 0) image_path = argv[++i];
    else if (std::strcmp(argv[i], "--reopen") == 0) return ReopenMode(argv[i + 1]);
  }

  std::printf("=== Snapshot persistence: cold build vs save vs reopen ===\n");
  // The corpus as a process would find it on disk after a restart: raw XML.
  // (The generator emits parsed trees; serializing them back gives every
  // contender the same starting line.)
  std::vector<std::string> xml_docs;
  std::vector<std::string> names;
  {
    seda::store::DocumentStore staging;
    seda::data::WorldFactbookGenerator::Options data_options;
    data_options.scale = scale;
    seda::data::WorldFactbookGenerator(data_options).Populate(&staging);
    xml_docs.reserve(staging.DocumentCount());
    for (seda::store::DocId d = 0; d < staging.DocumentCount(); ++d) {
      xml_docs.push_back(seda::xml::Serialize(staging.document(d)));
      names.push_back(staging.document(d).name());
    }
  }
  size_t docs = xml_docs.size();

  // The production configuration of the paper's scenario: IDREF/XLink
  // resolution plus the value-based trade_partner relationship provided as
  // input (§3) — cold starts pay its full-store resolution scans, reopens
  // replay the resolved edge log from the image.
  seda::core::SedaOptions options;
  options.value_edges.push_back(
      {"/country/name", "/country/economy/import_partners/item/trade_country",
       "trade_partner"});
  // Tight serving budgets for the equivalence probes: this bench measures
  // persistence, not engine throughput, and the budgets travel inside the
  // image, so cold and reopened instances trim identically.
  options.topk.max_tuples_per_query = 500;
  options.topk.max_connect_visits = 256;

  // 1. Cold start: the full ingestion pipeline every process pays today —
  // XML parsing, link + value-edge resolution, tokenization + indexing,
  // dataguide probing.
  seda::core::Seda cold;
  auto finalize_start = Clock::now();
  for (size_t d = 0; d < docs; ++d) {
    if (!cold.AddXml(xml_docs[d], names[d]).ok()) return 1;
  }
  if (!cold.Finalize(options).ok()) return 1;
  double cold_ms = Ms(finalize_start);
  std::printf("%-44s %9.1f ms  (%zu docs)\n",
              "cold start (parse + Finalize ingestion)", cold_ms, docs);

  // 2. Save the epoch to a binary image.
  auto save_start = Clock::now();
  if (!cold.Save(image_path).ok()) return 1;
  double save_ms = Ms(save_start);
  long image_bytes = FileSize(image_path);
  std::printf("%-44s %9.1f ms  (%.2f MiB)\n", "Snapshot::Save(image)", save_ms,
              static_cast<double>(image_bytes) / (1024.0 * 1024.0));

  // 3. Reopen it in a fresh process (what a restart is): validation +
  // materialization only, measured by the child itself.
  double open_ms = FreshProcessOpenMs(argv[0], image_path);
  if (open_ms < 0) {
    std::printf("FAIL: fresh-process reopen failed\n");
    return 1;
  }
  std::printf("%-44s %9.1f ms\n", "Seda::Open(image) (fresh process)", open_ms);

  // In-process reopen for the equivalence check (and as a secondary number;
  // it inherits the cold build's heap, so it runs slower than a restart).
  seda::core::Seda reopened;
  auto inproc_start = Clock::now();
  seda::Status opened = reopened.Open(image_path);
  double inproc_open_ms = Ms(inproc_start);
  if (!opened.ok()) {
    std::printf("FAIL: %s\n", opened.ToString().c_str());
    return 1;
  }
  std::printf("%-44s %9.1f ms\n", "Seda::Open(image) (in-process)",
              inproc_open_ms);

  // Equivalence gate: the reopened epoch must be indistinguishable from the
  // built one — structure and served answers.
  if (EpochDigest(*cold.snapshot()) != EpochDigest(*reopened.snapshot()) ||
      ProbeFingerprint(*cold.snapshot()) !=
          ProbeFingerprint(*reopened.snapshot())) {
    std::printf("FAIL: reopened epoch diverged from the built epoch\n");
    return 1;
  }
  std::printf("equivalence: reopened image == cold build  OK\n");

  double speedup = open_ms > 0 ? cold_ms / open_ms : 0.0;
  std::printf("reopen speedup over cold ingestion: %.1fx\n", speedup);
  const double image_mib = static_cast<double>(image_bytes) / (1024.0 * 1024.0);
  const double open_ms_per_mib = image_mib > 0 ? open_ms / image_mib : 0.0;
  std::printf("fresh-process open: %.2f ms per MiB of image (budget %.2f)\n",
              open_ms_per_mib, kMaxOpenMsPerMib);

  if (FILE* json = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(json,
                 "{\n  \"bench\": \"snapshot_io\",\n  \"scale\": %.4f,\n"
                 "  \"documents\": %zu,\n  \"image_bytes\": %ld,\n"
                 "  \"cold_finalize_ms\": %.4f,\n  \"save_ms\": %.4f,\n"
                 "  \"open_ms\": %.4f,\n  \"open_ms_in_process\": %.4f,\n"
                 "  \"open_speedup\": %.4f,\n  \"open_ms_per_mib\": %.4f\n}\n",
                 scale, docs, image_bytes, cold_ms, save_ms, open_ms,
                 inproc_open_ms, speedup, open_ms_per_mib);
    std::fclose(json);
    std::printf("wrote %s\n", out_path.c_str());
  }
  if (!keep_image) std::remove(image_path.c_str());

  // Gate: Open stays O(image size) within a fixed budget. The speedup over
  // the cold build is reported, not gated: it falls whenever ingestion gets
  // faster, with Open unchanged.
  if (open_ms_per_mib > kMaxOpenMsPerMib) {
    std::printf("FAIL: fresh-process open %.2f ms/MiB over the %.2f ms/MiB "
                "budget\n",
                open_ms_per_mib, kMaxOpenMsPerMib);
    return 1;
  }
  return 0;
}
