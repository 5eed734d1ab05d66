// Snapshot commit latency: cold commit (full rebuild of every ingestion
// stage) vs. incremental commit (parsed documents shared, inverted index and
// dataguide summary extended; only link resolution rescans). Loads a
// mid-sized Factbook as epoch 1, stages a small document delta, and times
//
//   1. the initial Finalize()            — cold build of the base corpus,
//   2. Commit() of the delta             — the incremental path,
//   3. Commit({force_full_rebuild})      — cold rebuild of the same state,
//
// then cross-checks that the incremental epoch is indistinguishable from a
// from-scratch build over the combined corpus (exit 1 on any divergence, so
// the CI smoke step doubles as an equivalence gate). Emits
// BENCH_commit.json for the perf trajectory.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#include "core/seda.h"
#include "data/generators.h"

using Clock = std::chrono::steady_clock;

namespace {

double Ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::string DeltaDoc(int i) {
  return "<country><name>Deltaland " + std::to_string(i) +
         "</name><year>2008</year><economy><GDP>" + std::to_string(900 + i) +
         "</GDP><import_partners><item><trade_country>China</trade_country>"
         "<percentage>12.5</percentage></item></import_partners></economy>"
         "</country>";
}

/// Structural digest of an epoch; cheap but sensitive to any divergence in
/// store, graph, index or dataguides.
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
  out += " df_delta=" + std::to_string(snap.index().DocumentFrequency("deltaland"));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 0.25;  // ~400 documents
  size_t delta_docs = 0;  // 0 = base documents / 20, min 8
  std::string out_path = "BENCH_commit.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--scale") == 0) scale = std::atof(argv[i + 1]);
    if (std::strcmp(argv[i], "--delta") == 0)
      delta_docs = static_cast<size_t>(std::atoi(argv[i + 1]));
    if (std::strcmp(argv[i], "--out") == 0) out_path = argv[i + 1];
  }

  std::printf("=== Snapshot commits: cold vs incremental ===\n");
  seda::core::Seda seda;
  seda::data::WorldFactbookGenerator::Options data_options;
  data_options.scale = scale;
  seda::data::WorldFactbookGenerator(data_options).Populate(seda.mutable_store());
  size_t base_docs = seda.mutable_store()->DocumentCount();
  if (delta_docs == 0) delta_docs = base_docs / 20 > 8 ? base_docs / 20 : 8;

  // 1. Cold build of the base corpus: the first commit.
  auto finalize_start = Clock::now();
  if (!seda.Finalize().ok()) return 1;
  double cold_initial_ms = Ms(finalize_start);
  std::printf("%-44s %9.1f ms  (%zu docs)\n", "finalize (cold commit, epoch 1)",
              cold_initial_ms, base_docs);

  // 2. Incremental commit of the delta.
  for (size_t i = 0; i < delta_docs; ++i) {
    auto added = seda.AddXml(DeltaDoc(static_cast<int>(i)),
                             "delta-" + std::to_string(i));
    if (!added.ok()) return 1;
  }
  auto inc_start = Clock::now();
  auto inc_info = seda.Commit();
  double incremental_ms = Ms(inc_start);
  if (!inc_info.ok() || !inc_info->incremental) {
    std::printf("incremental commit failed\n");
    return 1;
  }
  std::printf("%-44s %9.1f ms  (+%zu docs, epoch %llu)\n",
              "incremental commit (index/guides extended)", incremental_ms,
              delta_docs, static_cast<unsigned long long>(inc_info->epoch));
  std::string incremental_digest = EpochDigest(*seda.snapshot());

  // 3. Cold rebuild of the very same state, for the apples-to-apples ratio.
  auto full_start = Clock::now();
  seda::core::Seda::CommitOptions force;
  force.force_full_rebuild = true;
  auto full_info = seda.Commit(force);
  double full_rebuild_ms = Ms(full_start);
  if (!full_info.ok()) return 1;
  std::printf("%-44s %9.1f ms  (same %zu docs)\n",
              "forced full-rebuild commit", full_rebuild_ms,
              base_docs + delta_docs);

  // Equivalence gate 1: the forced rebuild must reproduce the incremental
  // epoch bit for bit.
  if (EpochDigest(*seda.snapshot()) != incremental_digest) {
    std::printf("FAIL: full rebuild diverged from incremental epoch\n");
    return 1;
  }

  // Equivalence gate 2: a separate single-epoch instance over the combined
  // corpus must serve identical search results.
  seda::core::Seda cold;
  seda::data::WorldFactbookGenerator(data_options).Populate(cold.mutable_store());
  for (size_t i = 0; i < delta_docs; ++i) {
    (void)cold.AddXml(DeltaDoc(static_cast<int>(i)), "delta-" + std::to_string(i));
  }
  if (!cold.Finalize().ok()) return 1;
  if (EpochDigest(*cold.snapshot()) != incremental_digest) {
    std::printf("FAIL: incremental epoch diverged from cold combined build\n");
    return 1;
  }
  const char* probe = R"((name, "Deltaland") AND (GDP, *))";
  auto inc_response = seda.snapshot()->Search(probe);
  auto cold_response = cold.snapshot()->Search(probe);
  if (!inc_response.ok() || !cold_response.ok() ||
      inc_response->topk.size() != cold_response->topk.size() ||
      inc_response->topk.empty()) {
    std::printf("FAIL: probe query diverged between incremental and cold\n");
    return 1;
  }
  for (size_t i = 0; i < inc_response->topk.size(); ++i) {
    if (inc_response->topk[i].ToString(seda.snapshot()->store()) !=
        cold_response->topk[i].ToString(cold.snapshot()->store())) {
      std::printf("FAIL: probe tuple %zu diverged\n", i);
      return 1;
    }
  }
  std::printf("equivalence: incremental == forced full == cold combined  OK\n");

  double speedup = incremental_ms > 0 ? full_rebuild_ms / incremental_ms : 0.0;
  std::printf("incremental commit speedup over full rebuild: %.2fx\n", speedup);

  if (FILE* json = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(json,
                 "{\n  \"bench\": \"commit_epochs\",\n  \"scale\": %.4f,\n"
                 "  \"base_documents\": %zu,\n  \"delta_documents\": %zu,\n"
                 "  \"cold_initial_commit_ms\": %.4f,\n"
                 "  \"incremental_commit_ms\": %.4f,\n"
                 "  \"full_rebuild_commit_ms\": %.4f,\n"
                 "  \"incremental_speedup\": %.4f,\n"
                 "  \"epochs_committed\": %llu\n}\n",
                 scale, base_docs, delta_docs, cold_initial_ms, incremental_ms,
                 full_rebuild_ms, speedup,
                 static_cast<unsigned long long>(full_info->epoch));
    std::fclose(json);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
