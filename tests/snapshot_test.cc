#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/seda.h"
#include "data/generators.h"

namespace seda::core {
namespace {

constexpr const char* kQuery1 =
    R"((*, "United States") AND (trade_country, *) AND (percentage, *))";

SedaOptions ScenarioOptions() {
  SedaOptions options;
  options.value_edges.push_back(
      {"/country/name", "/country/economy/import_partners/item/trade_country",
       "trade_partner"});
  return options;
}

/// A synthetic second-epoch document crafted to land in Query 1's top-k: its
/// name contains the phrase "United States" and it carries trade_country /
/// percentage leaves, so any commit leakage into a pinned epoch changes
/// results visibly. Deliberately does NOT trade with the United States —
/// that would mint value-based edges onto the US name hub and blow up
/// cross-document tuple enumeration, which is noise for these tests.
std::string EpochTwoCountry(int i) {
  return "<country><name>New United States " + std::to_string(i) +
         "</name><year>2010</year><economy><import_partners><item>"
         "<trade_country>Canada</trade_country><percentage>" +
         std::to_string(40 + i) +
         ".5</percentage></item></import_partners></economy></country>";
}

/// Byte-exact serialization of everything a SearchResponse carries that a
/// user can observe: ranked tuples with exact (hex-float) scores, both
/// summaries, and the serving epoch unless masked for cross-epoch compares.
std::string ResponseFingerprint(const SearchResponse& response,
                                const store::DocumentStore& store,
                                bool include_epoch = true) {
  std::string out;
  char buf[96];
  for (const topk::ScoredTuple& tuple : response.topk) {
    out += tuple.ToString(store);
    std::snprintf(buf, sizeof(buf), " c=%a n=%zu s=%a\n", tuple.content_score,
                  tuple.connection_size, tuple.score);
    out += buf;
  }
  out += response.contexts.ToString();
  out += response.connections.ToString();
  if (include_epoch) {
    out += "epoch=" + std::to_string(response.stats.epoch);
  }
  return out;
}

/// Canonical dump of everything a snapshot serves (mirrors the Finalize
/// fingerprint in parallel_test.cc), for incremental-vs-cold equivalence.
std::string EpochFingerprint(const Snapshot& snap) {
  std::string out;
  out += "docs=" + std::to_string(snap.store().DocumentCount());
  out += " nodes=" + std::to_string(snap.store().TotalNodeCount());
  out += " paths=" + std::to_string(snap.store().paths().size());
  out += " edges=" + std::to_string(snap.data_graph().EdgeCount());
  out += " terms=" + std::to_string(snap.index().TermCount());
  out += " indexed=" + std::to_string(snap.index().IndexedNodeCount());
  out += "\n";
  const auto& guides = snap.dataguides();
  out += "guides=" + std::to_string(guides.size());
  out += " merges=" + std::to_string(guides.build_stats().merges);
  out += " absorbed=" + std::to_string(guides.build_stats().absorbed);
  out += " links=" + std::to_string(guides.LinkCount());
  out += "\n";
  for (const auto& guide : guides.guides()) {
    out += "g:";
    for (auto path : guide.paths()) out += " " + std::to_string(path);
    out += " |";
    for (auto doc : guide.members()) out += " " + std::to_string(doc);
    out += "\n";
  }
  for (const char* term :
       {"united", "states", "new", "deltaland", "trade_country", "percentage",
        "gdp"}) {
    out += std::string("t:") + term;
    out += " df=" + std::to_string(snap.index().DocumentFrequency(term));
    out += " maxtf=" + std::to_string(snap.index().MaxTermFrequency(term));
    const text::PostingList postings = snap.index().Postings(term);
    for (size_t i = 0; i < postings.size(); ++i) {
      out += " " + postings.node(i).ToString() + "/" +
             std::to_string(postings.path(i));
      for (uint32_t pos : postings.positions(i)) {
        out += "." + std::to_string(pos);
      }
    }
    out += " paths:";
    for (auto path : snap.index().TermPaths(term)) {
      out += " " + std::to_string(path);
    }
    out += "\n";
  }
  return out;
}

TEST(CommitTest, AddXmlAndCommitAfterFinalizeServesNewDocuments) {
  Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize(ScenarioOptions()).ok());
  auto before = seda.snapshot()->Search(kQuery1);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->stats.epoch, 1u);

  for (int i = 0; i < 3; ++i) {
    auto id = seda.AddXml(EpochTwoCountry(i), "newland-" + std::to_string(i));
    ASSERT_TRUE(id.ok());
  }
  auto info = seda.Commit();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->epoch, 2u);
  EXPECT_EQ(info->docs_added, 3u);
  EXPECT_TRUE(info->incremental);

  auto after = seda.snapshot()->Search(kQuery1);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->stats.epoch, 2u);
  // The new countries import from the United States, so they must surface.
  const Snapshot& latest = *seda.snapshot();
  EXPECT_NE(ResponseFingerprint(before.value(), latest.store(), false),
            ResponseFingerprint(after.value(), latest.store(), false));
  EXPECT_GT(latest.index().DocumentFrequency("2010"), 0u);
}

/// A delta document for the Factbook input: a new country importing from
/// China, which the Factbook probe query below reaches by name.
std::string DeltalandCountry(int i) {
  return "<country><name>Deltaland " + std::to_string(i) +
         "</name><year>2008</year><economy><GDP>" + std::to_string(900 + i) +
         "</GDP><import_partners><item><trade_country>China</trade_country>"
         "<percentage>12.5</percentage></item></import_partners></economy>"
         "</country>";
}

/// Builds `populate` + `delta` twice, cold (one epoch) and incremental (the
/// delta committed onto the base), and requires both to serve the same
/// epoch and the same non-empty answer to `probe`.
void ExpectIncrementalMatchesCold(void (*populate)(store::DocumentStore*),
                                  const SedaOptions& options,
                                  const std::vector<std::string>& delta,
                                  const char* probe) {
  Seda cold;
  populate(cold.mutable_store());
  for (size_t i = 0; i < delta.size(); ++i) {
    ASSERT_TRUE(cold.AddXml(delta[i], "delta-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(cold.Finalize(options).ok());

  Seda inc;
  populate(inc.mutable_store());
  ASSERT_TRUE(inc.Finalize(options).ok());
  for (size_t i = 0; i < delta.size(); ++i) {
    ASSERT_TRUE(inc.AddXml(delta[i], "delta-" + std::to_string(i)).ok());
  }
  auto info = inc.Commit();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ASSERT_TRUE(info->incremental);

  EXPECT_EQ(EpochFingerprint(*cold.snapshot()), EpochFingerprint(*inc.snapshot()));

  auto cold_response = cold.snapshot()->Search(probe);
  auto inc_response = inc.snapshot()->Search(probe);
  ASSERT_TRUE(cold_response.ok());
  ASSERT_TRUE(inc_response.ok());
  EXPECT_FALSE(inc_response->topk.empty());
  // Epochs differ by construction (1 vs 2); everything observable must not.
  const store::DocumentStore& cold_store = cold.snapshot()->store();
  const store::DocumentStore& inc_store = inc.snapshot()->store();
  EXPECT_EQ(ResponseFingerprint(cold_response.value(), cold_store, false),
            ResponseFingerprint(inc_response.value(), inc_store, false));
  EXPECT_EQ(cold_response->stats.epoch, 1u);
  EXPECT_EQ(inc_response->stats.epoch, 2u);
}

TEST(CommitTest, IncrementalCommitIsByteIdenticalToColdBuild) {
  {
    SCOPED_TRACE("scenario + 5 documents");
    std::vector<std::string> delta;
    for (int i = 0; i < 5; ++i) delta.push_back(EpochTwoCountry(i));
    ExpectIncrementalMatchesCold(
        [](store::DocumentStore* s) { data::PopulateScenario(s); },
        ScenarioOptions(), delta, kQuery1);
  }
  {
    // A generated collection with default options: 84 base documents and
    // an 8-document delta (a twentieth of the base, at least 8).
    SCOPED_TRACE("factbook 0.05 + 8 documents");
    std::vector<std::string> delta;
    for (int i = 0; i < 8; ++i) delta.push_back(DeltalandCountry(i));
    ExpectIncrementalMatchesCold(
        [](store::DocumentStore* s) {
          data::WorldFactbookGenerator::Options options;
          options.scale = 0.05;
          data::WorldFactbookGenerator(options).Populate(s);
        },
        SedaOptions{}, delta, R"((name, "Deltaland") AND (GDP, *))");
  }
}

TEST(CommitTest, EmptyCommitIsANoOp) {
  Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize(ScenarioOptions()).ok());
  auto first = seda.snapshot();
  auto info = seda.Commit();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->epoch, 1u);
  EXPECT_EQ(info->docs_added, 0u);
  EXPECT_EQ(seda.snapshot().get(), first.get());
}

TEST(SessionTest, PinsItsEpochAcrossCommits) {
  Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize(ScenarioOptions()).ok());

  auto pinned = seda.NewSession();
  ASSERT_TRUE(pinned.ok());
  EXPECT_EQ(pinned->epoch(), 1u);
  auto first = pinned->Search(kQuery1);
  ASSERT_TRUE(first.ok());
  std::string expected =
      ResponseFingerprint(first.value(), pinned->snapshot().store());

  for (int i = 0; i < 3; ++i) {
    seda.AddXml(EpochTwoCountry(i), "newland-" + std::to_string(i));
  }
  ASSERT_TRUE(seda.Commit().ok());

  // The pinned session replays the exact pre-commit epoch...
  auto replay = pinned->Search(kQuery1);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay->stats.epoch, 1u);
  EXPECT_EQ(ResponseFingerprint(replay.value(), pinned->snapshot().store()),
            expected);

  // ...while a fresh session serves the new epoch.
  auto fresh = seda.NewSession();
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->epoch(), 2u);
  auto updated = fresh->Search(kQuery1);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(updated->stats.epoch, 2u);
  EXPECT_NE(ResponseFingerprint(updated.value(), fresh->snapshot().store(), false),
            ResponseFingerprint(replay.value(), pinned->snapshot().store(), false));
}

TEST(SessionTest, CarriesRefinementStateThroughTheFig6Loop) {
  Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize(ScenarioOptions()).ok());
  auto session = seda.NewSession();
  ASSERT_TRUE(session.ok());

  // Refinement before any search is a session-state error.
  EXPECT_FALSE(session->RefineContexts({{}, {}, {}}).ok());
  EXPECT_FALSE(session->CompleteResults({}, {}).ok());

  ASSERT_TRUE(session->Search(kQuery1).ok());
  EXPECT_EQ(session->rounds(), 1u);
  ASSERT_TRUE(session->has_query());

  const char* kName = "/country/name";
  const char* kTrade = "/country/economy/import_partners/item/trade_country";
  const char* kPct = "/country/economy/import_partners/item/percentage";
  auto refined = session->RefineContexts({{kName}, {kTrade}, {kPct}});
  ASSERT_TRUE(refined.ok()) << refined.status().ToString();
  EXPECT_EQ(session->rounds(), 2u);
  ASSERT_EQ(session->refinement_history().size(), 1u);
  for (const auto& bucket : refined->contexts.buckets) {
    EXPECT_EQ(bucket.entries.size(), 1u);
  }

  // The refined query is the session's current query: CompleteResults picks
  // it up without re-passing it.
  auto result = session->CompleteResults({kName, kTrade, kPct}, {});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->tuples.size(), 8u);

  // A fresh Search resets the refinement trail.
  ASSERT_TRUE(session->Search("(name, *)").ok());
  EXPECT_TRUE(session->refinement_history().empty());
  EXPECT_EQ(session->rounds(), 3u);
}

TEST(SearchStatsTest, ServingEpochIsSurfacedInEveryResponse) {
  Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize(ScenarioOptions()).ok());

  auto r1 = seda.snapshot()->Search(kQuery1);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->stats.epoch, 1u);

  seda.AddXml(EpochTwoCountry(0), "newland-0");
  ASSERT_TRUE(seda.Commit().ok());
  auto r2 = seda.snapshot()->Search(kQuery1);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->stats.epoch, 2u);

  // The raw searcher (outside any snapshot) reports epoch 0: "no epoch".
  topk::SearchStats stats;
  std::shared_ptr<const Snapshot> snap = seda.snapshot();
  topk::TopKSearcher searcher(&snap->index(), &snap->data_graph());
  auto query = query::ParseQuery(kQuery1);
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE(searcher.Search(query.value(), topk::TopKOptions{}, &stats).ok());
  EXPECT_EQ(stats.epoch, 0u);
}

/// The acceptance-criterion race: a Session pinned to epoch 1 must return
/// byte-identical results to a single-epoch reference run while real
/// Commit()s (parse + graph/index/dataguide builds + snapshot swap) land on
/// another thread.
TEST(SnapshotConcurrencyTest, SearchDuringCommitMatchesSingleEpochRunExactly) {
  // Reference: an isolated single-epoch instance over the same corpus.
  Seda reference;
  data::PopulateScenario(reference.mutable_store());
  ASSERT_TRUE(reference.Finalize(ScenarioOptions()).ok());
  auto reference_response = reference.snapshot()->Search(kQuery1);
  const store::DocumentStore& reference_store = reference.snapshot()->store();
  ASSERT_TRUE(reference_response.ok());
  const std::string expected =
      ResponseFingerprint(reference_response.value(), reference_store);

  Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize(ScenarioOptions()).ok());
  auto session = seda.NewSession();
  ASSERT_TRUE(session.ok());

  constexpr int kCommits = 4;
  constexpr int kDocsPerCommit = 5;
  std::atomic<bool> done{false};
  std::atomic<int> commits_ok{0};
  std::thread writer([&] {
    for (int c = 0; c < kCommits; ++c) {
      for (int d = 0; d < kDocsPerCommit; ++d) {
        int i = c * kDocsPerCommit + d;
        auto id = seda.AddXml(EpochTwoCountry(i), "newland-" + std::to_string(i));
        EXPECT_TRUE(id.ok());
      }
      auto info = seda.Commit();
      EXPECT_TRUE(info.ok()) << info.status().ToString();
      if (info.ok()) commits_ok.fetch_add(1);
    }
    done.store(true);
  });

  // Keep querying the pinned epoch while the commits land; every response
  // must be byte-identical to the single-epoch reference.
  size_t checks = 0;
  while (!done.load(std::memory_order_acquire) || checks < 3) {
    auto response = session->Search(kQuery1);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(ResponseFingerprint(response.value(), session->snapshot().store()),
              expected)
        << "pinned epoch perturbed after " << checks << " checks";
    ++checks;

    // A one-shot read through snapshot() races the swap too: it may serve
    // any published epoch, but never a torn one.
    auto latest = seda.snapshot()->Search(kQuery1);
    ASSERT_TRUE(latest.ok());
    EXPECT_GE(latest->stats.epoch, 1u);
    EXPECT_LE(latest->stats.epoch, 1u + kCommits);
    EXPECT_FALSE(latest->topk.empty());
  }
  writer.join();
  ASSERT_EQ(commits_ok.load(), kCommits);
  EXPECT_GE(checks, 3u);

  // After the dust settles: the pinned session still replays epoch 1, and
  // the final epoch serves all added documents.
  auto replay = session->Search(kQuery1);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(ResponseFingerprint(replay.value(), session->snapshot().store()),
            expected);
  auto final_snapshot = seda.snapshot();
  EXPECT_EQ(final_snapshot->epoch(), 1u + kCommits);
  EXPECT_EQ(final_snapshot->store().DocumentCount(),
            reference_store.DocumentCount() + kCommits * kDocsPerCommit);
}

}  // namespace
}  // namespace seda::core
