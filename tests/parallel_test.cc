#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/seda.h"
#include "data/generators.h"

namespace seda {
namespace {

TEST(ThreadPoolTest, DefaultThreadCountAtLeastOne) {
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
}

TEST(ThreadPoolTest, SubmitAndWaitRunsEveryTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingle) {
  ThreadPool pool(2);
  int calls = 0;
  pool.ParallelFor(0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, [&](size_t i) { calls += static_cast<int>(i) + 1; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, RunParallelInlineWithoutPool) {
  std::vector<int> order;
  RunParallel(nullptr, 5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, SubmittedTaskExceptionSurfacesAtWait) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.Submit([&] { ran.fetch_add(1); });
  pool.Submit([] { throw std::runtime_error("boom"); });
  pool.Submit([&] { ran.fetch_add(1); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  // The worker survives the throw and the pool stays usable.
  pool.Submit([&] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, ReusableAcrossParallelForCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(100, [&](size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

/// Loads the same mixed corpus into a Seda instance: generator-produced
/// factbook documents (eager path) plus hand-written linked documents queued
/// through the deferred Seda::AddXml path.
void LoadCorpus(core::Seda* seda) {
  // The paper's worked-example corpus (factbook + mondial + google-base
  // scenario docs), small enough that the Query 1 search stays cheap.
  data::PopulateScenario(seda->mutable_store());

  for (int i = 0; i < 12; ++i) {
    std::string n = std::to_string(i);
    std::string next = std::to_string((i + 1) % 12);
    seda->AddXml("<city id='c" + n + "'><name>City " + n +
                     "</name><population>" + std::to_string(10000 + i * 37) +
                     "</population><twin idref='c" + next + "'/></city>",
                 "city-" + n + ".xml");
  }
  seda->AddXml(
      "<atlas><entry href='#c3'><note>gateway to the delta</note></entry>"
      "<entry href='#c7'><note>united trade hub</note></entry></atlas>",
      "atlas.xml");
}

core::SedaOptions PipelineOptions(size_t num_threads) {
  core::SedaOptions options;
  options.num_threads = num_threads;
  options.value_edges.push_back(
      {"/country/name", "/country/economy/import_partners/item/trade_country",
       "trade_partner"});
  return options;
}

/// Canonical dump of everything Finalize() builds that queries observe.
std::string FinalizeFingerprint(const core::Snapshot& snap) {
  std::string out;
  out += "docs=" + std::to_string(snap.store().DocumentCount());
  out += " nodes=" + std::to_string(snap.store().TotalNodeCount());
  out += " paths=" + std::to_string(snap.store().paths().size());
  out += " edges=" + std::to_string(snap.data_graph().EdgeCount());
  out += " terms=" + std::to_string(snap.index().TermCount());
  out += " indexed=" + std::to_string(snap.index().IndexedNodeCount());
  out += "\n";

  // Full dataguide summary: per-guide path ids and member docs, in order.
  const auto& guides = snap.dataguides();
  out += "guides=" + std::to_string(guides.size());
  out += " merges=" + std::to_string(guides.build_stats().merges);
  out += " absorbed=" + std::to_string(guides.build_stats().absorbed);
  out += "\n";
  for (const auto& guide : guides.guides()) {
    out += "g:";
    for (auto path : guide.paths()) out += " " + std::to_string(path);
    out += " |";
    for (auto doc : guide.members()) out += " " + std::to_string(doc);
    out += "\n";
  }

  // Posting lists (node ids, paths, positions) for a sample of terms.
  for (const char* term : {"united", "states", "city", "population", "gdp",
                           "trade_country", "delta"}) {
    out += std::string("t:") + term;
    out += " df=" + std::to_string(snap.index().DocumentFrequency(term));
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

TEST(FinalizeParallelDeterminism, OneVsManyWorkersProduceIdenticalIndexes) {
  core::Seda sequential;
  LoadCorpus(&sequential);
  ASSERT_TRUE(sequential.Finalize(PipelineOptions(1)).ok());

  core::Seda parallel;
  LoadCorpus(&parallel);
  ASSERT_TRUE(parallel.Finalize(PipelineOptions(4)).ok());

  EXPECT_EQ(FinalizeFingerprint(*sequential.snapshot()),
            FinalizeFingerprint(*parallel.snapshot()));

  // Search results must match end to end: top-k tuples, context summary and
  // connection summary all derive from the merged indexes.
  const std::string query =
      R"((*, "United States") AND (trade_country, *) AND (percentage, *))";
  auto seq_response = sequential.snapshot()->Search(query);
  auto par_response = parallel.snapshot()->Search(query);
  ASSERT_TRUE(seq_response.ok()) << seq_response.status().ToString();
  ASSERT_TRUE(par_response.ok()) << par_response.status().ToString();

  ASSERT_EQ(seq_response->topk.size(), par_response->topk.size());
  for (size_t i = 0; i < seq_response->topk.size(); ++i) {
    EXPECT_EQ(seq_response->topk[i].ToString(sequential.snapshot()->store()),
              par_response->topk[i].ToString(parallel.snapshot()->store()));
    EXPECT_DOUBLE_EQ(seq_response->topk[i].score, par_response->topk[i].score);
  }
  EXPECT_EQ(seq_response->connections.ToString(),
            par_response->connections.ToString());
  ASSERT_EQ(seq_response->contexts.buckets.size(),
            par_response->contexts.buckets.size());
  for (size_t b = 0; b < seq_response->contexts.buckets.size(); ++b) {
    EXPECT_EQ(seq_response->contexts.buckets[b].entries.size(),
              par_response->contexts.buckets[b].entries.size());
  }
}

TEST(FinalizeParallelDeterminism, RepeatedParallelRunsAreStable) {
  std::set<std::string> fingerprints;
  for (int run = 0; run < 3; ++run) {
    core::Seda seda;
    LoadCorpus(&seda);
    ASSERT_TRUE(seda.Finalize(PipelineOptions(4)).ok());
    fingerprints.insert(FinalizeFingerprint(*seda.snapshot()));
  }
  EXPECT_EQ(fingerprints.size(), 1u);
}

TEST(SedaAddXml, DeferredParseAssignsPromisedDocIds) {
  core::Seda seda;
  auto a = seda.AddXml("<a><b>one</b></a>", "a.xml");
  auto b = seda.AddXml("<a><b>two</b></a>", "b.xml");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), 0u);
  EXPECT_EQ(b.value(), 1u);
  ASSERT_TRUE(seda.Finalize().ok());
  EXPECT_EQ(seda.snapshot()->store().DocumentCount(), 2u);
  EXPECT_EQ(seda.snapshot()->store().document(a.value()).name(), "a.xml");
  EXPECT_EQ(seda.snapshot()->store().document(b.value()).name(), "b.xml");
}

TEST(SedaAddXml, StagedAfterFinalizeUntilCommit) {
  core::Seda seda;
  seda.AddXml("<a><b>first</b></a>", "first.xml");
  ASSERT_TRUE(seda.Finalize().ok());

  // Post-finalize AddXml is legal now: the document is staged and invisible
  // to the published epoch until the next Commit() swaps in its successor.
  auto late = seda.AddXml("<a><b>late</b></a>", "late.xml");
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late.value(), 1u);
  EXPECT_EQ(seda.snapshot()->store().DocumentCount(), 1u);

  auto info = seda.Commit();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->epoch, 2u);
  EXPECT_EQ(info->docs_added, 1u);
  EXPECT_TRUE(info->incremental);
  EXPECT_EQ(seda.snapshot()->store().DocumentCount(), 2u);
  EXPECT_EQ(seda.snapshot()->store().document(late.value()).name(), "late.xml");
}

TEST(SedaAddXml, CommitBeforeFinalizeRejected) {
  core::Seda seda;
  seda.AddXml("<a><b>x</b></a>", "x.xml");
  auto info = seda.Commit();
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SedaAddXml, EagerLoadAfterDeferredQueueIsRejected) {
  core::Seda seda;
  auto promised = seda.AddXml("<a><b>deferred</b></a>", "deferred.xml");
  ASSERT_TRUE(promised.ok());
  EXPECT_EQ(promised.value(), 0u);
  // This eager load would steal DocId 0 from the queued document.
  ASSERT_TRUE(seda.mutable_store()->AddXml("<a><b>eager</b></a>", "eager.xml").ok());
  Status status = seda.Finalize();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(SedaAddXml, MalformedQueuedDocumentFailsFinalize) {
  core::Seda seda;
  seda.AddXml("<a><b>ok</b></a>", "good.xml");
  seda.AddXml("<a><unclosed>", "bad.xml");
  Status status = seda.Finalize();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
}

}  // namespace
}  // namespace seda
