// The dataguide build (src/dataguide/: inverted path counts, integer-keyed
// link dedup) against the paper's O(n·m) scan in tests/reference/: the same
// guides, members, doc -> guide map, build statistics and section bytes, for
// cold builds, Extend chains and chains through a saved-and-loaded base.

#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "data/generators.h"
#include "dataguide/dataguide.h"
#include "graph/data_graph.h"
#include "persist/reader.h"
#include "persist/writer.h"
#include "reference/dataguide_scan.h"
#include "xml/parser.h"

namespace seda::dataguide {
namespace {

using reference::ScannedGuides;

std::string TempImagePath(const std::string& name) {
  return ::testing::TempDir() + "seda_dataguide_" + name + "_" +
         std::to_string(::getpid()) + ".img";
}

/// An image holding the one kDataguides section `save` writes.
std::shared_ptr<persist::MappedImage> SaveImage(
    const std::function<Status(persist::ImageWriter*)>& save) {
  std::string path = TempImagePath("section");
  persist::ImageWriter writer;
  EXPECT_TRUE(writer.Open(path).ok());
  EXPECT_TRUE(save(&writer).ok());
  EXPECT_TRUE(writer.Finish(0).ok());
  auto image = persist::MappedImage::Open(path);
  std::remove(path.c_str());  // the mapping outlives the name
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return image.ok() ? image.value() : nullptr;
}

/// The payload of the kDataguides section `save` writes.
std::string SectionBytes(
    const std::function<Status(persist::ImageWriter*)>& save) {
  auto image = SaveImage(save);
  if (image == nullptr) return "";
  auto payload = image->Section(persist::SectionId::kDataguides);
  EXPECT_TRUE(payload.ok());
  if (!payload.ok()) return "";
  return std::string(reinterpret_cast<const char*>(payload.value().first),
                     payload.value().second);
}

/// `collection` saved and loaded back over `store`.
DataguideCollection RoundTrip(const DataguideCollection& collection,
                              const store::DocumentStore& store) {
  auto image = SaveImage(
      [&](persist::ImageWriter* writer) { return collection.SaveTo(writer); });
  auto loaded = DataguideCollection::LoadFrom(*image, &store);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return std::move(loaded).value();
}

void ExpectSameAsScan(const DataguideCollection& built,
                      const ScannedGuides& scanned,
                      const store::DocumentStore& store,
                      const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(built.size(), scanned.guides.size());
  for (size_t g = 0; g < built.size(); ++g) {
    EXPECT_EQ(built.guides()[g].paths(), scanned.guides[g].paths()) << "guide " << g;
    EXPECT_EQ(built.guides()[g].members(), scanned.guides[g].members())
        << "guide " << g;
  }
  for (store::DocId d = 0; d < store.DocumentCount(); ++d) {
    ASSERT_EQ(built.GuideOfDoc(d), scanned.guide_of_doc.at(d)) << "doc " << d;
  }
  const BuildStats& a = built.build_stats();
  const BuildStats& b = scanned.stats;
  EXPECT_EQ(a.documents, b.documents);
  EXPECT_EQ(a.dataguides, b.dataguides);
  EXPECT_EQ(a.merges, b.merges);
  EXPECT_EQ(a.absorbed, b.absorbed);
  EXPECT_EQ(std::bit_cast<uint64_t>(a.reduction_factor),
            std::bit_cast<uint64_t>(b.reduction_factor));
  EXPECT_EQ(SectionBytes([&](persist::ImageWriter* w) { return built.SaveTo(w); }),
            SectionBytes([&](persist::ImageWriter* w) {
              return reference::SaveScanned(scanned, w);
            }));
}

std::unique_ptr<graph::DataGraph> LinkedGraph(const store::DocumentStore& store) {
  auto graph = std::make_unique<graph::DataGraph>(&store);
  graph->ResolveLinks(/*idrefs=*/true, /*xlinks=*/true);
  EXPECT_TRUE(graph->BuildCsr());
  return graph;
}

enum class Corpus { kScenario, kFactbook, kMondial, kGoogleBase, kRecipeML };

void Populate(Corpus corpus, store::DocumentStore* store) {
  switch (corpus) {
    case Corpus::kScenario:
      data::PopulateScenario(store);
      return;
    case Corpus::kFactbook: {
      data::WorldFactbookGenerator::Options options;
      options.scale = 0.05;
      data::WorldFactbookGenerator(options).Populate(store);
      return;
    }
    case Corpus::kMondial: {
      data::MondialGenerator::Options options;
      options.scale = 0.05;
      data::MondialGenerator(options).Populate(store);
      return;
    }
    case Corpus::kGoogleBase: {
      data::GoogleBaseGenerator::Options options;
      options.documents = 300;
      data::GoogleBaseGenerator(options).Populate(store);
      return;
    }
    case Corpus::kRecipeML: {
      data::RecipeMLGenerator::Options options;
      options.documents = 300;
      data::RecipeMLGenerator(options).Populate(store);
      return;
    }
  }
}

std::string CorpusName(Corpus corpus) {
  switch (corpus) {
    case Corpus::kScenario: return "Scenario";
    case Corpus::kFactbook: return "Factbook";
    case Corpus::kMondial: return "Mondial";
    case Corpus::kGoogleBase: return "GoogleBase";
    case Corpus::kRecipeML: return "RecipeML";
  }
  return "";
}

class DataguideEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<Corpus, double>> {
 protected:
  void SetUp() override {
    Populate(std::get<0>(GetParam()), &corpus_);
    ASSERT_GT(corpus_.DocumentCount(), 1u);
    options_.overlap_threshold = std::get<1>(GetParam());
  }

  /// Grows a copy of the corpus in uneven batches, extending one collection
  /// per batch and the scan beside it; with `round_trip`, the first batch's
  /// collection is saved and loaded before the chain continues.
  void RunChain(const std::vector<size_t>& batches, bool round_trip) {
    store::DocumentStore growing;
    std::optional<DataguideCollection> chain;
    ScannedGuides scanned;
    store::DocId next = 0;
    for (size_t step = 0; next < corpus_.DocumentCount(); ++step) {
      size_t batch = batches[step % batches.size()];
      for (size_t i = 0; i < batch && next < corpus_.DocumentCount(); ++i, ++next) {
        const xml::Document& doc = corpus_.document(next);
        ASSERT_TRUE(growing.AddXml(xml::Serialize(doc), doc.name()).ok());
      }
      chain = chain.has_value()
                  ? DataguideCollection::Extend(*chain, growing, options_)
                  : DataguideCollection::Build(growing, options_);
      if (round_trip && step == 0) chain = RoundTrip(*chain, growing);
      reference::ScanDocuments(growing, options_.overlap_threshold, &scanned);
      ExpectSameAsScan(*chain, scanned, growing,
                       "after " + std::to_string(next) + " documents");
      if (HasFatalFailure()) return;
    }
    // Links are mapped per epoch, over the final collection.
    auto graph = LinkedGraph(growing);
    chain->AddLinksFromGraph(*graph);
    reference::ScanLinks(*graph, &scanned);
    ExpectSameAsScan(*chain, scanned, growing, "chain with links");

    // Every build path writes the cold build's bytes.
    DataguideCollection cold = DataguideCollection::Build(growing, options_);
    cold.AddLinksFromGraph(*graph);
    EXPECT_EQ(SectionBytes([&](persist::ImageWriter* w) { return chain->SaveTo(w); }),
              SectionBytes([&](persist::ImageWriter* w) { return cold.SaveTo(w); }));
  }

  store::DocumentStore corpus_;
  DataguideCollection::Options options_;
};

TEST_P(DataguideEquivalenceTest, ColdBuildMatchesScan) {
  DataguideCollection built = DataguideCollection::Build(corpus_, options_);
  ScannedGuides scanned;
  reference::ScanDocuments(corpus_, options_.overlap_threshold, &scanned);
  ExpectSameAsScan(built, scanned, corpus_, "cold build");

  auto graph = LinkedGraph(corpus_);
  built.AddLinksFromGraph(*graph);
  reference::ScanLinks(*graph, &scanned);
  EXPECT_EQ(built.LinkCount(), scanned.links.size());
  ExpectSameAsScan(built, scanned, corpus_, "cold build with links");
}

TEST_P(DataguideEquivalenceTest, ExtendChainMatchesScan) {
  RunChain({1, 5, 2, 13, 3, 29, 8}, /*round_trip=*/false);
}

TEST_P(DataguideEquivalenceTest, ExtendChainFromLoadedBaseMatchesScan) {
  RunChain({7, 1, 19, 4, 2}, /*round_trip=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    CorporaAndThresholds, DataguideEquivalenceTest,
    ::testing::Combine(::testing::Values(Corpus::kScenario, Corpus::kFactbook,
                                         Corpus::kMondial, Corpus::kGoogleBase,
                                         Corpus::kRecipeML),
                       ::testing::Values(0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 2.0)),
    [](const ::testing::TestParamInfo<std::tuple<Corpus, double>>& info) {
      return CorpusName(std::get<0>(info.param)) + "_t" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 10));
    });

/// Builds the collection over `xml` documents (in order) with both the
/// inverted-count build and the scan, checks they agree, and returns it.
DataguideCollection BuildBoth(const std::vector<std::string>& xml,
                              double threshold, store::DocumentStore* store) {
  for (size_t d = 0; d < xml.size(); ++d) {
    EXPECT_TRUE(store->AddXml(xml[d], "d" + std::to_string(d)).ok());
  }
  DataguideCollection::Options options;
  options.overlap_threshold = threshold;
  DataguideCollection built = DataguideCollection::Build(*store, options);
  ScannedGuides scanned;
  reference::ScanDocuments(*store, threshold, &scanned);
  ExpectSameAsScan(built, scanned, *store, "hand-built");
  return built;
}

TEST(DataguideEquivalenceHandBuiltTest, DocumentContainedInTwoGuidesJoinsTheLowerOne) {
  store::DocumentStore store;
  auto built = BuildBoth(
      {
          "<r><x/><y/><z/></r>",      // guide 0
          "<r><p/><q/></r>",          // overlap 1/4 with guide 0: guide 1
          "<r><x/><y/><z/><p/></r>",  // merges into guide 0, which gains /r/p
          "<r><p/></r>",              // contained in guides 1 and 0
      },
      0.5, &store);
  ASSERT_EQ(built.size(), 2u);
  EXPECT_EQ(built.build_stats().merges, 1u);
  EXPECT_EQ(built.build_stats().absorbed, 1u);
  EXPECT_EQ(built.GuideOfDoc(3), 0u);
}

TEST(DataguideEquivalenceHandBuiltTest, EqualBestOverlapsMergeIntoTheLowerGuide) {
  store::DocumentStore store;
  auto built = BuildBoth(
      {
          "<r><a/><b/></r>",  // guide 0
          "<r><c/><d/></r>",  // overlap 1/3 < 0.4: guide 1
          "<r><a/><c/></r>",  // overlap 2/3 with both guides
      },
      0.4, &store);
  ASSERT_EQ(built.size(), 2u);
  EXPECT_EQ(built.build_stats().merges, 1u);
  EXPECT_EQ(built.GuideOfDoc(2), 0u);
  EXPECT_EQ(built.guides()[0].PathCount(), 4u);
  EXPECT_EQ(built.guides()[1].PathCount(), 3u);
}

TEST(DataguideEquivalenceHandBuiltTest, DisjointDocumentStartsANewGuideAtThresholdZero) {
  store::DocumentStore store;
  auto built = BuildBoth({"<r><a/></r>", "<s><b/></s>", "<r><c/></r>"}, 0.0,
                         &store);
  ASSERT_EQ(built.size(), 2u);
  EXPECT_EQ(built.GuideOfDoc(1), 1u);
  EXPECT_EQ(built.GuideOfDoc(2), 0u);  // shares /r: overlap 1/2 >= 0
  EXPECT_EQ(built.build_stats().merges, 1u);
}

TEST(DataguideEquivalenceHandBuiltTest, RootlessDocumentsJoinTheFirstGuide) {
  // A rootless document has no paths: the first one starts an empty guide,
  // and every later one is contained in guide 0, as in the scan.
  store::DocumentStore store;
  store.AddDocument(std::make_unique<xml::Document>("empty0"));
  auto built = BuildBoth({"<r><a/></r>", "<s/>"}, 0.4, &store);
  store.AddDocument(std::make_unique<xml::Document>("empty1"));
  DataguideCollection::Options options;
  options.overlap_threshold = 0.4;
  auto extended = DataguideCollection::Extend(built, store, options);
  ScannedGuides scanned;
  reference::ScanDocuments(store, 0.4, &scanned);
  ExpectSameAsScan(extended, scanned, store, "rootless");
  ASSERT_EQ(extended.size(), 3u);
  EXPECT_EQ(extended.GuideOfDoc(0), 0u);
  EXPECT_EQ(extended.GuideOfDoc(3), 0u);
  EXPECT_EQ(extended.build_stats().absorbed, 1u);
}

TEST(DataguideEquivalenceHandBuiltTest, LinksDedupPerPathPairAndLabel) {
  store::DocumentStore store;
  auto built = BuildBoth(
      {"<r><a/><a/><b/></r>", "<r><a/><b/></r>", "<s><c/></s>"}, 2.0, &store);
  graph::DataGraph graph(&store);
  auto node = [](store::DocId doc, std::vector<uint32_t> dewey) {
    return store::NodeId{doc, xml::DeweyId(std::move(dewey))};
  };
  // Two edges per (path, path, label) collapse; a second label does not.
  graph.AddEdge(node(0, {1, 1}), node(0, {1, 3}), graph::EdgeType::kIdRef, "ref");
  graph.AddEdge(node(0, {1, 2}), node(0, {1, 3}), graph::EdgeType::kIdRef, "ref");
  graph.AddEdge(node(0, {1, 1}), node(0, {1, 3}), graph::EdgeType::kXLink, "see");
  graph.AddEdge(node(1, {1, 1}), node(2, {1, 1}), graph::EdgeType::kIdRef, "ref");
  graph.AddEdge(node(0, {1, 1}), node(2, {1}), graph::EdgeType::kIdRef, "ref");
  ASSERT_TRUE(graph.BuildCsr());
  built.AddLinksFromGraph(graph);
  ScannedGuides scanned;
  reference::ScanDocuments(store, 2.0, &scanned);
  reference::ScanLinks(graph, &scanned);
  ExpectSameAsScan(built, scanned, store, "links");
  EXPECT_EQ(built.LinkCount(), 4u);
}

}  // namespace
}  // namespace seda::dataguide
