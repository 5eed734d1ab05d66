// The inverted-index build (src/text/: one preorder walk per document over
// integer term ids, leaf text tokenized once) against the per-node
// ContentString + Tokenize scan in tests/reference/: the same postings,
// frequencies, path index, path -> nodes table and node count for every
// term, for cold builds at 1, 2 and 4 workers, incremental chains, chains
// through a saved-and-loaded base, and hand-written edge-case documents.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "data/generators.h"
#include "persist/reader.h"
#include "persist/writer.h"
#include "reference/index_scan.h"
#include "text/inverted_index.h"
#include "xml/parser.h"

namespace seda::text {
namespace {

std::string TempImagePath(const std::string& name) {
  return ::testing::TempDir() + "seda_index_" + name + "_" +
         std::to_string(::getpid()) + ".img";
}

/// An image holding the two index sections `index` writes.
std::shared_ptr<persist::MappedImage> SaveImage(const InvertedIndex& index) {
  std::string path = TempImagePath("sections");
  persist::ImageWriter writer;
  EXPECT_TRUE(writer.Open(path).ok());
  EXPECT_TRUE(index.SaveTo(&writer).ok());
  EXPECT_TRUE(writer.Finish(0).ok());
  auto image = persist::MappedImage::Open(path);
  std::remove(path.c_str());  // the mapping outlives the name
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return image.ok() ? image.value() : nullptr;
}

/// The payloads of both index sections, back to back.
std::string SectionBytes(const InvertedIndex& index) {
  auto image = SaveImage(index);
  if (image == nullptr) return "";
  std::string bytes;
  for (auto id : {persist::SectionId::kIndexTerms, persist::SectionId::kIndexPaths}) {
    auto payload = image->Section(id);
    EXPECT_TRUE(payload.ok());
    if (!payload.ok()) return "";
    bytes.append(reinterpret_cast<const char*>(payload.value().first),
                 payload.value().second);
  }
  return bytes;
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

/// Documents built node by node, so they hold shapes a parser would merge
/// or drop: adjacent text leaves (a decimal split across two of them),
/// empty and whitespace-only text, mixed content, attributes, '_' and
/// upper-case tags, and one term repeated at every level.
std::vector<std::unique_ptr<xml::Document>> HandDocuments() {
  std::vector<std::unique_ptr<xml::Document>> docs;
  auto add = [&](const std::string& name,
                 const std::function<void(xml::Node*)>& fill) {
    auto doc = std::make_unique<xml::Document>(name);
    xml::Node* root = doc->CreateRoot("country");
    fill(root);
    doc->Renumber();
    docs.push_back(std::move(doc));
  };
  add("mixed", [](xml::Node* root) {
    root->AddAttribute("id", "f0_US");
    root->AddText("The United States");
    xml::Node* economy = root->AddElement("economy");
    economy->AddText("GDP of");
    economy->AddElement("GDP_ppp")->AddText("12.31 trillion");
    economy->AddText("in 2005, up from 12.2");
    root->AddText("and more: United");
  });
  add("decimal", [](xml::Node* root) {
    xml::Node* value = root->AddElement("Value");
    value->AddText("12");
    value->AddText(".5");
    value->AddText("7.");
    value->AddText("25");
    value->AddAttribute("unit", "1.5e3 %");
  });
  add("blank", [](xml::Node* root) {
    root->AddElement("empty");
    root->AddElement("spaces")->AddText("   \t\n ");
    root->AddElement("nothing")->AddText("");
    root->AddAttribute("blank", "");
    root->AddAttribute("punct", " -- ");
    root->AddElement("_")->AddText("_under_score_");
    root->AddElement("--");
  });
  add("repeated", [](xml::Node* root) {
    xml::Node* node = root;
    for (int depth = 0; depth < 6; ++depth) {
      node->AddText("guinea");
      node = node->AddElement(depth % 2 == 0 ? "Guinea" : "name");
      node->AddAttribute("code", "GUINEA-Bissau guinea");
    }
    node->AddText("Guinea guinea GUINEA");
  });
  add("upper", [](xml::Node* root) {
    root->AddElement("CAPS_Tag")->AddText("MiXeD CaSe Ünïcode bytes");
    root->AddElement("Name")->AddText("name NAME Name");
    root->AddElement("Guinea-Bissau")->AddText("Guinea-Bissau");
  });
  return docs;
}

void ExpectSameAsScan(const InvertedIndex& index,
                      const store::DocumentStore& store,
                      const std::string& where) {
  EXPECT_EQ(reference::DiffIndex(reference::ScanIndex(store), index), "")
      << where;
}

class IndexBuildEquivalenceTest : public ::testing::TestWithParam<Corpus> {
 protected:
  void SetUp() override {
    Populate(GetParam(), &corpus_);
    ASSERT_GT(corpus_.DocumentCount(), 1u);
  }

  store::DocumentStore corpus_;
};

TEST_P(IndexBuildEquivalenceTest, ColdBuildMatchesScanAtEveryWorkerCount) {
  const reference::ScannedIndex scanned = reference::ScanIndex(corpus_);
  std::string bytes;
  for (size_t workers : {1, 2, 4}) {
    ThreadPool pool(workers);
    InvertedIndex index(&corpus_, &pool);
    EXPECT_EQ(reference::DiffIndex(scanned, index), "")
        << workers << " workers";
    std::string own = SectionBytes(index);
    if (bytes.empty()) bytes = own;
    EXPECT_EQ(own, bytes) << workers << " workers";
  }
}

TEST_P(IndexBuildEquivalenceTest, IncrementalChainMatchesScanAndColdBuild) {
  for (bool round_trip : {false, true}) {
    SCOPED_TRACE(round_trip ? "through a loaded base" : "built chain");
    store::DocumentStore growing;
    std::unique_ptr<InvertedIndex> chain;
    std::shared_ptr<persist::MappedImage> image;
    const std::vector<size_t> batches = {1, 7, 3, 20};
    ThreadPool pool(2);
    store::DocId next = 0;
    for (size_t step = 0; next < corpus_.DocumentCount(); ++step) {
      const store::DocId first_new = next;
      size_t batch = batches[step % batches.size()];
      for (size_t i = 0; i < batch && next < corpus_.DocumentCount();
           ++i, ++next) {
        const xml::Document& doc = corpus_.document(next);
        ASSERT_TRUE(growing.AddXml(xml::Serialize(doc), doc.name()).ok());
      }
      chain = chain == nullptr
                  ? std::make_unique<InvertedIndex>(&growing, &pool)
                  : std::make_unique<InvertedIndex>(*chain, &growing,
                                                    first_new, &pool);
      if (round_trip && step == 0) {
        image = SaveImage(*chain);
        ASSERT_NE(image, nullptr);
        auto loaded = InvertedIndex::LoadFrom(image, &growing);
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        chain = std::move(loaded).value();
      }
      // The scan is quadratic in document depth; check every fourth step
      // and the last one.
      if (step % 4 == 0 || next == corpus_.DocumentCount()) {
        ExpectSameAsScan(*chain, growing,
                         "after " + std::to_string(next) + " documents");
      }
    }
    InvertedIndex cold(&growing, nullptr);
    EXPECT_EQ(SectionBytes(*chain), SectionBytes(cold));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, IndexBuildEquivalenceTest,
    ::testing::Values(Corpus::kScenario, Corpus::kFactbook, Corpus::kMondial,
                      Corpus::kGoogleBase, Corpus::kRecipeML),
    [](const ::testing::TestParamInfo<Corpus>& info) {
      return CorpusName(info.param);
    });

TEST(IndexBuildEquivalenceHandTest, EdgeCaseDocumentsMatchScan) {
  store::DocumentStore store;
  for (auto& doc : HandDocuments()) store.AddDocument(std::move(doc));
  const reference::ScannedIndex scanned = reference::ScanIndex(store);
  for (size_t workers : {1, 2, 4}) {
    ThreadPool pool(workers);
    InvertedIndex index(&store, &pool);
    EXPECT_EQ(reference::DiffIndex(scanned, index), "")
        << workers << " workers";
  }

  // The shapes the walk must get right, spelled out.
  InvertedIndex index(&store, nullptr);
  EXPECT_EQ(index.DocumentFrequency("12.31"), 1u);
  EXPECT_EQ(index.DocumentFrequency("12"), 1u);  // "12" | ".5": two tokens
  EXPECT_EQ(index.DocumentFrequency("5"), 1u);
  EXPECT_EQ(index.DocumentFrequency("12.5"), 0u);
  EXPECT_EQ(index.DocumentFrequency("7.25"), 0u);
  // The root holds every "guinea": 1 + 5 * (2 + 1) + (2 + 3).
  EXPECT_EQ(index.MaxTermFrequency("guinea"), 21u);
  EXPECT_FALSE(index.TermPaths("gdp_ppp").empty());  // tag, lowercased
  EXPECT_FALSE(index.TermPaths("caps_tag").empty());
  EXPECT_FALSE(index.TermPaths("_").empty());
}

TEST(IndexBuildEquivalenceHandTest, IncrementalHandDocumentsMatchColdBuild) {
  store::DocumentStore growing;
  std::unique_ptr<InvertedIndex> chain;
  store::DocId next = 0;
  for (auto& doc : HandDocuments()) {
    growing.AddDocument(std::move(doc));
    chain = chain == nullptr
                ? std::make_unique<InvertedIndex>(&growing, nullptr)
                : std::make_unique<InvertedIndex>(*chain, &growing, next,
                                                  nullptr);
    ++next;
    ExpectSameAsScan(*chain, growing,
                     "after " + std::to_string(next) + " documents");
  }
  InvertedIndex cold(&growing, nullptr);
  EXPECT_EQ(SectionBytes(*chain), SectionBytes(cold));
}

}  // namespace
}  // namespace seda::text
