#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/seda.h"
#include "data/generators.h"
#include "graph/csr.h"
#include "graph/data_graph.h"
#include "persist/format.h"
#include "persist/reader.h"
#include "persist/writer.h"

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

std::string DeltaDoc(int i) {
  return "<country><name>Deltaland " + std::to_string(i) +
         "</name><year>2009</year><economy><GDP>" + std::to_string(700 + i) +
         "</GDP><import_partners><item><trade_country>Canada</trade_country>"
         "<percentage>33.1</percentage></item></import_partners></economy>"
         "</country>";
}

std::string TempImagePath(const std::string& name) {
  // ctest -j runs every TEST as its own process; the pid keeps concurrent
  // tests (e.g. the corruption fixture's shared "corrupt" image) from
  // clobbering each other's files.
  return ::testing::TempDir() + "seda_persist_" + name + "_" +
         std::to_string(::getpid()) + ".img";
}

/// Byte-exact serialization of everything a SearchResponse carries that a
/// user can observe (mirrors snapshot_test.cc), including the serving epoch.
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

/// Canonical dump of everything a snapshot serves (mirrors snapshot_test.cc).
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
       {"united", "states", "deltaland", "trade_country", "percentage", "gdp"}) {
    out += std::string("t:") + term;
    out += " df=" + std::to_string(snap.index().DocumentFrequency(term));
    out += " maxtf=" + std::to_string(snap.index().MaxTermFrequency(term));
    for (const auto& posting : snap.index().Postings(term)) {
      out += " " + posting.node.ToString() + "/" + std::to_string(posting.path);
      for (uint32_t pos : posting.positions) out += "." + std::to_string(pos);
    }
    out += " paths:";
    for (auto path : snap.index().TermPaths(term)) {
      out += " " + std::to_string(path);
    }
    out += "\n";
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(PersistTest, SaveThenOpenServesByteIdenticalResponses) {
  Seda writer;
  data::PopulateScenario(writer.mutable_store());
  ASSERT_TRUE(writer.Finalize(ScenarioOptions()).ok());
  std::string path = TempImagePath("roundtrip");
  ASSERT_TRUE(writer.Save(path).ok());

  Seda reader;
  Status opened = reader.Open(path);
  ASSERT_TRUE(opened.ok()) << opened.ToString();
  ASSERT_TRUE(reader.finalized());
  EXPECT_EQ(reader.snapshot()->epoch(), 1u);

  EXPECT_EQ(EpochFingerprint(*writer.snapshot()),
            EpochFingerprint(*reader.snapshot()));
  for (const char* query :
       {kQuery1, R"((name, *))", R"((*, "Pacific Ocean") AND (name, *))",
        R"((GDP, *) AND (name, "United States"))"}) {
    auto expected = writer.Search(query);
    auto loaded = reader.Search(query);
    ASSERT_TRUE(expected.ok()) << query;
    ASSERT_TRUE(loaded.ok()) << query;
    // Epoch included: a loaded epoch is the same epoch, end to end.
    EXPECT_EQ(ResponseFingerprint(expected.value(), writer.store()),
              ResponseFingerprint(loaded.value(), reader.store()))
        << query;
  }
  std::remove(path.c_str());
}

TEST(PersistTest, RoundTripsAllGeneratorCorpora) {
  struct Corpus {
    const char* name;
    void (*populate)(store::DocumentStore*);
    const char* query;
  };
  const Corpus corpora[] = {
      {"factbook",
       [](store::DocumentStore* store) {
         data::WorldFactbookGenerator::Options options;
         options.scale = 0.02;
         data::WorldFactbookGenerator(options).Populate(store);
       },
       R"((name, *) AND (GDP, *))"},
      {"mondial",
       [](store::DocumentStore* store) {
         data::MondialGenerator::Options options;
         options.scale = 0.02;
         data::MondialGenerator(options).Populate(store);
       },
       R"((name, *) AND (population, *))"},
      {"googlebase",
       [](store::DocumentStore* store) {
         data::GoogleBaseGenerator::Options options;
         options.scale = 0.01;
         data::GoogleBaseGenerator(options).Populate(store);
       },
       R"((item, *))"},
  };
  for (const Corpus& corpus : corpora) {
    Seda writer;
    corpus.populate(writer.mutable_store());
    ASSERT_TRUE(writer.Finalize().ok()) << corpus.name;
    std::string path = TempImagePath(corpus.name);
    ASSERT_TRUE(writer.Save(path).ok()) << corpus.name;

    Seda reader;
    ASSERT_TRUE(reader.Open(path).ok()) << corpus.name;
    EXPECT_EQ(EpochFingerprint(*writer.snapshot()),
              EpochFingerprint(*reader.snapshot()))
        << corpus.name;
    auto expected = writer.Search(corpus.query);
    auto loaded = reader.Search(corpus.query);
    ASSERT_TRUE(expected.ok()) << corpus.name;
    ASSERT_TRUE(loaded.ok()) << corpus.name;
    EXPECT_EQ(ResponseFingerprint(expected.value(), writer.store()),
              ResponseFingerprint(loaded.value(), reader.store()))
        << corpus.name;
    std::remove(path.c_str());
  }
}

TEST(PersistTest, ImagesAreByteStableAcrossSaves) {
  Seda seda;
  data::PopulateScenario(seda.mutable_store());
  ASSERT_TRUE(seda.Finalize(ScenarioOptions()).ok());
  std::string path_a = TempImagePath("stable_a");
  std::string path_b = TempImagePath("stable_b");
  ASSERT_TRUE(seda.Save(path_a).ok());
  ASSERT_TRUE(seda.Save(path_b).ok());
  // Deterministic serialization (sorted term order, document-order edge log):
  // one epoch always hashes to one image.
  EXPECT_EQ(ReadFile(path_a), ReadFile(path_b));
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(PersistTest, CommitOnLoadedImageMatchesAllInMemoryIncremental) {
  // Reference: base + delta committed entirely in memory.
  Seda memory;
  data::PopulateScenario(memory.mutable_store());
  ASSERT_TRUE(memory.Finalize(ScenarioOptions()).ok());
  std::string path = TempImagePath("commit_base");
  ASSERT_TRUE(memory.Save(path).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(memory.AddXml(DeltaDoc(i), "delta-" + std::to_string(i)).ok());
  }
  auto memory_info = memory.Commit();
  ASSERT_TRUE(memory_info.ok());
  ASSERT_TRUE(memory_info->incremental);

  // Same delta committed on top of the reopened image.
  Seda loaded;
  ASSERT_TRUE(loaded.Open(path).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(loaded.AddXml(DeltaDoc(i), "delta-" + std::to_string(i)).ok());
  }
  auto loaded_info = loaded.Commit();
  ASSERT_TRUE(loaded_info.ok()) << loaded_info.status().ToString();
  EXPECT_TRUE(loaded_info->incremental);
  EXPECT_EQ(loaded_info->epoch, 2u);
  EXPECT_EQ(loaded_info->docs_added, 4u);

  EXPECT_EQ(EpochFingerprint(*memory.snapshot()),
            EpochFingerprint(*loaded.snapshot()));
  auto memory_response = memory.Search(kQuery1);
  auto loaded_response = loaded.Search(kQuery1);
  ASSERT_TRUE(memory_response.ok());
  ASSERT_TRUE(loaded_response.ok());
  EXPECT_EQ(ResponseFingerprint(memory_response.value(), memory.store()),
            ResponseFingerprint(loaded_response.value(), loaded.store()));
  std::remove(path.c_str());
}

TEST(PersistTest, ConcurrentReadersOpenAndQueryOneImage) {
  Seda writer;
  data::PopulateScenario(writer.mutable_store());
  ASSERT_TRUE(writer.Finalize(ScenarioOptions()).ok());
  std::string path = TempImagePath("concurrent");
  ASSERT_TRUE(writer.Save(path).ok());
  auto expected = writer.Search(kQuery1);
  ASSERT_TRUE(expected.ok());
  const std::string reference =
      ResponseFingerprint(expected.value(), writer.store());

  // The one-writer/many-reader pattern: several readers map the same image
  // at once (here: threads, each with its own Seda instance — the same code
  // path separate processes take) and every one serves identical bytes.
  constexpr int kReaders = 4;
  std::vector<std::string> fingerprints(kReaders);
  std::vector<Status> statuses(kReaders, Status::OK());
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Seda reader;
      Status opened = reader.Open(path);
      if (!opened.ok()) {
        statuses[r] = opened;
        return;
      }
      auto response = reader.Search(kQuery1);
      if (!response.ok()) {
        statuses[r] = response.status();
        return;
      }
      fingerprints[r] = ResponseFingerprint(response.value(), reader.store());
    });
  }
  for (std::thread& thread : readers) thread.join();
  for (int r = 0; r < kReaders; ++r) {
    ASSERT_TRUE(statuses[r].ok()) << statuses[r].ToString();
    EXPECT_EQ(fingerprints[r], reference) << "reader " << r;
  }
  std::remove(path.c_str());
}

class PersistCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Seda seda;
    data::PopulateScenario(seda.mutable_store());
    ASSERT_TRUE(seda.Finalize(ScenarioOptions()).ok());
    path_ = TempImagePath("corrupt");
    ASSERT_TRUE(seda.Save(path_).ok());
    image_ = ReadFile(path_);
    ASSERT_GT(image_.size(), sizeof(persist::FileHeader));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  Status OpenImage() {
    Seda reader;
    return reader.Open(path_);
  }

  std::string path_;
  std::string image_;
};

TEST_F(PersistCorruptionTest, RejectsMissingFile) {
  Seda reader;
  Status status = reader.Open(TempImagePath("does_not_exist"));
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
}

TEST_F(PersistCorruptionTest, RejectsTruncatedHeader) {
  WriteFile(path_, image_.substr(0, 20));
  Status status = OpenImage();
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
}

TEST_F(PersistCorruptionTest, RejectsTruncatedBody) {
  WriteFile(path_, image_.substr(0, image_.size() / 2));
  Status status = OpenImage();
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
}

TEST_F(PersistCorruptionTest, RejectsBadMagic) {
  std::string bad = image_;
  bad[0] = 'X';
  WriteFile(path_, bad);
  Status status = OpenImage();
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.message().find("not a SEDA snapshot image"),
            std::string::npos);
}

TEST_F(PersistCorruptionTest, RejectsWrongFormatVersion) {
  // Patch the version field and re-seal the header CRC, so the version check
  // itself (not the checksum) is what trips.
  std::string bad = image_;
  persist::FileHeader header;
  std::memcpy(&header, bad.data(), sizeof(header));
  header.format_version = persist::kFormatVersion + 7;
  header.header_crc =
      persist::Crc32(&header, offsetof(persist::FileHeader, header_crc));
  std::memcpy(bad.data(), &header, sizeof(header));
  WriteFile(path_, bad);
  Status status = OpenImage();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status.ToString();
  EXPECT_NE(status.message().find("format version"), std::string::npos);
}

TEST_F(PersistCorruptionTest, RejectsBitFlipAnywhereInTheBody) {
  // Flip one bit in several spots across the payload; every flip must be
  // caught by a section (or table/header) CRC, never crash or load.
  for (size_t fraction = 1; fraction <= 4; ++fraction) {
    std::string bad = image_;
    size_t at = sizeof(persist::FileHeader) +
                (bad.size() - sizeof(persist::FileHeader)) * fraction / 5;
    bad[at] = static_cast<char>(bad[at] ^ 0x10);
    WriteFile(path_, bad);
    Status status = OpenImage();
    EXPECT_FALSE(status.ok()) << "bit flip at " << at << " loaded anyway";
  }
}

TEST_F(PersistCorruptionTest, RejectsHostileSectionCountWithValidCrc) {
  // Fuzzer-style mutation: rewrite the store-paths section's leading count
  // to a huge value and re-seal the section CRC, so every integrity check
  // passes and the decode hooks themselves are what must reject the image
  // (the SectionCursor's sticky bounds and the BoundedCount reserve clamp).
  std::string bad = image_;
  persist::FileHeader header;
  std::memcpy(&header, bad.data(), sizeof(header));
  ASSERT_LE(header.section_table_offset +
                header.section_count * sizeof(persist::SectionEntry),
            bad.size());
  bool patched = false;
  for (uint64_t i = 0; i < header.section_count; ++i) {
    size_t at = header.section_table_offset + i * sizeof(persist::SectionEntry);
    persist::SectionEntry entry;
    std::memcpy(&entry, bad.data() + at, sizeof(entry));
    if (entry.id != static_cast<uint32_t>(persist::SectionId::kStorePaths)) {
      continue;
    }
    ASSERT_GE(entry.size, sizeof(uint64_t));
    uint64_t huge = ~uint64_t{0};
    std::memcpy(bad.data() + entry.offset, &huge, sizeof(huge));
    entry.crc = persist::Crc32(bad.data() + entry.offset,
                               static_cast<size_t>(entry.size));
    std::memcpy(bad.data() + at, &entry, sizeof(entry));
    patched = true;
  }
  ASSERT_TRUE(patched);
  WriteFile(path_, bad);
  Status status = OpenImage();
  EXPECT_FALSE(status.ok()) << "hostile count decoded as a valid image";
}

TEST_F(PersistCorruptionTest, RejectsGarbageFile) {
  WriteFile(path_, std::string(4096, '\x5A'));
  Status status = OpenImage();
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
}

/// Rewrites the image at `path` with its graph sections replaced: the edge
/// log of `edges` plus the CSR section of `csr` (none when null). Every other
/// section is copied byte for byte and all CRCs come out valid, so only the
/// graph decoders see the damage.
void ReplaceGraphSections(const std::string& path,
                          const graph::DataGraph& edges,
                          const graph::Csr* csr) {
  std::vector<std::pair<persist::SectionId, std::string>> kept;
  uint64_t epoch = 0;
  {
    auto image = persist::MappedImage::Open(path);
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    for (const persist::SectionEntry& entry : image.value()->sections()) {
      auto id = static_cast<persist::SectionId>(entry.id);
      auto payload = image.value()->Section(id);
      ASSERT_TRUE(payload.ok());
      kept.emplace_back(id, std::string(reinterpret_cast<const char*>(
                                            payload.value().first),
                                        payload.value().second));
    }
    epoch = image.value()->epoch();
  }  // unmapped before the file is rewritten
  persist::ImageWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  for (const auto& [id, bytes] : kept) {
    if (id == persist::SectionId::kGraphCsr) continue;
    if (id == persist::SectionId::kGraphEdges) {
      ASSERT_EQ(edges.csr(), nullptr) << "pass the csr separately";
      ASSERT_TRUE(edges.SaveTo(&writer).ok());
      if (csr != nullptr) {
        ASSERT_TRUE(csr->SaveTo(&writer).ok());
      }
      continue;
    }
    writer.BeginSection(id);
    for (char c : bytes) writer.PutU8(static_cast<uint8_t>(c));
    ASSERT_TRUE(writer.EndSection().ok());
  }
  ASSERT_TRUE(writer.Finish(epoch).ok());
}

/// A one-edge graph over `store`, CSR built, whose edge-count matches the
/// hostile logs below — so CSR section validation passes and load-time edge
/// derivation is what has to catch them.
std::unique_ptr<graph::DataGraph> OneEdgeGraph(
    const store::DocumentStore& store, const store::NodeId& to) {
  auto graph = std::make_unique<graph::DataGraph>(&store);
  graph->AddEdge(store::NodeId{0, xml::DeweyId({1})}, to,
                 graph::EdgeType::kIdRef, "ref");
  EXPECT_TRUE(graph->BuildCsr());
  return graph;
}

TEST_F(PersistCorruptionTest, RejectsGraphEdgeWithOutOfRangeDoc) {
  // doc 0xFFFFFFFF once wrapped `doc + 1` to 0 inside Csr::VertexOf and read
  // past the per-document vertex table.
  store::DocumentStore store;  // the image's documents
  data::PopulateScenario(&store);
  auto valid = OneEdgeGraph(store, {1, xml::DeweyId({1})});
  graph::DataGraph hostile(&store);
  hostile.AddEdge({0, xml::DeweyId({1})}, {0xFFFFFFFFu, xml::DeweyId({1})},
                  graph::EdgeType::kIdRef, "ref");
  ReplaceGraphSections(path_, hostile, valid->csr());
  Status status = OpenImage();
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
}

TEST_F(PersistCorruptionTest, RejectsGraphEdgeToMissingNode) {
  store::DocumentStore store;  // the image's documents
  data::PopulateScenario(&store);
  auto valid = OneEdgeGraph(store, {1, xml::DeweyId({1})});
  graph::DataGraph hostile(&store);
  hostile.AddEdge({0, xml::DeweyId({1})}, {1, xml::DeweyId({1, 999, 7})},
                  graph::EdgeType::kIdRef, "ref");
  ReplaceGraphSections(path_, hostile, valid->csr());
  Status status = OpenImage();
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();

  // Without a CSR section the adjacency is rebuilt from the log, and the
  // same dangling edge fails the load there too.
  ReplaceGraphSections(path_, hostile, nullptr);
  status = OpenImage();
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
}

TEST_F(PersistCorruptionTest, RejectsNonTreeDegreeThatDisagreesWithTheLog) {
  // Same edge count, different target: the CSR section's non_tree_degree
  // credits doc 1's root, the log's edge lands on doc 2's.
  store::DocumentStore store;
  data::PopulateScenario(&store);
  auto valid = OneEdgeGraph(store, {1, xml::DeweyId({1})});
  graph::DataGraph moved(&store);
  moved.AddEdge({0, xml::DeweyId({1})}, {2, xml::DeweyId({1})},
                graph::EdgeType::kIdRef, "ref");
  ReplaceGraphSections(path_, moved, valid->csr());
  Status status = OpenImage();
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
}

TEST(PersistPreconditionTest, SaveBeforeFinalizeFails) {
  Seda seda;
  EXPECT_EQ(seda.Save(TempImagePath("unfinalized")).code(),
            StatusCode::kFailedPrecondition);
}

TEST(PersistPreconditionTest, OpenOnUsedInstanceFails) {
  Seda writer;
  data::PopulateScenario(writer.mutable_store());
  ASSERT_TRUE(writer.Finalize(ScenarioOptions()).ok());
  std::string path = TempImagePath("precondition");
  ASSERT_TRUE(writer.Save(path).ok());

  // Already finalized.
  EXPECT_EQ(writer.Open(path).code(), StatusCode::kFailedPrecondition);
  // Staged (eager) documents present.
  Seda staged;
  data::PopulateScenario(staged.mutable_store());
  EXPECT_EQ(staged.Open(path).code(), StatusCode::kFailedPrecondition);
  // Deferred documents present.
  Seda deferred;
  ASSERT_TRUE(deferred.AddXml(DeltaDoc(0), "delta-0").ok());
  EXPECT_EQ(deferred.Open(path).code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace seda::core
