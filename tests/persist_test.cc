#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/seda.h"
#include "core/session.h"
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

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Saves `populate` built under `options`, opens the image in a second
/// instance and requires the same epoch and byte-identical answers.
void ExpectReopenServesTheBuiltEpoch(void (*populate)(store::DocumentStore*),
                                     const SedaOptions& options,
                                     const std::vector<const char*>& queries,
                                     const std::string& tag) {
  Seda writer;
  populate(writer.mutable_store());
  ASSERT_TRUE(writer.Finalize(options).ok());
  std::string path = TempImagePath(tag);
  ASSERT_TRUE(writer.Save(path).ok());

  Seda reader;
  Status opened = reader.Open(path);
  ASSERT_TRUE(opened.ok()) << opened.ToString();
  ASSERT_TRUE(reader.finalized());
  EXPECT_EQ(reader.snapshot()->epoch(), 1u);

  EXPECT_EQ(EpochFingerprint(*writer.snapshot()),
            EpochFingerprint(*reader.snapshot()));
  for (const char* query : queries) {
    auto expected = writer.snapshot()->Search(query);
    auto loaded = reader.snapshot()->Search(query);
    ASSERT_TRUE(expected.ok()) << query;
    ASSERT_TRUE(loaded.ok()) << query;
    EXPECT_FALSE(loaded->topk.empty()) << query;
    // Epoch included: a loaded epoch is the same epoch, end to end.
    EXPECT_EQ(ResponseFingerprint(expected.value(), writer.snapshot()->store()),
              ResponseFingerprint(loaded.value(), reader.snapshot()->store()))
        << query;
  }
  std::remove(path.c_str());
}

TEST(PersistTest, SaveThenOpenServesByteIdenticalResponses) {
  {
    SCOPED_TRACE("scenario");
    ExpectReopenServesTheBuiltEpoch(
        [](store::DocumentStore* s) { data::PopulateScenario(s); },
        ScenarioOptions(),
        {kQuery1, R"((name, *))", R"((*, "Pacific Ocean") AND (name, *))",
         R"((GDP, *) AND (name, "United States"))"},
        "roundtrip");
  }
  {
    // The served configuration of a generated collection: the value-based
    // trade_partner edges plus tight top-k budgets, which travel inside the
    // image, so built and reopened epochs trim identically.
    SCOPED_TRACE("factbook 0.05");
    SedaOptions options = ScenarioOptions();
    options.topk.max_tuples_per_query = 500;
    options.topk.max_connect_visits = 256;
    ExpectReopenServesTheBuiltEpoch(
        [](store::DocumentStore* s) {
          data::WorldFactbookGenerator::Options generator;
          generator.scale = 0.05;
          data::WorldFactbookGenerator(generator).Populate(s);
        },
        options, {R"((name, "United States") AND (GDP, *))"},
        "roundtrip_factbook");
  }
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
    auto expected = writer.snapshot()->Search(corpus.query);
    auto loaded = reader.snapshot()->Search(corpus.query);
    ASSERT_TRUE(expected.ok()) << corpus.name;
    ASSERT_TRUE(loaded.ok()) << corpus.name;
    EXPECT_EQ(ResponseFingerprint(expected.value(), writer.snapshot()->store()),
              ResponseFingerprint(loaded.value(), reader.snapshot()->store()))
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

TEST(PersistTest, OpenServesTheIndexAndTheCsrFromTheMapping) {
  // Open must borrow the posting arena and the CSR arrays where they lie in
  // the mapping. A Load that rebuilt either would still answer identically
  // (and the open gate's time budget no longer tells a rebuilt index apart),
  // so this checks where the bytes live.
  std::string path = TempImagePath("in_place");
  {
    Seda writer;
    data::WorldFactbookGenerator::Options generator;
    generator.scale = 0.05;
    data::WorldFactbookGenerator(generator).Populate(writer.mutable_store());
    ASSERT_TRUE(writer.Finalize(ScenarioOptions()).ok());
    ASSERT_TRUE(writer.Save(path).ok());
  }
  auto image = persist::MappedImage::Open(path);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  auto snapshot = Snapshot::Load(image.value());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  auto lies_in = [&](const void* p, persist::SectionId id) {
    auto section = image.value()->Section(id);
    if (!section.ok()) return false;
    const auto [begin, size] = section.value();
    const auto* byte = static_cast<const uint8_t*>(p);
    return byte >= begin && byte < begin + size;
  };

  const text::PostingList postings = (*snapshot)->index().Postings("united");
  ASSERT_FALSE(postings.empty());
  ASSERT_FALSE(postings.dewey(0).empty());
  EXPECT_TRUE(
      lies_in(postings.dewey(0).data(), persist::SectionId::kIndexTerms));

  const graph::Csr* csr = (*snapshot)->data_graph().csr();
  ASSERT_NE(csr, nullptr);
  EXPECT_TRUE(lies_in(csr->RowBegin(0), persist::SectionId::kGraphCsr));
  std::remove(path.c_str());
}

/// Files in TempDir() whose names start with `prefix`.
std::vector<std::string> TempFilesStartingWith(const std::string& prefix) {
  std::vector<std::string> found;
  for (const auto& entry :
       std::filesystem::directory_iterator(::testing::TempDir())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) found.push_back(name);
  }
  return found;
}

TEST(PersistTest, OpenedImageKeepsAnsweringAfterItsPathIsResaved) {
  Seda writer;
  data::PopulateScenario(writer.mutable_store());
  ASSERT_TRUE(writer.Finalize(ScenarioOptions()).ok());
  std::string path = TempImagePath("resave");
  ASSERT_TRUE(writer.Save(path).ok());

  Seda reader;
  ASSERT_TRUE(reader.Open(path).ok());
  const std::vector<const char*> queries = {
      kQuery1, R"((name, *))", R"((*, "Pacific Ocean") AND (name, *))",
      R"((GDP, *) AND (name, "Deltaland 3"))"};
  // Touch half the queries before the re-save, the rest only after it: the
  // opened epoch decodes postings from its mapping on first touch.
  std::vector<std::string> before;
  for (size_t q = 0; q < queries.size() / 2; ++q) {
    auto response = reader.snapshot()->Search(queries[q]);
    ASSERT_TRUE(response.ok());
    before.push_back(
        ResponseFingerprint(response.value(), reader.snapshot()->store()));
  }

  // A different, larger image replaces the file the reader has mapped.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(writer.AddXml(DeltaDoc(i), "delta-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(writer.Commit().ok());
  ASSERT_TRUE(writer.Save(path).ok());

  Seda expected;  // what the reader served before the re-save
  data::PopulateScenario(expected.mutable_store());
  ASSERT_TRUE(expected.Finalize(ScenarioOptions()).ok());
  for (size_t q = 0; q < queries.size(); ++q) {
    auto response = reader.snapshot()->Search(queries[q]);
    ASSERT_TRUE(response.ok()) << queries[q];
    const std::string got =
        ResponseFingerprint(response.value(), reader.snapshot()->store());
    if (q < before.size()) {
      EXPECT_EQ(got, before[q]) << queries[q];
    }
    auto want = expected.snapshot()->Search(queries[q]);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got, ResponseFingerprint(want.value(), expected.snapshot()->store()))
        << queries[q];
  }
  EXPECT_EQ(EpochFingerprint(*reader.snapshot()),
            EpochFingerprint(*expected.snapshot()));

  // The path now holds the new image.
  Seda reopened;
  ASSERT_TRUE(reopened.Open(path).ok());
  EXPECT_EQ(EpochFingerprint(*reopened.snapshot()),
            EpochFingerprint(*writer.snapshot()));
  std::remove(path.c_str());
}

TEST(PersistTest, FailedSaveLeavesTheOldImageIntact) {
  Seda writer;
  data::PopulateScenario(writer.mutable_store());
  ASSERT_TRUE(writer.Finalize(ScenarioOptions()).ok());
  std::string path = TempImagePath("failed_save");
  ASSERT_TRUE(writer.Save(path).ok());
  const std::string old_bytes = ReadFile(path);
  const std::string temp_prefix =
      path.substr(path.find_last_of('/') + 1) + ".tmp.";

  {
    // A save abandoned midway: sections written, Finish() never reached.
    persist::ImageWriter abandoned;
    ASSERT_TRUE(abandoned.Open(path).ok());
    abandoned.BeginSection(persist::SectionId::kOptions);
    abandoned.PutU64(42);
    ASSERT_TRUE(abandoned.EndSection().ok());
    EXPECT_EQ(TempFilesStartingWith(temp_prefix).size(), 1u);
    EXPECT_EQ(ReadFile(path), old_bytes);
  }
  EXPECT_EQ(ReadFile(path), old_bytes);
  EXPECT_TRUE(TempFilesStartingWith(temp_prefix).empty());

  {
    // Finish() refuses an unterminated section; the target stays.
    persist::ImageWriter unterminated;
    ASSERT_TRUE(unterminated.Open(path).ok());
    unterminated.BeginSection(persist::SectionId::kOptions);
    EXPECT_FALSE(unterminated.Finish(7).ok());
  }
  EXPECT_EQ(ReadFile(path), old_bytes);
  EXPECT_TRUE(TempFilesStartingWith(temp_prefix).empty());

  // A save whose directory does not exist fails cleanly.
  Status missing = writer.Save(::testing::TempDir() + "no_such_dir_" +
                               std::to_string(::getpid()) + "/image.img");
  EXPECT_EQ(missing.code(), StatusCode::kIoError) << missing.ToString();

  Seda reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(EpochFingerprint(*reader.snapshot()),
            EpochFingerprint(*writer.snapshot()));
  std::remove(path.c_str());
}

// kill -9 during a save: the target keeps its old image, and the killed
// writer's temporary file is swept by the next save once its pid is gone —
// never while it lives, and never a file of this process.
TEST(PersistTest, WriterKilledMidSaveLeavesTheImageAndTheNextSaveSweepsIt) {
  Seda writer;
  data::PopulateScenario(writer.mutable_store());
  ASSERT_TRUE(writer.Finalize(ScenarioOptions()).ok());
  std::string path = TempImagePath("killed_save");
  ASSERT_TRUE(writer.Save(path).ok());
  const std::string old_bytes = ReadFile(path);
  const std::string temp_prefix =
      path.substr(path.find_last_of('/') + 1) + ".tmp.";

  int ready[2];
  ASSERT_EQ(::pipe(ready), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // A save that has written a section and is still running when killed.
    ::close(ready[0]);
    persist::ImageWriter partial;
    bool ok = partial.Open(path).ok();
    if (ok) {
      partial.BeginSection(persist::SectionId::kOptions);
      partial.PutU64(42);
      ok = partial.EndSection().ok();
    }
    const char byte = ok ? 1 : 0;
    if (::write(ready[1], &byte, 1) != 1) ::_exit(1);
    for (;;) ::pause();
  }
  ::close(ready[1]);
  char byte = 0;
  const ssize_t got = ::read(ready[0], &byte, 1);
  ::close(ready[0]);
  const std::string child_prefix = temp_prefix + std::to_string(child) + ".";
  // While the child lives, another writer's Open leaves its file alone.
  const size_t while_alive = [&] {
    persist::ImageWriter concurrent;
    EXPECT_TRUE(concurrent.Open(path).ok());
    return TempFilesStartingWith(child_prefix).size();
  }();
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  ASSERT_EQ(got, 1);
  ASSERT_EQ(byte, 1);
  EXPECT_EQ(while_alive, 1u);
  EXPECT_EQ(ReadFile(path), old_bytes);

  // The old image opens, answers byte-identically and audits clean.
  Seda reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(EpochFingerprint(*reader.snapshot()),
            EpochFingerprint(*writer.snapshot()));
  for (const char* query : {kQuery1, R"((name, *))"}) {
    auto expected = writer.snapshot()->Search(query);
    auto loaded = reader.snapshot()->Search(query);
    ASSERT_TRUE(expected.ok() && loaded.ok()) << query;
    EXPECT_EQ(ResponseFingerprint(expected.value(), writer.snapshot()->store()),
              ResponseFingerprint(loaded.value(), reader.snapshot()->store()))
        << query;
  }
  const audit::AuditReport report = reader.snapshot()->Audit();
  EXPECT_TRUE(report.ok()) << report.ToString();

  // The next save sweeps the dead writer's file, and only it: a name of
  // this process and a name not of the writer's form stay.
  ASSERT_EQ(TempFilesStartingWith(child_prefix).size(), 1u);
  const std::string dead_file =
      ::testing::TempDir() + TempFilesStartingWith(child_prefix).front();
  const std::string own_file =
      path + ".tmp." + std::to_string(::getpid()) + ".999999";
  const std::string foreign_file =
      path + ".tmp." + std::to_string(child) + ".x";
  WriteFile(own_file, "own");
  WriteFile(foreign_file, "foreign");
  ASSERT_TRUE(writer.Save(path).ok());
  EXPECT_FALSE(std::filesystem::exists(dead_file));
  EXPECT_EQ(ReadFile(own_file), "own");
  EXPECT_EQ(ReadFile(foreign_file), "foreign");
  EXPECT_EQ(ReadFile(path), old_bytes);
  std::remove(own_file.c_str());
  std::remove(foreign_file.c_str());
  std::remove(path.c_str());
}

// The re-save writes a new file and renames it over the old one; the
// permission bits of the image it replaces carry over.
TEST(PersistTest, ResaveKeepsTheImageMode) {
  Seda writer;
  data::PopulateScenario(writer.mutable_store());
  ASSERT_TRUE(writer.Finalize(ScenarioOptions()).ok());
  std::string path = TempImagePath("resave_mode");
  ASSERT_TRUE(writer.Save(path).ok());
  namespace fs = std::filesystem;
  const fs::perms mode = fs::perms::owner_read | fs::perms::owner_write |
                         fs::perms::group_read;
  fs::permissions(path, mode);
  ASSERT_TRUE(writer.Save(path).ok());
  EXPECT_EQ(fs::status(path).permissions() & fs::perms::mask, mode);
  std::remove(path.c_str());
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
  auto memory_response = memory.snapshot()->Search(kQuery1);
  auto loaded_response = loaded.snapshot()->Search(kQuery1);
  ASSERT_TRUE(memory_response.ok());
  ASSERT_TRUE(loaded_response.ok());
  EXPECT_EQ(
      ResponseFingerprint(memory_response.value(), memory.snapshot()->store()),
      ResponseFingerprint(loaded_response.value(), loaded.snapshot()->store()));
  std::remove(path.c_str());
}

TEST(PersistTest, ConcurrentReadersOpenAndQueryOneImage) {
  Seda writer;
  data::PopulateScenario(writer.mutable_store());
  ASSERT_TRUE(writer.Finalize(ScenarioOptions()).ok());
  std::string path = TempImagePath("concurrent");
  ASSERT_TRUE(writer.Save(path).ok());
  auto expected = writer.snapshot()->Search(kQuery1);
  ASSERT_TRUE(expected.ok());
  const std::string reference =
      ResponseFingerprint(expected.value(), writer.snapshot()->store());

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
      auto response = reader.snapshot()->Search(kQuery1);
      if (!response.ok()) {
        statuses[r] = response.status();
        return;
      }
      fingerprints[r] =
          ResponseFingerprint(response.value(), reader.snapshot()->store());
    });
  }
  for (std::thread& thread : readers) thread.join();
  for (int r = 0; r < kReaders; ++r) {
    ASSERT_TRUE(statuses[r].ok()) << statuses[r].ToString();
    EXPECT_EQ(fingerprints[r], reference) << "reader " << r;
  }
  std::remove(path.c_str());
}

TEST(PersistTest, ReadersOfAnOpenedEpochMatchASingleEpochRunDuringCommit) {
  // Reference: the single-epoch instance that wrote the image.
  Seda writer;
  data::PopulateScenario(writer.mutable_store());
  ASSERT_TRUE(writer.Finalize(ScenarioOptions()).ok());
  std::string path = TempImagePath("commit_race");
  ASSERT_TRUE(writer.Save(path).ok());
  const std::vector<std::string> queries = {kQuery1, R"((*, "China"))",
                                            R"((name, "Mexico") AND (GDP, *))"};
  std::vector<std::string> expected;
  for (const std::string& query : queries) {
    auto response = writer.snapshot()->Search(query);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    expected.push_back(
        ResponseFingerprint(response.value(), writer.snapshot()->store()));
  }

  Seda loaded;
  ASSERT_TRUE(loaded.Open(path).ok());
  const std::string base_before = EpochFingerprint(*loaded.snapshot());
  constexpr int kReaders = 3;
  std::vector<Session> sessions;  // all pinned to the opened epoch
  for (int r = 0; r < kReaders; ++r) {
    auto session = loaded.NewSession();
    ASSERT_TRUE(session.ok());
    sessions.push_back(std::move(session.value()));
  }

  // Readers scan the opened epoch's posting blocks (borrowed from the
  // mapping) while the commits below build new epochs on top of it — the
  // incremental index constructor reads those same blocks.
  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> checks{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Session& session = sessions[r];
      do {
        for (size_t q = 0; q < queries.size(); ++q) {
          auto response = session.Search(queries[q]);
          if (!response.ok() ||
              ResponseFingerprint(response.value(),
                                  session.snapshot().store()) != expected[q]) {
            mismatches.fetch_add(1);
          }
          checks.fetch_add(1);
        }
      } while (!done.load(std::memory_order_acquire));
    });
  }
  constexpr int kCommits = 3;
  for (int c = 0; c < kCommits; ++c) {
    for (int d = 0; d < 2; ++d) {
      int i = 2 * c + d;
      std::string name = "delta-" + std::to_string(i);
      ASSERT_TRUE(loaded.AddXml(DeltaDoc(i), name).ok());
    }
    auto info = loaded.Commit();
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_TRUE(info.ok() && info->incremental);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& thread : readers) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(checks.load(), kReaders * static_cast<int>(queries.size()));
  EXPECT_EQ(loaded.snapshot()->epoch(), 1u + kCommits);
  // The commits left the epoch they were built on untouched.
  EXPECT_EQ(EpochFingerprint(sessions[0].snapshot()), base_before);
  std::remove(path.c_str());
}

TEST(PersistFormatTest, EmptyU32ArraysRoundTrip) {
  // An empty array has no bytes behind its count; decoding it must not
  // copy from (or into) a null buffer.
  std::string path = TempImagePath("empty_arrays");
  persist::ImageWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  writer.BeginSection(persist::SectionId::kOptions);
  writer.PutU32Array({});
  writer.PutU32Array({7, 8});
  writer.PutU32Span(nullptr, 0);
  writer.PutU32(42);
  ASSERT_TRUE(writer.EndSection().ok());
  ASSERT_TRUE(writer.Finish(1).ok());

  auto image = persist::MappedImage::Open(path);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  auto cursor =
      persist::OpenSection(*image.value(), persist::SectionId::kOptions);
  ASSERT_TRUE(cursor.ok());
  EXPECT_TRUE(cursor.value().GetU32Array().empty());
  EXPECT_EQ(cursor.value().GetU32Array(), (std::vector<uint32_t>{7, 8}));
  EXPECT_EQ(cursor.value().GetU32Span().second, 0u);
  EXPECT_EQ(cursor.value().GetU32(), 42u);
  EXPECT_EQ(cursor.value().remaining(), 0u);
  EXPECT_TRUE(cursor.value().status().ok());
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

TEST_F(PersistCorruptionTest, RejectsMisalignedSectionWithValidCrc) {
  // Shift the posting section's table entry one byte into its payload and
  // reseal its CRC: the arena it opens with would no longer be 4-byte
  // aligned for in-place reads, so the table check must refuse it.
  std::string bad = image_;
  persist::FileHeader header;
  std::memcpy(&header, bad.data(), sizeof(header));
  bool patched = false;
  for (uint64_t i = 0; i < header.section_count; ++i) {
    size_t at = header.section_table_offset + i * sizeof(persist::SectionEntry);
    persist::SectionEntry entry;
    std::memcpy(&entry, bad.data() + at, sizeof(entry));
    if (entry.id != static_cast<uint32_t>(persist::SectionId::kIndexTerms)) {
      continue;
    }
    entry.offset += 1;
    entry.size -= 1;
    entry.crc = persist::Crc32(bad.data() + entry.offset,
                               static_cast<size_t>(entry.size));
    std::memcpy(bad.data() + at, &entry, sizeof(entry));
    patched = true;
  }
  ASSERT_TRUE(patched);
  WriteFile(path_, bad);
  Status status = OpenImage();
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.message().find("misaligned"), std::string::npos)
      << status.ToString();
}

TEST_F(PersistCorruptionTest, RejectsGarbageFile) {
  WriteFile(path_, std::string(4096, '\x5A'));
  Status status = OpenImage();
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
}

/// Every section of the image at `path`, in file order, plus its epoch.
struct ImageSections {
  std::vector<std::pair<persist::SectionId, std::string>> sections;
  uint64_t epoch = 0;
};

ImageSections ReadSections(const std::string& path) {
  ImageSections out;
  auto image = persist::MappedImage::Open(path);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  if (!image.ok()) return out;
  for (const persist::SectionEntry& entry : image.value()->sections()) {
    auto id = static_cast<persist::SectionId>(entry.id);
    auto payload = image.value()->Section(id);
    EXPECT_TRUE(payload.ok());
    if (!payload.ok()) continue;
    out.sections.emplace_back(
        id, std::string(reinterpret_cast<const char*>(payload.value().first),
                        payload.value().second));
  }
  out.epoch = image.value()->epoch();
  return out;  // unmapped before the caller rewrites the file
}

void PutBytes(persist::ImageWriter* writer, persist::SectionId id,
              const std::string& bytes) {
  writer->BeginSection(id);
  for (char c : bytes) writer->PutU8(static_cast<uint8_t>(c));
  ASSERT_TRUE(writer->EndSection().ok());
}

/// Rewrites the image at `path` with its graph sections replaced: the edge
/// log of `edges` plus the CSR section of `csr` (none when null). Every other
/// section is copied byte for byte and all CRCs come out valid, so only the
/// graph decoders see the damage.
void ReplaceGraphSections(const std::string& path,
                          const graph::DataGraph& edges,
                          const graph::Csr* csr) {
  ImageSections image = ReadSections(path);
  persist::ImageWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  for (const auto& [id, bytes] : image.sections) {
    if (id == persist::SectionId::kGraphCsr) continue;
    if (id == persist::SectionId::kGraphEdges) {
      ASSERT_EQ(edges.csr(), nullptr) << "pass the csr separately";
      ASSERT_TRUE(edges.SaveTo(&writer).ok());
      if (csr != nullptr) {
        ASSERT_TRUE(csr->SaveTo(&writer).ok());
      }
      continue;
    }
    PutBytes(&writer, id, bytes);
  }
  ASSERT_TRUE(writer.Finish(image.epoch).ok());
}

/// Rewrites the image at `path` with section `id`'s payload passed through
/// `patch`, every CRC resealed, so only that section's decoder sees the
/// damage.
void PatchSection(const std::string& path, persist::SectionId id,
                  const std::function<void(std::string*)>& patch) {
  ImageSections image = ReadSections(path);
  persist::ImageWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  for (auto& [section, bytes] : image.sections) {
    if (section == id) patch(&bytes);
    PutBytes(&writer, section, bytes);
  }
  ASSERT_TRUE(writer.Finish(image.epoch).ok());
}

uint32_t U32At(const std::string& bytes, size_t at) {
  uint32_t value = 0;
  std::memcpy(&value, bytes.data() + at, sizeof(value));
  return value;
}

void SetU32At(std::string* bytes, size_t at, uint32_t value) {
  std::memcpy(bytes->data() + at, &value, sizeof(value));
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

  // Without a CSR section the image is rejected before any edge is checked.
  ReplaceGraphSections(path_, hostile, nullptr);
  status = OpenImage();
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.message().find("no graph CSR section"), std::string::npos)
      << status.ToString();
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

// kOptions: [double overlap threshold][u8 idrefs][u8 xlinks][u64 num_threads]
// [u64 query_threads]...; Open() sizes its thread pools from the two counts.
TEST_F(PersistCorruptionTest, RejectsThreadCountsPastTheCeiling) {
  for (size_t at : {size_t{10}, size_t{18}}) {
    SCOPED_TRACE("thread count at options byte " + std::to_string(at));
    WriteFile(path_, image_);
    PatchSection(path_, persist::SectionId::kOptions,
                 [at](std::string* options) {
                   const uint64_t huge = uint64_t{1} << 40;
                   std::memcpy(options->data() + at, &huge, sizeof(huge));
                 });
    auto loaded = core::Snapshot::Load(path_);
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << loaded.status().ToString();
    Status opened = OpenImage();
    EXPECT_EQ(opened.code(), StatusCode::kParseError) << opened.ToString();
  }
}

TEST_F(PersistCorruptionTest, RejectsOptionsCutBeforeTheColumnTail) {
  // The column-inference tail closes the options payload: u8 enabled +
  // double + u64 + double + u64 = 33 bytes.
  PatchSection(path_, persist::SectionId::kOptions, [](std::string* options) {
    options->resize(options->size() - 33);
  });
  Status status = OpenImage();
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
}

// kIndexTerms (format v2): [u32 W][W arena words][u64 T] then T entries of
// [u32 len][term bytes][u32 block][u32 max_tf][u64 doc_freq]. A block is
// [n][doc x n][path x n][dewey_end x n][pos_end x n][deweys][positions].
constexpr size_t kTermEntryTail = 16;  // block + max_tf + doc_freq

size_t FirstTermEntry(const std::string& terms) {
  return 4 + 4 * size_t{U32At(terms, 0)} + 8;
}

TEST_F(PersistCorruptionTest, RejectsTermOffsetPastThePostingArena) {
  PatchSection(path_, persist::SectionId::kIndexTerms, [](std::string* terms) {
    size_t entry = FirstTermEntry(*terms);
    size_t block_at = entry + 4 + U32At(*terms, entry);
    SetU32At(terms, block_at, U32At(*terms, 0));  // one past the last word
  });
  Status status = OpenImage();
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.message().find("term offset past the posting arena"),
            std::string::npos)
      << status.ToString();
}

TEST_F(PersistCorruptionTest, RejectsPositionEndsThatAreNotMonotone) {
  bool patched = false;
  PatchSection(path_, persist::SectionId::kIndexTerms, [&](std::string* terms) {
    const uint32_t arena_words = U32At(*terms, 0);
    const uint64_t term_count = [&] {
      uint64_t count = 0;
      std::memcpy(&count, terms->data() + 4 + 4 * size_t{arena_words}, 8);
      return count;
    }();
    size_t entry = FirstTermEntry(*terms);
    for (uint64_t t = 0; t < term_count && !patched; ++t) {
      size_t block_at = entry + 4 + U32At(*terms, entry);
      size_t block = U32At(*terms, block_at);
      uint32_t n = U32At(*terms, 4 + 4 * block);
      entry = block_at + kTermEntryTail;
      if (n < 2) continue;
      // pos_end[0] past pos_end[1]: posting 1's positions would run
      // backwards.
      size_t pos_ends = 4 + 4 * (block + 1 + 3 * size_t{n});
      SetU32At(terms, pos_ends, U32At(*terms, pos_ends + 4) + 1);
      patched = true;
    }
  });
  ASSERT_TRUE(patched) << "no term with two postings";
  Status status = OpenImage();
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.message().find("posting end offsets not monotone"),
            std::string::npos)
      << status.ToString();
}

TEST_F(PersistCorruptionTest, RejectsPathCountArrayOfTheWrongLength) {
  // kIndexPaths: [u32 W][W count words][u64 T] then entries of
  // [u32 len][term bytes][u32 P][P path ids][u32 counts offset][u32 length].
  PatchSection(path_, persist::SectionId::kIndexPaths, [](std::string* paths) {
    size_t entry = 4 + 4 * size_t{U32At(*paths, 0)} + 8;
    size_t path_list = entry + 4 + U32At(*paths, entry);
    uint32_t path_count = U32At(*paths, path_list);
    size_t length_at = path_list + 4 + 4 * size_t{path_count} + 4;
    SetU32At(paths, length_at, path_count + 1);
  });
  Status status = OpenImage();
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.message().find("path count array disagrees"),
            std::string::npos)
      << status.ToString();
}

// kDataguides: [u64 G] then per guide [u32 P][P path ids][u32 M][M members],
// then [u64 documents][u64 dataguides][u64 merges][u64 absorbed][f64 ratio]
// [u64 L] and per link [u64 guide_a][u64 guide_b][3 length-prefixed strings].
struct GuideLayout {
  std::vector<size_t> paths;    ///< offset of each guide's path-count word
  std::vector<size_t> members;  ///< offset of each guide's member-count word
  size_t links = 0;             ///< offset of the link count
};

GuideLayout ParseGuides(const std::string& bytes) {
  GuideLayout layout;
  uint64_t guides = 0;
  std::memcpy(&guides, bytes.data(), 8);
  size_t at = 8;
  for (uint64_t g = 0; g < guides; ++g) {
    layout.paths.push_back(at);
    at += 4 + 4 * size_t{U32At(bytes, at)};
    layout.members.push_back(at);
    at += 4 + 4 * size_t{U32At(bytes, at)};
  }
  layout.links = at + 5 * 8;
  return layout;
}

Status OpenWithPatchedGuides(const std::string& path,
                             const std::function<void(std::string*)>& patch) {
  PatchSection(path, persist::SectionId::kDataguides, patch);
  Seda reader;
  return reader.Open(path);
}

void ExpectGuideError(const Status& status, const std::string& what) {
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.message().find("image dataguide section malformed: " + what),
            std::string::npos)
      << status.ToString();
}

TEST_F(PersistCorruptionTest, RejectsDataguidePathPastTheDictionary) {
  // PathDictionary::PathString does not check its id: the first connection
  // summary, or the next Extend's inverted index, would read out of bounds.
  ExpectGuideError(OpenWithPatchedGuides(path_,
                                         [](std::string* guides) {
                                           size_t first = ParseGuides(*guides).paths[0];
                                           SetU32At(guides, first + 4, 0xFFFFFFF0u);
                                         }),
                   "path past the dictionary");
}

TEST_F(PersistCorruptionTest, RejectsDataguidePathsOutOfOrder) {
  bool patched = false;
  Status status = OpenWithPatchedGuides(path_, [&](std::string* guides) {
    for (size_t at : ParseGuides(*guides).paths) {
      if (U32At(*guides, at) < 2) continue;
      uint32_t first = U32At(*guides, at + 4);
      SetU32At(guides, at + 4, U32At(*guides, at + 8));
      SetU32At(guides, at + 8, first);
      patched = true;
      return;
    }
  });
  ASSERT_TRUE(patched) << "no guide with two paths";
  ExpectGuideError(status, "guide paths not strictly ascending");
}

TEST_F(PersistCorruptionTest, RejectsDataguideMemberPastTheStore) {
  ExpectGuideError(OpenWithPatchedGuides(path_,
                                         [](std::string* guides) {
                                           size_t first = ParseGuides(*guides).members[0];
                                           SetU32At(guides, first + 4, 0xFFFFFFF0u);
                                         }),
                   "member past the store");
}

TEST_F(PersistCorruptionTest, RejectsDocumentInTwoDataguides) {
  bool patched = false;
  Status status = OpenWithPatchedGuides(path_, [&](std::string* guides) {
    GuideLayout layout = ParseGuides(*guides);
    ASSERT_GE(layout.members.size(), 2u);
    // Guide 1's first member becomes guide 0's first member.
    SetU32At(guides, layout.members[1] + 4, U32At(*guides, layout.members[0] + 4));
    patched = true;
  });
  ASSERT_TRUE(patched);
  ExpectGuideError(status, "document in two guides");
}

TEST_F(PersistCorruptionTest, RejectsDocumentInNoDataguide) {
  ExpectGuideError(
      OpenWithPatchedGuides(path_,
                            [](std::string* guides) {
                              // Drop guide 0's last member.
                              size_t at = ParseGuides(*guides).members[0];
                              uint32_t members = U32At(*guides, at);
                              SetU32At(guides, at, members - 1);
                              guides->erase(at + 4 * size_t{members}, 4);
                            }),
      "document in no guide");
}

TEST_F(PersistCorruptionTest, RejectsDataguideDocumentCountOffTheStore) {
  ExpectGuideError(OpenWithPatchedGuides(path_,
                                         [](std::string* guides) {
                                           size_t at = ParseGuides(*guides).links - 40;
                                           uint64_t documents = 0;
                                           std::memcpy(&documents, guides->data() + at, 8);
                                           ++documents;
                                           std::memcpy(guides->data() + at, &documents, 8);
                                         }),
                   "document count disagrees with the store");
}

TEST_F(PersistCorruptionTest, RejectsDataguideLinkPastTheGuideCount) {
  bool patched = false;
  Status status = OpenWithPatchedGuides(path_, [&](std::string* guides) {
    size_t links = ParseGuides(*guides).links;
    uint64_t link_count = 0;
    std::memcpy(&link_count, guides->data() + links, 8);
    ASSERT_GT(link_count, 0u) << "the scenario has IDREF links";
    uint64_t guide_b = 1u << 20;
    std::memcpy(guides->data() + links + 8 + 8, &guide_b, 8);
    patched = true;
  });
  ASSERT_TRUE(patched);
  ExpectGuideError(status, "link guide past the guide count");
}

// kStoreDocs: [u64 total nodes][u64 D] then per document a u64-length-prefixed
// blob ending in that document's path set, [u32 P][P path ids].
/// Offset of document 0's first path-set id in the kStoreDocs payload.
size_t FirstDocPathSet(const std::string& docs, size_t path_count) {
  uint64_t blob_size = 0;
  std::memcpy(&blob_size, docs.data() + 16, 8);
  size_t count_at = 24 + blob_size - 4 * (path_count + 1);
  EXPECT_EQ(U32At(docs, count_at), path_count);
  return count_at + 4;
}

Status OpenWithPatchedDocPathSet(const std::string& path,
                                 const std::function<void(std::string*, size_t)>& patch) {
  store::DocumentStore store;  // the image's documents
  data::PopulateScenario(&store);
  const size_t path_count = store.DocumentPathSet(0).size();
  EXPECT_GE(path_count, 2u);
  PatchSection(path, persist::SectionId::kStoreDocs, [&](std::string* docs) {
    patch(docs, FirstDocPathSet(*docs, path_count) + 4 * (path_count - 1));
  });
  Seda reader;
  return reader.Open(path);
}

TEST_F(PersistCorruptionTest, RejectsDocumentPathSetPastTheDictionary) {
  // The dataguide build indexes its path -> guides lists by these ids, so a
  // cold rebuild over the opened store would write out of bounds.
  Status status = OpenWithPatchedDocPathSet(
      path_, [](std::string* docs, size_t last) { SetU32At(docs, last, 0xFFFFFFF0u); });
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.message().find("path set entry past the dictionary"),
            std::string::npos)
      << status.ToString();
}

TEST_F(PersistCorruptionTest, RejectsDocumentPathSetOutOfOrder) {
  Status status = OpenWithPatchedDocPathSet(
      path_, [](std::string* docs, size_t last) {
        SetU32At(docs, last, U32At(*docs, last - 4));  // a repeated id
      });
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.message().find("path set not strictly ascending"),
            std::string::npos)
      << status.ToString();
}

TEST_F(PersistCorruptionTest, CommitOverTreePathsMissingFromTheDictionary) {
  // Renaming the dictionary entry "/mondial_country" leaves the IDREF
  // targets' root elements with a path the dictionary lacks (the auditor's
  // store.path_interned). The next commit maps those edges to dataguide
  // links; a PathId lookup there would index the dictionary with
  // kInvalidPathId.
  const std::string entry = std::string("\x10\0\0\0", 4) + "/mondial_country";
  bool renamed = false;
  PatchSection(path_, persist::SectionId::kStorePaths, [&](std::string* paths) {
    size_t at = paths->find(entry);
    ASSERT_NE(at, std::string::npos);
    (*paths)[at + entry.size() - 1] = 'Y';
    renamed = true;
  });
  ASSERT_TRUE(renamed);
  Seda seda;
  Status status = seda.Open(path_);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_TRUE(seda.AddXml("<sea id=\"sea-x\"><name>X Sea</name></sea>", "x").ok());
  auto commit = seda.Commit();
  EXPECT_TRUE(commit.ok()) << commit.status().ToString();
}

TEST(PersistPreconditionTest, SaveBeforeFinalizeFails) {
  Seda seda;
  EXPECT_EQ(seda.Save(TempImagePath("unfinalized")).code(),
            StatusCode::kFailedPrecondition);
}

// Finalize enforces the thread-count ceiling Open() reads back, so Save()
// cannot write an image its own reader rejects. The check runs before any
// pool is sized, so the rejected counts never spawn a thread.
TEST(PersistPreconditionTest, FinalizeRejectsThreadCountsPastTheCeiling) {
  Seda seda;
  data::PopulateScenario(seda.mutable_store());
  for (bool query_side : {false, true}) {
    SCOPED_TRACE(query_side ? "query_threads" : "num_threads");
    SedaOptions options = ScenarioOptions();
    (query_side ? options.query_threads : options.num_threads) =
        kMaxThreadCount + 1;
    EXPECT_EQ(seda.Finalize(options).code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(seda.finalized());
  }
  ASSERT_TRUE(seda.Finalize(ScenarioOptions()).ok());
  EXPECT_TRUE(seda.finalized());
  std::string path = TempImagePath("thread_ceiling");
  ASSERT_TRUE(seda.Save(path).ok());
  Seda reopened;
  EXPECT_TRUE(reopened.Open(path).ok());
  std::remove(path.c_str());
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
