#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "column/column_store.h"
#include "core/seda.h"
#include "cube/cube_builder.h"
#include "data/generators.h"
#include "persist/format.h"

namespace seda::column {
namespace {

constexpr const char* kName = "/country/name";
constexpr const char* kYear = "/country/year";
constexpr const char* kTrade =
    "/country/economy/import_partners/item/trade_country";
constexpr const char* kPct =
    "/country/economy/import_partners/item/percentage";

std::string TempImagePath(const std::string& name) {
  return ::testing::TempDir() + "seda_column_" + name + "_" +
         std::to_string(::getpid()) + ".img";
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

/// Permissive thresholds: every leaf-pure path becomes a column, so tests can
/// reason about exactly which paths qualify.
InferenceOptions AllLeaves() {
  InferenceOptions options;
  options.min_doc_support = 0.0;
  options.min_docs = 1;
  return options;
}

TEST(ColumnInferenceTest, ScenarioColumnsAndTypes) {
  store::DocumentStore store;
  data::PopulateScenario(&store);
  auto columns = ColumnStore::Build(store, AllLeaves());
  ASSERT_NE(columns, nullptr);
  EXPECT_EQ(columns->doc_count(), store.DocumentCount());

  const Column* name = columns->Find(kName);
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->type(), ValueType::kString);
  EXPECT_EQ(name->depth(), 2u);
  // The scenario mixes <country> docs with territory/other shapes; the
  // column covers exactly the country documents.
  EXPECT_GT(name->docs_present(), 0u);
  EXPECT_LT(name->docs_present(), store.DocumentCount());

  const Column* year = columns->Find(kYear);
  ASSERT_NE(year, nullptr);
  EXPECT_EQ(year->type(), ValueType::kInt64);
  ASSERT_EQ(year->dict_size(), year->int64_values().size());

  // "17.8%" etc.: numeric-looking but not parseable, stays a string column.
  const Column* pct = columns->Find(kPct);
  ASSERT_NE(pct, nullptr);
  EXPECT_EQ(pct->type(), ValueType::kString);
  EXPECT_EQ(pct->depth(), 5u);

  // Interior element paths never qualify (leaf purity).
  EXPECT_EQ(columns->Find("/country"), nullptr);
  EXPECT_EQ(columns->Find("/country/economy"), nullptr);

  // Path-id lookup agrees with string lookup.
  EXPECT_EQ(columns->FindByPathId(name->path_id()), name);

  EXPECT_STREQ(ValueTypeName(ValueType::kString), "string");
  EXPECT_STREQ(ValueTypeName(ValueType::kInt64), "int64");
  EXPECT_STREQ(ValueTypeName(ValueType::kDouble), "double");
}

TEST(ColumnInferenceTest, ProbesMatchTheTreeWalk) {
  store::DocumentStore store;
  data::PopulateScenario(&store);
  auto columns = ColumnStore::Build(store, AllLeaves());
  const Column* name = columns->Find(kName);
  ASSERT_NE(name, nullptr);

  for (store::DocId d = 0; d < store.DocumentCount(); ++d) {
    uint32_t row = 0;
    if (!name->DocPresent(d)) {
      EXPECT_EQ(name->DocSingleton(d, &row), Column::Presence::kMissing);
      continue;
    }
    ASSERT_EQ(name->DocSingleton(d, &row), Column::Presence::kValue)
        << "doc " << d;
    // The row's Dewey resolves back through FindRow and names a real node
    // whose content is the row's value.
    uint32_t again = 0;
    ASSERT_TRUE(name->FindRow(d, name->RowDewey(row), name->depth(), &again));
    EXPECT_EQ(again, row);
    store::NodeId id{d, xml::DeweyId(std::vector<uint32_t>(
                            name->RowDewey(row),
                            name->RowDewey(row) + name->depth()))};
    EXPECT_EQ(std::string(name->RowValue(row)), store.GetContent(id));
  }

  // trade_country repeats per document: DocSingleton must say duplicate,
  // while a per-item Dewey prefix still isolates exactly one row.
  const Column* trade = columns->Find(kTrade);
  ASSERT_NE(trade, nullptr);
  uint32_t row = 0;
  EXPECT_EQ(trade->DocSingleton(0, &row), Column::Presence::kDuplicate);
  const uint32_t* first = trade->RowDewey(trade->DocRowBegin(0));
  EXPECT_EQ(trade->PrefixSingleton(0, first, trade->depth() - 1, &row),
            Column::Presence::kValue);
  EXPECT_EQ(row, trade->DocRowBegin(0));
}

TEST(ColumnInferenceTest, ThresholdsGateInference) {
  store::DocumentStore store;
  data::PopulateScenario(&store);

  InferenceOptions disabled = AllLeaves();
  disabled.enabled = false;
  EXPECT_EQ(ColumnStore::Build(store, disabled)->size(), 0u);

  InferenceOptions unreachable = AllLeaves();
  unreachable.min_docs = store.DocumentCount() + 1;
  EXPECT_EQ(ColumnStore::Build(store, unreachable)->size(), 0u);

  InferenceOptions one = AllLeaves();
  one.max_columns = 1;
  auto capped = ColumnStore::Build(store, one);
  ASSERT_EQ(capped->size(), 1u);
  // The best-supported path wins the cap.
  auto all = ColumnStore::Build(store, AllLeaves());
  uint64_t best = 0;
  for (const Column& col : all->columns()) {
    best = std::max(best, col.docs_present());
  }
  EXPECT_EQ(capped->columns()[0].docs_present(), best);
}

TEST(ColumnAuditTest, AuditorCatchesDivergenceFromTheTrees) {
  store::DocumentStore a;
  ASSERT_TRUE(a.AddXml("<r><v>1</v><w>x</w></r>", "d0").ok());
  ASSERT_TRUE(a.AddXml("<r><v>2</v><w>y</w></r>", "d1").ok());
  auto columns = ColumnStore::Build(a, AllLeaves());
  ASSERT_GE(columns->size(), 2u);

  audit::SnapshotAuditor clean(&a, nullptr, nullptr, nullptr, columns.get());
  audit::AuditReport ok_report;
  clean.AuditColumns(&ok_report);
  EXPECT_TRUE(ok_report.ok()) << ok_report.ToString();

  // Same shape, one divergent value: the recompute must flag column.values.
  store::DocumentStore b;
  ASSERT_TRUE(b.AddXml("<r><v>1</v><w>x</w></r>", "d0").ok());
  ASSERT_TRUE(b.AddXml("<r><v>9</v><w>y</w></r>", "d1").ok());
  audit::SnapshotAuditor tampered(&b, nullptr, nullptr, nullptr,
                                  columns.get());
  audit::AuditReport bad_report;
  tampered.AuditColumns(&bad_report);
  EXPECT_TRUE(bad_report.Has("column.values")) << bad_report.ToString();

  // A store the columns were never built over: coverage must trip.
  store::DocumentStore c;
  ASSERT_TRUE(c.AddXml("<r><v>1</v><w>x</w></r>", "d0").ok());
  audit::SnapshotAuditor mismatched(&c, nullptr, nullptr, nullptr,
                                    columns.get());
  audit::AuditReport mismatch_report;
  mismatched.AuditColumns(&mismatch_report);
  EXPECT_TRUE(mismatch_report.Has("column.coverage"))
      << mismatch_report.ToString();
}

// --- Cube byte-identity: columns on vs off ------------------------------

/// Per-document first node with the given context path (synthesized complete
/// results, so the identity check does not depend on per-corpus queries).
std::vector<store::NodeId> FirstNodesByPath(const store::DocumentStore& store,
                                            const std::string& path) {
  std::vector<store::NodeId> out;
  std::vector<bool> seen(store.DocumentCount(), false);
  store.ForEachNode([&](const store::NodeId& id, xml::Node* node) {
    if (node->kind() == xml::NodeKind::kText) return;
    if (seen[id.doc] || node->ContextPath() != path) return;
    seen[id.doc] = true;
    out.push_back(id);
  });
  return out;
}

/// Builds a two-term complete result pairing each document's first
/// `fact_path` node with its first `dim_path` node.
twig::CompleteResult MakeResult(const store::DocumentStore& store,
                                const std::string& fact_path,
                                const std::string& dim_path) {
  twig::CompleteResult result;
  const store::PathId fact_id = store.paths().Find(fact_path);
  const store::PathId dim_id = store.paths().Find(dim_path);
  std::vector<store::NodeId> facts = FirstNodesByPath(store, fact_path);
  std::vector<store::NodeId> dims = FirstNodesByPath(store, dim_path);
  size_t di = 0;
  for (const store::NodeId& fact : facts) {
    while (di < dims.size() && dims[di].doc < fact.doc) ++di;
    if (di == dims.size()) break;
    if (dims[di].doc != fact.doc) continue;
    twig::ResultTuple tuple;
    tuple.nodes = {fact, dims[di]};
    tuple.paths = {fact_id, dim_id};
    result.tuples.push_back(std::move(tuple));
  }
  result.twig_count = 1;
  return result;
}

/// Builds the schema twice (columns on / off) and requires byte-identical
/// rendering. Returns the column-path scan count so callers can assert the
/// fast path actually ran.
uint64_t ExpectCubeByteIdentical(const core::Snapshot& snap,
                                 const cube::Catalog& catalog,
                                 const twig::CompleteResult& result,
                                 const char* label) {
  cube::CubeBuilder builder(&snap.store(), &catalog, &snap.columns());
  cube::CubeBuilder tree_walk(&snap.store(), &catalog, /*columns=*/nullptr);
  auto with = builder.Build(result);
  auto without = tree_walk.Build(result);
  EXPECT_TRUE(with.ok()) << label << ": " << with.status().ToString();
  EXPECT_TRUE(without.ok()) << label << ": " << without.status().ToString();
  if (!with.ok() || !without.ok()) return 0;
  EXPECT_EQ(with.value().ToString(), without.value().ToString()) << label;
  EXPECT_EQ(without.value().column_rows_scanned, 0u) << label;
  return with.value().column_rows_scanned;
}

TEST(ColumnCubeTest, ByteIdenticalAcrossFiveCorpora) {
  struct Corpus {
    const char* name;
    void (*populate)(store::DocumentStore*);
  };
  const Corpus corpora[] = {
      {"scenario", [](store::DocumentStore* s) { data::PopulateScenario(s); }},
      {"factbook",
       [](store::DocumentStore* s) {
         data::WorldFactbookGenerator::Options o;
         o.scale = 0.02;
         data::WorldFactbookGenerator(o).Populate(s);
       }},
      {"mondial",
       [](store::DocumentStore* s) {
         data::MondialGenerator::Options o;
         o.scale = 0.02;
         data::MondialGenerator(o).Populate(s);
       }},
      {"googlebase",
       [](store::DocumentStore* s) {
         data::GoogleBaseGenerator::Options o;
         o.scale = 0.01;
         data::GoogleBaseGenerator(o).Populate(s);
       }},
      {"recipeml",
       [](store::DocumentStore* s) {
         data::RecipeMLGenerator::Options o;
         o.scale = 0.02;
         data::RecipeMLGenerator(o).Populate(s);
       }},
  };
  for (const Corpus& corpus : corpora) {
    core::Seda seda;
    corpus.populate(seda.mutable_store());
    ASSERT_TRUE(seda.Finalize().ok()) << corpus.name;
    auto snap = seda.snapshot();
    const ColumnStore& columns = snap->columns();
    ASSERT_GE(columns.size(), 2u) << corpus.name;

    // Fact context: the busiest column; absolute key + dimension source:
    // the best-supported other column.
    const Column* fact = nullptr;
    const Column* dim = nullptr;
    for (const Column& col : columns.columns()) {
      if (fact == nullptr || col.rows() > fact->rows()) fact = &col;
    }
    for (const Column& col : columns.columns()) {
      if (&col == fact) continue;
      if (dim == nullptr || col.docs_present() > dim->docs_present()) {
        dim = &col;
      }
    }
    ASSERT_NE(dim, nullptr) << corpus.name;

    cube::Catalog catalog;
    ASSERT_TRUE(catalog
                    .DefineFact("f", {{fact->path(),
                                       cube::RelativeKey::Parse(
                                           {dim->path(), "."})}})
                    .ok())
        << corpus.name;
    ASSERT_TRUE(catalog
                    .DefineDimension("d", {{dim->path(),
                                            cube::RelativeKey::Parse(
                                                {dim->path()})}})
                    .ok())
        << corpus.name;

    twig::CompleteResult result =
        MakeResult(snap->store(), fact->path(), dim->path());
    ASSERT_FALSE(result.tuples.empty()) << corpus.name;
    uint64_t scanned =
        ExpectCubeByteIdentical(*snap, catalog, result, corpus.name);
    EXPECT_GT(scanned, 0u) << corpus.name;
  }
}

cube::Catalog Fig3Catalog() {
  using cube::RelativeKey;
  cube::Catalog catalog;
  (void)catalog.DefineDimension(
      "country", {{kName, RelativeKey::Parse({kName, kYear})}});
  (void)catalog.DefineDimension("year",
                                {{kYear, RelativeKey::Parse({kName, kYear})}});
  (void)catalog.DefineDimension(
      "import-country", {{kTrade, RelativeKey::Parse({kName, kYear, "."})}});
  (void)catalog.DefineFact(
      "import-trade-percentage",
      {{kPct, RelativeKey::Parse({kName, kYear, "../trade_country"})}});
  return catalog;
}

std::string DeltaDoc(int i) {
  return "<country><name>Deltaland " + std::to_string(i) +
         "</name><year>2009</year><economy><GDP>" + std::to_string(700 + i) +
         "</GDP><import_partners><item><trade_country>Canada</trade_country>"
         "<percentage>33.1</percentage></item></import_partners></economy>"
         "</country>";
}

/// Builds the Fig. 3 cube twice (columns on / off), loads both into the OLAP
/// engine and requires the same cells: the count of
/// import-trade-percentage per import-country, cell for cell and in total.
void ExpectOlapCellsIdentical(const core::Snapshot& snap,
                              const cube::Catalog& catalog,
                              const twig::CompleteResult& result,
                              const char* label) {
  cube::CubeBuilder builder(&snap.store(), &catalog, &snap.columns());
  cube::CubeBuilder tree_walk(&snap.store(), &catalog, /*columns=*/nullptr);
  auto with = builder.Build(result);
  auto without = tree_walk.Build(result);
  ASSERT_TRUE(with.ok() && without.ok()) << label;
  auto cube_on = snap.ToOlapCube(with.value());
  auto cube_off = snap.ToOlapCube(without.value());
  ASSERT_TRUE(cube_on.ok() && cube_off.ok()) << label;
  auto cells_on = cube_on->Aggregate({"import-country"}, olap::AggFn::kCount,
                                     "import-trade-percentage");
  auto cells_off = cube_off->Aggregate({"import-country"}, olap::AggFn::kCount,
                                       "import-trade-percentage");
  ASSERT_TRUE(cells_on.ok() && cells_off.ok()) << label;
  EXPECT_EQ(cells_on->ToString(), cells_off->ToString()) << label;
  EXPECT_EQ(cells_on->Total(), cells_off->Total()) << label;
  EXPECT_GT(cells_on->Total(), 0.0) << label;
}

TEST(ColumnCubeTest, RelativeStepsIncrementalEpochsAndReopenedImages) {
  // The Fig. 3 catalog exercises every plan kind: absolute (/country/name,
  // /country/year), self ("."), and the sibling step ("../trade_country").
  // Inputs: the scenario under Query 1, and a generated Factbook under the
  // two-term trade query, whose complete result is large enough that a
  // per-tuple tree walk shows.
  struct Input {
    const char* name;
    void (*populate)(store::DocumentStore*);
    const char* query;
    std::vector<std::string> contexts;
  };
  const Input inputs[] = {
      {"scenario", [](store::DocumentStore* s) { data::PopulateScenario(s); },
       R"((*, "United States") AND (trade_country, *) AND (percentage, *))",
       {kName, kTrade, kPct}},
      {"factbook 0.05",
       [](store::DocumentStore* s) {
         data::WorldFactbookGenerator::Options o;
         o.scale = 0.05;
         data::WorldFactbookGenerator(o).Populate(s);
       },
       "(trade_country, *) AND (percentage, *)", {kTrade, kPct}},
  };
  const cube::Catalog catalog = Fig3Catalog();
  for (const Input& input : inputs) {
    SCOPED_TRACE(input.name);
    core::Seda writer;
    input.populate(writer.mutable_store());
    ASSERT_TRUE(writer.Finalize().ok());
    auto query = query::ParseQuery(input.query);
    ASSERT_TRUE(query.ok());
    auto result =
        writer.snapshot()->CompleteResults(query.value(), input.contexts, {});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    {
      auto snap = writer.snapshot();
      uint64_t scanned =
          ExpectCubeByteIdentical(*snap, catalog, result.value(), "epoch1");
      EXPECT_GT(scanned, 0u);
      ExpectOlapCellsIdentical(*snap, catalog, result.value(), "epoch1");
    }

    // Incremental commit: columns are rebuilt for the new epoch and the
    // identity must hold over the grown corpus.
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          writer.AddXml(DeltaDoc(i), "delta-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(writer.Commit().ok());
    auto grown =
        writer.snapshot()->CompleteResults(query.value(), input.contexts, {});
    ASSERT_TRUE(grown.ok());
    {
      auto snap = writer.snapshot();
      ExpectCubeByteIdentical(*snap, catalog, grown.value(), "epoch2");
      ExpectOlapCellsIdentical(*snap, catalog, grown.value(), "epoch2");
    }

    // Reopened image: the zero-copy loaded columns must give the same bytes
    // as both the reopened tree walk and the in-memory epoch.
    std::string path = TempImagePath("reopen");
    ASSERT_TRUE(writer.Save(path).ok());
    core::Seda reader;
    ASSERT_TRUE(reader.Open(path).ok());
    EXPECT_EQ(reader.snapshot()->columns().size(),
              writer.snapshot()->columns().size());
    auto reopened =
        reader.snapshot()->CompleteResults(query.value(), input.contexts, {});
    ASSERT_TRUE(reopened.ok());
    {
      auto snap = reader.snapshot();
      ExpectCubeByteIdentical(*snap, catalog, reopened.value(), "reopened");
      ExpectOlapCellsIdentical(*snap, catalog, reopened.value(), "reopened");
      cube::CubeBuilder in_memory(&writer.snapshot()->store(), &catalog,
                                  &writer.snapshot()->columns());
      cube::CubeBuilder from_image(&snap->store(), &catalog, &snap->columns());
      auto a = in_memory.Build(grown.value());
      auto b = from_image.Build(reopened.value());
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.value().ToString(), b.value().ToString());
    }
    std::remove(path.c_str());
  }
}

// --- Persistence: stability, section/options agreement, corruption -----

TEST(ColumnPersistTest, SaveOpenSaveIsByteStable) {
  core::Seda writer;
  data::PopulateScenario(writer.mutable_store());
  ASSERT_TRUE(writer.Finalize().ok());
  std::string p1 = TempImagePath("stable1");
  std::string p2 = TempImagePath("stable2");
  std::string p3 = TempImagePath("stable3");
  ASSERT_TRUE(writer.Save(p1).ok());
  ASSERT_TRUE(writer.Save(p2).ok());
  EXPECT_EQ(ReadFile(p1), ReadFile(p2)) << "repeated Save differs";

  core::Seda reader;
  ASSERT_TRUE(reader.Open(p1).ok());
  ASSERT_TRUE(reader.Save(p3).ok());
  EXPECT_EQ(ReadFile(p1), ReadFile(p3)) << "Save after Open differs";
  for (const std::string& p : {p1, p2, p3}) std::remove(p.c_str());
}

/// Returns the section-table index of `id`, or npos.
size_t FindSection(const std::string& image, persist::SectionId id,
                   persist::SectionEntry* entry_out, size_t* entry_at) {
  persist::FileHeader header;
  std::memcpy(&header, image.data(), sizeof(header));
  for (uint64_t i = 0; i < header.section_count; ++i) {
    size_t at = header.section_table_offset + i * sizeof(persist::SectionEntry);
    persist::SectionEntry entry;
    std::memcpy(&entry, image.data() + at, sizeof(entry));
    if (entry.id == static_cast<uint32_t>(id)) {
      *entry_out = entry;
      *entry_at = at;
      return static_cast<size_t>(i);
    }
  }
  return std::string::npos;
}

/// Rewrites the options section's column-enable byte (the first of the
/// 33-byte InferenceOptions tail: u8 enabled + double + u64 + double + u64)
/// and re-seals its CRC, so only the load-time consistency check sees it.
void SetColumnsEnabledByte(const std::string& path, uint8_t enabled) {
  std::string image = ReadFile(path);
  persist::SectionEntry entry;
  size_t entry_at = 0;
  ASSERT_NE(FindSection(image, persist::SectionId::kOptions, &entry, &entry_at),
            std::string::npos);
  image[entry.offset + entry.size - 33] = static_cast<char>(enabled);
  entry.crc = persist::Crc32(image.data() + entry.offset,
                             static_cast<size_t>(entry.size));
  std::memcpy(image.data() + entry_at, &entry, sizeof(entry));
  WriteFile(path, image);
}

TEST(ColumnPersistTest, SectionMustMatchTheOptions) {
  // A columns-off image carries no kColumns section and reopens with an
  // empty column store.
  core::SedaOptions options;
  options.columns.enabled = false;
  core::Seda disabled;
  data::PopulateScenario(disabled.mutable_store());
  ASSERT_TRUE(disabled.Finalize(options).ok());
  std::string path = TempImagePath("absent");
  ASSERT_TRUE(disabled.Save(path).ok());
  persist::SectionEntry entry;
  size_t entry_at = 0;
  ASSERT_EQ(FindSection(ReadFile(path), persist::SectionId::kColumns, &entry,
                        &entry_at),
            std::string::npos)
      << "disabled save still wrote a columns section";
  {
    core::Seda reader;
    Status opened = reader.Open(path);
    ASSERT_TRUE(opened.ok()) << opened.ToString();
    EXPECT_EQ(reader.snapshot()->columns().size(), 0u);
  }

  // Options that ask for columns, but no section: rejected, not rebuilt.
  SetColumnsEnabledByte(path, 1);
  {
    core::Seda reader;
    Status opened = reader.Open(path);
    EXPECT_EQ(opened.code(), StatusCode::kParseError) << opened.ToString();
  }

  // The converse: a columns section the options disown.
  core::Seda enabled;
  data::PopulateScenario(enabled.mutable_store());
  ASSERT_TRUE(enabled.Finalize().ok());
  ASSERT_TRUE(enabled.Save(path).ok());
  SetColumnsEnabledByte(path, 0);
  {
    core::Seda reader;
    Status opened = reader.Open(path);
    EXPECT_EQ(opened.code(), StatusCode::kParseError) << opened.ToString();
  }
  std::remove(path.c_str());
}

class ColumnCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    core::Seda seda;
    data::PopulateScenario(seda.mutable_store());
    ASSERT_TRUE(seda.Finalize().ok());
    path_ = TempImagePath("corrupt");
    ASSERT_TRUE(seda.Save(path_).ok());
    image_ = ReadFile(path_);
    ASSERT_NE(
        FindSection(image_, persist::SectionId::kColumns, &entry_, &entry_at_),
        std::string::npos);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Overwrites `len` bytes at `at` inside the columns payload, re-seals the
  /// section CRC so only the structure validation can reject it, and opens.
  Status OpenWithPatch(size_t at, const void* bytes, size_t len) {
    std::string bad = image_;
    std::memcpy(bad.data() + entry_.offset + at, bytes, len);
    persist::SectionEntry entry = entry_;
    entry.crc = persist::Crc32(bad.data() + entry.offset,
                               static_cast<size_t>(entry.size));
    std::memcpy(bad.data() + entry_at_, &entry, sizeof(entry));
    WriteFile(path_, bad);
    core::Seda reader;
    return reader.Open(path_);
  }

  std::string path_;
  std::string image_;
  persist::SectionEntry entry_;
  size_t entry_at_ = 0;
};

TEST_F(ColumnCorruptionTest, RejectsHostileColumnCount) {
  const uint64_t huge = ~uint64_t{0};
  Status status = OpenWithPatch(8, &huge, sizeof(huge));
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
  EXPECT_NE(status.message().find("columns"), std::string::npos)
      << status.ToString();
}

TEST_F(ColumnCorruptionTest, RejectsDocCountMismatch) {
  const uint64_t off_by_one = 1;
  Status status = OpenWithPatch(0, &off_by_one, sizeof(off_by_one));
  EXPECT_EQ(status.code(), StatusCode::kParseError) << status.ToString();
}

TEST_F(ColumnCorruptionTest, RejectsByteFlipsAcrossThePayload) {
  // Every flip must surface as a clean ParseError (or, for flips inside
  // value bytes the structure checks cannot distinguish, a clean load) —
  // never a crash or out-of-bounds read.
  for (size_t fraction = 0; fraction < 8; ++fraction) {
    const size_t at = 16 + (entry_.size - 16) * fraction / 8;
    std::string bad = image_;
    const uint8_t flipped =
        static_cast<uint8_t>(bad[entry_.offset + at]) ^ 0x3Fu;
    Status status = OpenWithPatch(at, &flipped, 1);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kParseError)
          << "flip at " << at << ": " << status.ToString();
    }
  }
}

}  // namespace
}  // namespace seda::column
