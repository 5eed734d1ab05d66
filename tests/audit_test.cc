#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "audit/auditor.h"
#include "core/seda.h"
#include "data/generators.h"
#include "xml/dewey.h"

namespace seda::audit {
namespace {

using core::Seda;
using core::SedaOptions;

std::string TempImagePath(const std::string& name) {
  return ::testing::TempDir() + "seda_audit_" + name + "_" +
         std::to_string(::getpid()) + ".img";
}

SedaOptions ScenarioOptions() {
  SedaOptions options;
  options.value_edges.push_back(
      {"/country/name", "/country/economy/import_partners/item/trade_country",
       "trade_partner"});
  return options;
}

/// Builds a finalized instance over `populate`, audits the served snapshot
/// and expects a clean report.
template <typename PopulateFn>
void ExpectCleanAudit(const char* corpus, PopulateFn populate,
                      const SedaOptions& options = SedaOptions{}) {
  Seda writer;
  populate(writer.mutable_store());
  ASSERT_TRUE(writer.Finalize(options).ok()) << corpus;
  AuditReport report = writer.snapshot()->Audit();
  EXPECT_TRUE(report.ok()) << corpus << ":\n" << report.ToString();
  EXPECT_GT(report.checks_run, 0u) << corpus;
}

TEST(AuditTest, CleanOnScenarioCorpus) {
  ExpectCleanAudit("scenario", data::PopulateScenario, ScenarioOptions());
}

TEST(AuditTest, CleanOnWorldFactbookCorpus) {
  data::WorldFactbookGenerator::Options options;
  options.scale = 0.05;
  ExpectCleanAudit("factbook", [&](store::DocumentStore* store) {
    data::WorldFactbookGenerator(options).Populate(store);
  });
}

TEST(AuditTest, CleanOnMondialCorpus) {
  data::MondialGenerator::Options options;
  options.scale = 0.02;
  ExpectCleanAudit("mondial", [&](store::DocumentStore* store) {
    data::MondialGenerator(options).Populate(store);
  });
}

TEST(AuditTest, CleanOnGoogleBaseCorpus) {
  data::GoogleBaseGenerator::Options options;
  options.scale = 0.02;
  ExpectCleanAudit("googlebase", [&](store::DocumentStore* store) {
    data::GoogleBaseGenerator(options).Populate(store);
  });
}

TEST(AuditTest, CleanOnRecipeMLCorpus) {
  data::RecipeMLGenerator::Options options;
  options.scale = 0.01;
  ExpectCleanAudit("recipeml", [&](store::DocumentStore* store) {
    data::RecipeMLGenerator(options).Populate(store);
  });
}

TEST(AuditTest, CleanOnIncrementalCommitEpoch) {
  Seda writer;
  data::PopulateScenario(writer.mutable_store());
  ASSERT_TRUE(writer.Finalize(ScenarioOptions()).ok());
  ASSERT_TRUE(writer
                  .AddXml("<country><name>Auditland</name><economy><GDP>1"
                          "</GDP></economy></country>",
                          "auditland")
                  .ok());
  ASSERT_TRUE(writer.Commit().ok());
  AuditReport report = writer.snapshot()->Audit();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST(AuditTest, CleanOnReopenedImageIncludingImageChecks) {
  std::string path = TempImagePath("reopen");
  {
    Seda writer;
    data::PopulateScenario(writer.mutable_store());
    ASSERT_TRUE(writer.Finalize(ScenarioOptions()).ok());
    ASSERT_TRUE(writer.Save(path).ok());
  }
  auto image = persist::MappedImage::Open(path);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  auto snapshot = core::Snapshot::Load(*image);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  AuditReport report = (*snapshot)->Audit(**image);
  EXPECT_TRUE(report.ok()) << report.ToString();
  std::remove(path.c_str());
}

// --- Deliberate corruption: each case breaks one structure and expects the
// --- audit to fail with the *named* invariant.

TEST(AuditCorruptionTest, DetectsDeweyRenumbering) {
  Seda writer;
  data::PopulateScenario(writer.mutable_store());
  ASSERT_TRUE(writer.Finalize(ScenarioOptions()).ok());
  // The snapshot's store clone shares the (normally immutable) parsed
  // documents with the writer store, so renumbering a subtree through the
  // writer corrupts the served epoch in place.
  xml::Node* root =
      writer.mutable_store()->GetNode({0, xml::DeweyId({1})});
  ASSERT_NE(root, nullptr);
  ASSERT_FALSE(root->children().empty());
  root->children()[0]->AssignDewey(xml::DeweyId({9, 9}));
  AuditReport report = writer.snapshot()->Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("store.child_numbering")) << report.ToString();
}

TEST(AuditCorruptionTest, DetectsDanglingGraphEdge) {
  store::DocumentStore store;
  data::PopulateScenario(&store);
  graph::DataGraph graph(&store);
  graph.ResolveLinks(true, true);
  // An edge whose target document does not exist: the kind of wreckage a
  // stale edge log replayed over the wrong store would produce.
  graph.AddEdge(store::NodeId{0, xml::DeweyId({1})},
                store::NodeId{9999, xml::DeweyId({1})},
                graph::EdgeType::kIdRef, "bogus");
  text::InvertedIndex index(&store);
  auto guides =
      dataguide::DataguideCollection::Build(store, {});
  SnapshotAuditor auditor(&store, &index, &graph, &guides);
  AuditReport report = auditor.AuditAll();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("graph.edge_endpoints")) << report.ToString();
}

TEST(AuditCorruptionTest, DetectsStaleIndexAndDataguides) {
  store::DocumentStore store;
  data::PopulateScenario(&store);
  graph::DataGraph graph(&store);
  text::InvertedIndex index(&store);
  auto guides = dataguide::DataguideCollection::Build(store, {});
  // A document added behind the backs of the derived structures: the index
  // no longer covers every node and the dataguide summary no longer covers
  // every document.
  ASSERT_TRUE(
      store.AddXml("<country><name>Lateland</name></country>", "late").ok());
  SnapshotAuditor auditor(&store, &index, &graph, &guides);
  AuditReport report = auditor.AuditAll();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("index.indexed_nodes")) << report.ToString();
  EXPECT_TRUE(report.Has("dataguide.member_coverage")) << report.ToString();
}

TEST(AuditCorruptionTest, DetectsImageFromDifferentEpoch) {
  std::string path = TempImagePath("stale_epoch");
  Seda writer;
  data::PopulateScenario(writer.mutable_store());
  ASSERT_TRUE(writer.Finalize(ScenarioOptions()).ok());
  ASSERT_TRUE(writer.Save(path).ok());
  ASSERT_TRUE(
      writer.AddXml("<country><name>Newland</name></country>", "newland").ok());
  ASSERT_TRUE(writer.Commit().ok());
  // Epoch 2 audited against the epoch-1 image: the in-memory walk stays
  // clean but every image agreement check must fire.
  auto image = persist::MappedImage::Open(path);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  AuditReport report = writer.snapshot()->Audit(**image);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("image.epoch")) << report.ToString();
  EXPECT_TRUE(report.Has("image.store_doc_count")) << report.ToString();
  std::remove(path.c_str());
}

TEST(AuditReportTest, CapsWitnessesPerInvariant) {
  AuditReport report;
  for (int i = 0; i < 20; ++i) {
    report.Add("test.invariant", "witness " + std::to_string(i));
  }
  EXPECT_EQ(report.violations.size(), 8u);
  EXPECT_EQ(report.suppressed, 12u);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Has("test.invariant"));
}

}  // namespace
}  // namespace seda::audit
