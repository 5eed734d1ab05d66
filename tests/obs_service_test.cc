// Service-level observability: the statz <-> /metrics round trip (both are
// views of the same registry), traced envelopes over the Handle() wire, the
// metricz envelope method, and the sampled slow-query log.

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "core/seda.h"
#include "data/generators.h"

namespace seda::api {
namespace {

/// Value of one rendered series line ("name{labels} 42\n") in an exposition,
/// or -1 when the series is absent.
double SeriesValue(const std::string& text, const std::string& series) {
  const std::string prefix = series + " ";
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t line_end = text.find('\n', pos);
    const std::string line = text.substr(pos, line_end - pos);
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::atof(line.c_str() + prefix.size());
    }
    if (line_end == std::string::npos) break;
    pos = line_end + 1;
  }
  return -1;
}

uint64_t SumElapsed(const std::vector<obs::SpanNode>& children) {
  uint64_t total = 0;
  for (const obs::SpanNode& child : children) total += child.elapsed_us;
  return total;
}

class ObsServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data::PopulateScenario(seda_.mutable_store());
    ASSERT_TRUE(seda_.Finalize().ok());
  }

  core::Seda seda_;
};

TEST_F(ObsServiceTest, StatzAndMetricsAgree) {
  SedaService service(&seda_);
  SearchRequest search;
  search.query = R"x((name, "United States"))x";
  ASSERT_TRUE(service.Search(search).status.ok());
  ASSERT_TRUE(service.Search(search).status.ok());
  SearchRequest bad;
  bad.query = "((((";
  ASSERT_FALSE(service.Search(bad).status.ok());

  // Render first, statz second: a request increments its own series only
  // after building its response, so the statz call would otherwise show up
  // in the rendered text but not in its own snapshot.
  const std::string text = service.RenderMetrics();
  const StatzResponse statz = service.Statz(StatzRequest{});

  // Every per-method counter statz reports is the same series the
  // exposition renders — they are two views of one registry.
  for (const MethodStatsDto& method : statz.methods) {
    const std::string labels = "{method=\"" + method.method + "\"}";
    EXPECT_EQ(SeriesValue(text, "seda_requests_total" + labels),
              static_cast<double>(method.count))
        << method.method;
    EXPECT_EQ(SeriesValue(text, "seda_request_errors_total" + labels),
              static_cast<double>(method.errors))
        << method.method;
    EXPECT_EQ(SeriesValue(text,
                          "seda_request_deadline_exceeded_total" + labels),
              static_cast<double>(method.deadline_exceeded))
        << method.method;
    EXPECT_EQ(SeriesValue(text, "seda_request_latency_ms_count" + labels),
              static_cast<double>(method.count))
        << method.method;
  }

  // Cumulative engine counters round-trip too, every one of them.
  const StatsDto& c = statz.cumulative;
  const std::pair<const char*, uint64_t> engine[] = {
      {"seda_engine_candidates_total", c.candidates_total},
      {"seda_engine_docs_considered_total", c.docs_considered},
      {"seda_engine_docs_scored_total", c.docs_scored},
      {"seda_engine_tuples_scored_total", c.tuples_scored},
      {"seda_engine_postings_advanced_total", c.postings_advanced},
      {"seda_engine_docs_skipped_total", c.docs_skipped},
      {"seda_engine_heap_evictions_total", c.heap_evictions},
      {"seda_engine_hub_links_skipped_total", c.hub_links_skipped},
      {"seda_engine_tuples_trimmed_total", c.tuples_trimmed},
      {"seda_engine_bfs_expansions_total", c.bfs_expansions},
      {"seda_engine_intersection_probes_total", c.intersection_probes},
      {"seda_engine_sketch_hits_total", c.sketch_hits},
      {"seda_engine_column_rows_scanned_total", c.column_rows_scanned},
      {"seda_engine_column_fallback_docs_total", c.column_fallback_docs},
  };
  for (const auto& [series, value] : engine) {
    EXPECT_EQ(SeriesValue(text, series), static_cast<double>(value)) << series;
  }
  EXPECT_GT(c.candidates_total, 0u);

  // Session gauges.
  EXPECT_EQ(SeriesValue(text, "seda_sessions"),
            static_cast<double>(statz.sessions));
  EXPECT_EQ(SeriesValue(text, "seda_sessions_created_total"),
            static_cast<double>(statz.sessions_created));
  EXPECT_EQ(SeriesValue(text, "seda_epoch"), static_cast<double>(statz.epoch));
}

TEST_F(ObsServiceTest, MetriczEnvelopeServesExposition) {
  SedaService service(&seda_);
  auto response =
      DecodeMetriczResponse(service.Handle(R"x({"method":"metricz"})x"));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().status.ok());
  const std::string& text = response.value().text;
  EXPECT_NE(text.find("# TYPE seda_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE seda_request_latency_ms histogram"),
            std::string::npos);
  // Every engine counter family, with its exact help text.
  const std::pair<const char*, const char*> engine[] = {
      {"seda_engine_bfs_expansions_total",
       "Connection-scoring BFS expansions."},
      {"seda_engine_candidates_total",
       "Candidate nodes produced by term lookups."},
      {"seda_engine_column_fallback_docs_total",
       "Cube result tuples extracted via the tree-walk fallback."},
      {"seda_engine_column_rows_scanned_total",
       "Columnar row lookups during cube extraction."},
      {"seda_engine_docs_considered_total", "Documents entering the TA scan."},
      {"seda_engine_docs_scored_total",
       "Documents fully scored by the TA scan."},
      {"seda_engine_docs_skipped_total", "Documents pruned before scoring."},
      {"seda_engine_heap_evictions_total", "Top-k heap evictions."},
      {"seda_engine_hub_links_skipped_total",
       "Hub links skipped while scoring."},
      {"seda_engine_intersection_probes_total",
       "Adjacency intersection probes (graph kernels)."},
      {"seda_engine_postings_advanced_total", "Posting cursor advances."},
      {"seda_engine_sketch_hits_total", "2-hop sketch hits (graph kernels)."},
      {"seda_engine_tuples_scored_total", "Term-node tuples scored."},
      {"seda_engine_tuples_trimmed_total",
       "Tuples trimmed by per-doc budgets."},
  };
  for (const auto& [family, help] : engine) {
    const std::string header = std::string("# HELP ") + family + " " + help +
                               "\n# TYPE " + family + " counter\n";
    EXPECT_NE(text.find(header), std::string::npos) << header;
  }
  size_t families = 0;
  for (size_t at = text.find("# TYPE seda_engine_"); at != std::string::npos;
       at = text.find("# TYPE seda_engine_", at + 1)) {
    ++families;
  }
  EXPECT_EQ(families, std::size(engine));
  // A request counts itself only after rendering its response, so the first
  // scrape shows metricz at 0 and the second shows the first.
  EXPECT_EQ(SeriesValue(text, "seda_requests_total{method=\"metricz\"}"), 0.0);
  auto second =
      DecodeMetriczResponse(service.Handle(R"x({"method":"metricz"})x"));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(SeriesValue(second.value().text,
                        "seda_requests_total{method=\"metricz\"}"),
            1.0);
}

TEST_F(ObsServiceTest, TracedSearchReturnsSpanTree) {
  SedaService service(&seda_);
  auto created = service.CreateSession(CreateSessionRequest{});
  ASSERT_TRUE(created.status.ok());

  // Untraced request: no trace in the response envelope (canonical bytes).
  const std::string untraced = service.Handle(
      R"x({"method":"search","session_id":")x" + created.session_id +
      R"x(","query":"(name, *)"})x");
  EXPECT_EQ(untraced.find("\"trace\""), std::string::npos);

  // Traced request: a span tree whose root is the method span.
  auto traced = DecodeSearchResponseDto(service.Handle(
      R"x({"method":"search","session_id":")x" + created.session_id +
      R"x(","query":"(name, *)","trace":true})x"));
  ASSERT_TRUE(traced.ok());
  ASSERT_TRUE(traced.value().status.ok());
  const obs::SpanNode& root = traced.value().trace;
  EXPECT_EQ(root.name, "search");
  EXPECT_GT(root.unix_ms, 0u);
  ASSERT_FALSE(root.children.empty());
  // The engine stages appear as children (parse always, then the pipeline).
  EXPECT_EQ(root.children[0].name, "parse");
  // Single-threaded trace invariant: direct children sum <= parent, at
  // every level of the tree.
  EXPECT_LE(SumElapsed(root.children), root.elapsed_us);
  for (const obs::SpanNode& child : root.children) {
    EXPECT_LE(SumElapsed(child.children), child.elapsed_us) << child.name;
  }
}

TEST_F(ObsServiceTest, TracingDisabledReturnsNoTree) {
  ServiceOptions options;
  options.tracing = false;
  SedaService service(&seda_, options);
  auto created = service.CreateSession(CreateSessionRequest{});
  ASSERT_TRUE(created.status.ok());
  const std::string response = service.Handle(
      R"x({"method":"search","session_id":")x" + created.session_id +
      R"x(","query":"(name, *)","trace":true})x");
  // The request asked, but tracing is off: the envelope stays trace-free.
  EXPECT_EQ(response.find("\"trace\""), std::string::npos);
}

TEST_F(ObsServiceTest, SampledSlowLogCapturesRequests) {
  ServiceOptions options;
  options.trace_sample_every_n = 1;  // deterministic: every request sampled
  SedaService service(&seda_, options);
  auto created = service.CreateSession(CreateSessionRequest{});
  ASSERT_TRUE(created.status.ok());
  SearchRequest search;
  search.session_id = created.session_id;
  search.query = R"x((name, "United States"))x";
  ASSERT_TRUE(service.Search(search).status.ok());

  auto response = DecodeSlowlogResponse(
      service.Handle(R"x({"method":"slowlog","limit":10})x"));
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.value().status.ok());
  ASSERT_GE(response.value().entries.size(), 2u);  // create_session + search
  EXPECT_EQ(response.value().total_logged, response.value().entries.size());

  bool found_search = false;
  for (const obs::SlowLogEntry& entry : response.value().entries) {
    EXPECT_TRUE(entry.sampled);  // nothing here was actually slow
    EXPECT_GT(entry.seq, 0u);
    EXPECT_GT(entry.unix_ms, 0u);
    if (entry.method == "search") {
      found_search = true;
      EXPECT_EQ(entry.detail, search.query);
      EXPECT_EQ(entry.session_id, created.session_id);
      EXPECT_EQ(entry.status_code, "OK");
      // Sampling captures the span tree even though the client didn't ask.
      EXPECT_EQ(entry.trace.name, "search");
      EXPECT_FALSE(entry.trace.children.empty());
    }
  }
  EXPECT_TRUE(found_search);

  // Newest first: the slowlog request's predecessor is at the front.
  const auto& entries = response.value().entries;
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GT(entries[i - 1].seq, entries[i].seq);
  }
}

TEST_F(ObsServiceTest, SlowLogOffByDefault) {
  SedaService service(&seda_);
  SearchRequest search;
  search.query = R"x((name, "United States"))x";
  ASSERT_TRUE(service.Search(search).status.ok());
  auto response =
      DecodeSlowlogResponse(service.Handle(R"x({"method":"slowlog"})x"));
  ASSERT_TRUE(response.ok());
  // Fast requests, no sampling: nothing logged.
  EXPECT_EQ(response.value().total_logged, 0u);
  EXPECT_TRUE(response.value().entries.empty());
}

TEST_F(ObsServiceTest, SlowLogEntryWireRoundTrip) {
  obs::SlowLogEntry entry;
  entry.seq = 7;
  entry.unix_ms = 1234567890123u;
  entry.method = "search";
  entry.session_id = "s9";
  entry.detail = R"x((name, "a\b"))x";
  entry.elapsed_ms = 12.5;
  entry.threshold_ms = 10;
  entry.status_code = "OK";
  entry.deadline_exceeded = true;
  entry.sampled = false;
  entry.trace.name = "search";
  entry.trace.elapsed_us = 12500;
  entry.trace.unix_ms = entry.unix_ms;
  obs::SpanNode child;
  child.name = "parse";
  child.start_us = 3;
  child.elapsed_us = 40;
  child.counters = {{"terms", 2}};
  entry.trace.children.push_back(child);

  const obs::SlowLogEntry decoded =
      SlowLogEntryFromJson(ToJson(entry));
  EXPECT_EQ(decoded.seq, entry.seq);
  EXPECT_EQ(decoded.unix_ms, entry.unix_ms);
  EXPECT_EQ(decoded.method, entry.method);
  EXPECT_EQ(decoded.session_id, entry.session_id);
  EXPECT_EQ(decoded.detail, entry.detail);
  EXPECT_DOUBLE_EQ(decoded.elapsed_ms, entry.elapsed_ms);
  EXPECT_EQ(decoded.threshold_ms, entry.threshold_ms);
  EXPECT_EQ(decoded.status_code, entry.status_code);
  EXPECT_TRUE(decoded.deadline_exceeded);
  EXPECT_FALSE(decoded.sampled);
  EXPECT_EQ(decoded.trace.name, "search");
  ASSERT_EQ(decoded.trace.children.size(), 1u);
  EXPECT_EQ(decoded.trace.children[0].name, "parse");
  ASSERT_EQ(decoded.trace.children[0].counters.size(), 1u);
  EXPECT_EQ(decoded.trace.children[0].counters[0].first, "terms");
  EXPECT_EQ(decoded.trace.children[0].counters[0].second, 2u);
}

TEST_F(ObsServiceTest, TransportStatzStillFlowsThroughStatz) {
  SedaService service(&seda_);
  service.set_transport_statz([] {
    return std::vector<std::pair<std::string, uint64_t>>{{"conns", 3}};
  });
  const StatzResponse statz = service.Statz(StatzRequest{});
  ASSERT_EQ(statz.transport.size(), 1u);
  EXPECT_EQ(statz.transport[0].first, "conns");
  EXPECT_EQ(statz.transport[0].second, 3u);
}

}  // namespace
}  // namespace seda::api
