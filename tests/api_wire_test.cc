#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "api/wire.h"

namespace seda::api {
namespace {

/// The wire contract: for every DTO the canonical encoding is byte-stable
/// across a decode/encode cycle — Encode(Decode(Encode(x))) == Encode(x).
template <typename T, typename DecodeFn>
void ExpectByteStable(const T& value, DecodeFn&& decode, const char* what) {
  const std::string first = Encode(value);
  auto decoded = decode(first);
  ASSERT_TRUE(decoded.ok()) << what << ": " << decoded.status().ToString()
                            << "\njson: " << first;
  EXPECT_EQ(Encode(decoded.value()), first) << what;
}

/// A string exercising every escape class: quote, backslash, named control
/// escapes, an arbitrary control byte, and multi-byte UTF-8 passthrough.
const char* kNastyString = "a\"b\\c\n\r\t\b\f\x01 z\xc3\xa9\xe2\x88\xa7";

StatsDto SampleStats() {
  StatsDto stats;
  stats.epoch = 7;
  stats.elapsed_ms = 12.75;
  stats.deadline_ms = 50;
  stats.deadline_exceeded = true;
  stats.candidates_total = 12345;
  stats.docs_considered = 99;
  stats.docs_scored = 42;
  stats.tuples_scored = 1000;
  stats.early_terminated = true;
  stats.postings_advanced = 77;
  stats.docs_skipped = 3;
  stats.heap_evictions = 8;
  stats.hub_links_skipped = 0;
  // Saturated budget counters must survive the wire exactly.
  stats.tuples_trimmed = std::numeric_limits<uint64_t>::max();
  stats.bfs_expansions = 4242;
  stats.intersection_probes = 171717;
  stats.sketch_hits = 13;
  stats.column_rows_scanned = 5150;
  stats.column_fallback_docs = 2;
  return stats;
}

NodeRefDto SampleNode() {
  NodeRefDto node;
  node.doc = 4294967295u;  // uint32 max
  node.dewey = "1.2.2.1";
  node.path = "/country/economy/import_partners/item/trade_country";
  node.content = kNastyString;
  return node;
}

TEST(WireTest, WireStatusByteStable) {
  WireStatus ok;
  ExpectByteStable(ok, DecodeWireStatus, "OK status");
  WireStatus error;
  error.code = "InvalidArgument";
  error.message = kNastyString;
  ExpectByteStable(error, DecodeWireStatus, "error status");
}

TEST(WireTest, WireStatusRoundTripsThroughStatus) {
  Status status = Status::FailedPrecondition("call Search first");
  WireStatus wire = WireStatus::FromStatus(status);
  EXPECT_EQ(wire.code, "FailedPrecondition");
  Status back = wire.ToStatus();
  EXPECT_EQ(back.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(back.message(), "call Search first");
  EXPECT_TRUE(WireStatus().ToStatus().ok());
}

TEST(WireTest, StatsByteStable) {
  ExpectByteStable(SampleStats(), DecodeStatsDto, "stats");
  ExpectByteStable(StatsDto{}, DecodeStatsDto, "default stats");
}

// The stats block's exact bytes, key order included, are part of the wire
// contract: responses are compared byte for byte across builds and serving
// modes, so the engine-counter list must keep this order.
TEST(WireTest, StatsGoldenBytes) {
  EXPECT_EQ(Encode(SampleStats()),
            R"({"epoch":7,"elapsed_ms":12.75,"deadline_ms":50,)"
            R"("deadline_exceeded":true,"candidates_total":12345,)"
            R"("docs_considered":99,"docs_scored":42,"tuples_scored":1000,)"
            R"("early_terminated":true,"postings_advanced":77,)"
            R"("docs_skipped":3,"heap_evictions":8,"hub_links_skipped":0,)"
            R"("tuples_trimmed":18446744073709551615,"bfs_expansions":4242,)"
            R"("intersection_probes":171717,"sketch_hits":13,)"
            R"("column_rows_scanned":5150,"column_fallback_docs":2})");
}

TEST(WireTest, NodeRefByteStable) {
  ExpectByteStable(SampleNode(), DecodeNodeRefDto, "node ref");
  ExpectByteStable(NodeRefDto{}, DecodeNodeRefDto, "default node ref");
}

TEST(WireTest, TupleByteStable) {
  TupleDto tuple;
  tuple.nodes = {SampleNode(), NodeRefDto{}};
  tuple.content_score = 0.1;  // classic repeating-binary double
  tuple.connection_size = 6;
  tuple.score = 0.1 / 7.0;
  ExpectByteStable(tuple, DecodeTupleDto, "tuple");
}

TEST(WireTest, ContextDtosByteStable) {
  ContextEntryDto entry;
  entry.path = "/country/name";
  entry.doc_count = 1577;
  entry.node_count = 1600;
  ExpectByteStable(entry, DecodeContextEntryDto, "context entry");

  ContextBucketDto bucket;
  bucket.term = "(*, \"United States\")";
  bucket.entries = {entry, ContextEntryDto{}};
  ExpectByteStable(bucket, DecodeContextBucketDto, "context bucket");
}

TEST(WireTest, ConnectionDtosByteStable) {
  ConnectionStepDto step;
  step.move = "link";
  step.path = "/sea/bordering";
  step.label = "borders";
  ExpectByteStable(step, DecodeConnectionStepDto, "connection step");

  ConnectionDto conn;
  conn.term_a = 0;
  conn.term_b = 2;
  conn.from_path = "/country/name";
  conn.to_path = "/country/economy/import_partners/item/percentage";
  conn.steps = {step, ConnectionStepDto{}};
  conn.instance_count = 12;
  conn.false_positive = true;
  ExpectByteStable(conn, DecodeConnectionDto, "connection");
}

TEST(WireTest, SessionLifecycleDtosByteStable) {
  CreateSessionRequest create;
  create.session_id = "analyst-7";
  create.ttl_ms = 60000;
  ExpectByteStable(create, DecodeCreateSessionRequest, "create request");
  ExpectByteStable(CreateSessionRequest{}, DecodeCreateSessionRequest,
                   "default create request");

  CreateSessionResponse created;
  created.session_id = "s1";
  created.epoch = 3;
  ExpectByteStable(created, DecodeCreateSessionResponse, "create response");

  CloseSessionRequest close;
  close.session_id = "s1";
  ExpectByteStable(close, DecodeCloseSessionRequest, "close request");
  CloseSessionResponse closed;
  closed.status.code = "NotFound";
  closed.status.message = "gone";
  ExpectByteStable(closed, DecodeCloseSessionResponse, "close response");
}

TEST(WireTest, SearchDtosByteStable) {
  SearchRequest request;
  request.session_id = "s1";
  request.query = R"((*, "United States") AND (trade_country, *))";
  request.k = 25;
  request.deadline_ms = 100;
  ExpectByteStable(request, DecodeSearchRequest, "search request");

  SearchResponseDto response;
  TupleDto tuple;
  tuple.nodes = {SampleNode()};
  tuple.score = 1.5;
  response.topk = {tuple};
  ContextBucketDto bucket;
  bucket.term = "term";
  response.contexts = {bucket};
  ConnectionDto conn;
  conn.term_b = 1;
  response.connections = {conn};
  response.stats = SampleStats();
  ExpectByteStable(response, DecodeSearchResponseDto, "search response");
  ExpectByteStable(SearchResponseDto{}, DecodeSearchResponseDto,
                   "empty search response");
}

TEST(WireTest, RefineRequestByteStable) {
  RefineRequest request;
  request.session_id = "s1";
  request.chosen_paths = {{"/country/name"}, {}, {"/a", "/b"}};
  request.k = 50;
  request.deadline_ms = 9;
  ExpectByteStable(request, DecodeRefineRequest, "refine request");
  auto decoded = DecodeRefineRequest(Encode(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().k, 50u);
}

TEST(WireTest, CompleteDtosByteStable) {
  CompleteRequest request;
  request.session_id = "s1";
  request.term_paths = {"/country/name", "/country/year"};
  request.connections = {0, 3};
  ExpectByteStable(request, DecodeCompleteRequest, "complete request");

  CompleteResponseDto response;
  response.tuples = {{SampleNode(), NodeRefDto{}}, {}};
  response.twig_count = 2;
  response.cross_twig_joins = 1;
  response.stats = SampleStats();
  ExpectByteStable(response, DecodeCompleteResponseDto, "complete response");
}

TEST(WireTest, CubeDtosByteStable) {
  CubeRequest request;
  request.session_id = "s1";
  request.add_facts = {"GDP"};
  request.remove_dimensions = {"year"};
  request.merge_fact_tables = false;
  request.group_dims = {"year", "import-country"};
  request.agg_fn = "avg";
  request.measure = "import-trade-percentage";
  ExpectByteStable(request, DecodeCubeRequest, "cube request");

  TableDto table;
  table.name = "import-trade-percentage";
  table.columns = {"country", "year", "value"};
  table.key_columns = {0, 1};
  table.rows = {{"United States", "2002", "18.1"}, {"", kNastyString, ""}};
  ExpectByteStable(table, DecodeTableDto, "table");

  CellDto cell;
  cell.group = {"2002"};
  cell.value = 40.5;
  cell.count = 3;
  ExpectByteStable(cell, DecodeCellDto, "cell");
  CellDto nan_cell;
  nan_cell.value = std::nan("");  // encodes as null, decodes as NaN
  ExpectByteStable(nan_cell, DecodeCellDto, "NaN cell");

  CubeResponseDto response;
  response.fact_tables = {table};
  response.dimension_tables = {TableDto{}};
  response.warnings = {"column 1 matched no catalog entry"};
  response.cells = {cell};
  response.cell_total = 121.5;
  response.stats = SampleStats();
  ExpectByteStable(response, DecodeCubeResponseDto, "cube response");

  // A NaN total (e.g. an avg over empty groups summed in) encodes as null
  // and must decode back to NaN, not 0 — byte-stably.
  response.cell_total = std::nan("");
  ExpectByteStable(response, DecodeCubeResponseDto, "NaN cell_total");
  auto decoded = DecodeCubeResponseDto(Encode(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::isnan(decoded.value().cell_total));
}

TEST(WireTest, DecodedValuesMatchNotJustBytes) {
  // Byte stability could in principle hide a codec that maps everything to
  // defaults; spot-check actual field fidelity.
  SearchRequest request;
  request.session_id = "s9";
  request.query = "(a, \"x y\")";
  request.k = 3;
  request.deadline_ms = 77;
  auto decoded = DecodeSearchRequest(Encode(request));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().session_id, "s9");
  EXPECT_EQ(decoded.value().query, "(a, \"x y\")");
  EXPECT_EQ(decoded.value().k, 3u);
  EXPECT_EQ(decoded.value().deadline_ms, 77u);

  StatsDto stats = SampleStats();
  auto stats_decoded = DecodeStatsDto(Encode(stats));
  ASSERT_TRUE(stats_decoded.ok());
  EXPECT_EQ(stats_decoded.value().tuples_trimmed,
            std::numeric_limits<uint64_t>::max());
  EXPECT_DOUBLE_EQ(stats_decoded.value().elapsed_ms, 12.75);
  EXPECT_TRUE(stats_decoded.value().deadline_exceeded);

  NodeRefDto node = SampleNode();
  auto node_decoded = DecodeNodeRefDto(Encode(node));
  ASSERT_TRUE(node_decoded.ok());
  EXPECT_EQ(node_decoded.value().doc, 4294967295u);
  EXPECT_EQ(node_decoded.value().content, kNastyString);
}

TEST(WireTest, ParserRejectsMalformedJson) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(Json::Parse("[1 2]").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(Json::Parse("nul").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":01x}").ok());
  // Errors carry a byte offset.
  auto bad = Json::Parse("{\"a\": ?}");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("offset 6"), std::string::npos)
      << bad.status().message();
}

TEST(WireTest, ParserHandlesEscapesAndNumbers) {
  auto parsed = Json::Parse(
      "{\"s\":\"a\\u00e9\\n\\\"\",\"i\":18446744073709551615,"
      "\"d\":-2.5e3,\"b\":true,\"n\":null,\"surrogate\":\"\\ud83d\\ude00\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& json = parsed.value();
  EXPECT_EQ(json.Find("s")->AsString(), "a\xc3\xa9\n\"");
  EXPECT_EQ(json.Find("i")->AsUint(), std::numeric_limits<uint64_t>::max());
  EXPECT_DOUBLE_EQ(json.Find("d")->AsDouble(), -2500.0);
  EXPECT_TRUE(json.Find("b")->AsBool());
  EXPECT_TRUE(json.Find("n")->is_null());
  EXPECT_EQ(json.Find("surrogate")->AsString(), "\xf0\x9f\x98\x80");
}

TEST(WireTest, ParserRejectsLoneSurrogates) {
  // A lone surrogate would encode to ill-formed UTF-8 (CESU-8) and leak
  // invalid bytes into "canonical" output; the strict parser refuses it.
  EXPECT_FALSE(Json::Parse("\"\\ud800\"").ok());
  EXPECT_FALSE(Json::Parse("\"\\ud800x\"").ok());
  EXPECT_FALSE(Json::Parse("\"\\udc00\"").ok());
  EXPECT_FALSE(Json::Parse("\"\\ud800\\u0041\"").ok());
}

TEST(WireTest, DecodersRejectNonObjects) {
  EXPECT_FALSE(DecodeSearchRequest("[1,2,3]").ok());
  EXPECT_FALSE(DecodeSearchRequest("42").ok());
  EXPECT_FALSE(DecodeCubeResponseDto("not json at all").ok());
}

TEST(WireTest, StatzDtosByteStable) {
  MethodStatsDto method;
  method.method = "search";
  method.count = 100;
  method.errors = 3;
  method.deadline_exceeded = 2;
  method.total_ms = 1234.5;
  method.latency_buckets = {0, 1, 2, 90, 7, 0};
  ExpectByteStable(method, DecodeMethodStatsDto, "method stats");
  ExpectByteStable(MethodStatsDto{}, DecodeMethodStatsDto,
                   "default method stats");

  ExpectByteStable(StatzRequest{}, DecodeStatzRequest, "statz request");

  StatzResponse statz;
  statz.epoch = 4;
  statz.sessions = 12;
  statz.sessions_created = 40;
  statz.sessions_evicted = 28;
  statz.uptime_ms = 98765.25;
  statz.bucket_bounds_ms = {0.25, 1, 10, 100};
  statz.methods = {method};
  statz.cumulative = SampleStats();
  statz.transport = {{"frames_received", 1000}, {"requests_shed", 17}};
  ExpectByteStable(statz, DecodeStatzResponse, "statz response");
  ExpectByteStable(StatzResponse{}, DecodeStatzResponse,
                   "default statz response");
}

}  // namespace
}  // namespace seda::api
