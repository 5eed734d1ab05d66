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


TEST(WireTest, DeepSpanTreesReencodeToDecodableJson) {
  // Spans nest two JSON levels each. An empty span object at the parser's
  // depth limit re-encodes with its default keys one level past it, so
  // decoding caps span trees and the round trip holds at any input depth.
  std::string json = "{}";
  for (int i = 0; i < 47; ++i) json = R"({"children":[)" + json + "]}";
  json = R"({"name":"root","children":[)" + json + "]}";
  auto decoded = DecodeSpanNode(json);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const std::string first = Encode(decoded.value());
  auto again = DecodeSpanNode(first);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(Encode(again.value()), first);
}

// --- Golden bytes, one exact-bytes assertion per wire type ----------------
// Byte stability alone would survive a reordered or dropped key; these pin
// every type's canonical bytes, key order included. Populated values come
// first; where a field is omitted at its default, the default value is
// pinned too.

obs::SpanNode SampleSpan() {
  obs::SpanNode span;
  span.name = "search";
  span.start_us = 0;
  span.elapsed_us = 1500;
  span.unix_ms = 1700000000123u;
  span.counters = {{"terms", 2}, {"tuples", 40}};
  obs::SpanNode child;
  child.name = "parse";
  child.start_us = 3;
  child.elapsed_us = 40;
  span.children = {child};
  return span;
}

/// A small stats block for the response goldens (SampleStats has its own).
StatsDto SmallStats() {
  StatsDto stats;
  stats.epoch = 2;
  stats.elapsed_ms = 0.5;
  stats.docs_scored = 4;
  return stats;
}

NodeRefDto PlainNode() {
  NodeRefDto node;
  node.doc = 3;
  node.dewey = "1.2";
  node.path = "/country/name";
  node.content = "Canada";
  return node;
}

obs::SlowLogEntry SampleSlowLogEntry() {
  obs::SlowLogEntry entry;
  entry.seq = 9;
  entry.unix_ms = 1700000000456u;
  entry.method = "search";
  entry.session_id = "s1";
  entry.detail = "(*, \"Canada\")";
  entry.elapsed_ms = 12.5;
  entry.threshold_ms = 10;
  entry.status_code = "OK";
  entry.deadline_exceeded = true;
  entry.sampled = true;
  entry.trace = SampleSpan();
  return entry;
}

constexpr const char* kStatsBytes =
    R"({"epoch":2,"elapsed_ms":0.5,"deadline_ms":0,"deadline_exceeded":false,)"
    R"("candidates_total":0,"docs_considered":0,"docs_scored":4,)"
    R"("tuples_scored":0,"early_terminated":false,"postings_advanced":0,)"
    R"("docs_skipped":0,"heap_evictions":0,"hub_links_skipped":0,)"
    R"("tuples_trimmed":0,"bfs_expansions":0,"intersection_probes":0,)"
    R"("sketch_hits":0,"column_rows_scanned":0,"column_fallback_docs":0})";

constexpr const char* kSpanBytes =
    R"({"name":"search","start_us":0,"elapsed_us":1500,)"
    R"("unix_ms":1700000000123,"counters":[{"name":"terms","value":2},)"
    R"({"name":"tuples","value":40}],"children":[{"name":"parse",)"
    R"("start_us":3,"elapsed_us":40}]})";

TEST(WireGoldenTest, StatusAndStats) {
  WireStatus status;
  status.code = "NotFound";
  status.message = "no \"s9\"";
  EXPECT_EQ(Encode(status), R"({"code":"NotFound","message":"no \"s9\""})");
  EXPECT_EQ(Encode(WireStatus{}), R"({"code":"OK","message":""})");
  EXPECT_EQ(Encode(SmallStats()), kStatsBytes);
}

TEST(WireGoldenTest, SearchResultParts) {
  EXPECT_EQ(Encode(PlainNode()),
            R"({"doc":3,"dewey":"1.2","path":"/country/name",)"
            R"("content":"Canada"})");

  TupleDto tuple;
  tuple.nodes = {PlainNode()};
  tuple.content_score = 0.25;
  tuple.connection_size = 2;
  tuple.score = 1.5;
  EXPECT_EQ(Encode(tuple),
            R"({"nodes":[{"doc":3,"dewey":"1.2","path":"/country/name",)"
            R"("content":"Canada"}],"content_score":0.25,)"
            R"("connection_size":2,"score":1.5})");

  ContextEntryDto entry;
  entry.path = "/country/name";
  entry.doc_count = 10;
  entry.node_count = 12;
  EXPECT_EQ(Encode(entry),
            R"({"path":"/country/name","doc_count":10,"node_count":12})");

  ContextBucketDto bucket;
  bucket.term = "Canada";
  bucket.entries = {entry};
  EXPECT_EQ(Encode(bucket),
            R"({"term":"Canada","entries":[{"path":"/country/name",)"
            R"("doc_count":10,"node_count":12}]})");

  ConnectionStepDto step;
  step.move = "link";
  step.path = "/sea";
  step.label = "borders";
  EXPECT_EQ(Encode(step),
            R"({"move":"link","path":"/sea","label":"borders"})");

  ConnectionDto conn;
  conn.term_a = 0;
  conn.term_b = 1;
  conn.from_path = "/country/name";
  conn.to_path = "/sea/name";
  conn.steps = {step};
  conn.instance_count = 7;
  conn.false_positive = true;
  EXPECT_EQ(Encode(conn),
            R"({"term_a":0,"term_b":1,"from_path":"/country/name",)"
            R"("to_path":"/sea/name","steps":[{"move":"link","path":"/sea",)"
            R"("label":"borders"}],"instance_count":7,"false_positive":true})");
}

TEST(WireGoldenTest, SessionLifecycle) {
  CreateSessionRequest create;
  create.session_id = "analyst-7";
  create.ttl_ms = 60000;
  EXPECT_EQ(Encode(create), R"({"session_id":"analyst-7","ttl_ms":60000})");

  CreateSessionResponse created;
  created.session_id = "s1";
  created.epoch = 3;
  EXPECT_EQ(Encode(created),
            R"({"status":{"code":"OK","message":""},"session_id":"s1",)"
            R"("epoch":3})");

  CloseSessionRequest close;
  close.session_id = "s1";
  EXPECT_EQ(Encode(close), R"({"session_id":"s1"})");

  CloseSessionResponse closed;
  closed.status.code = "NotFound";
  EXPECT_EQ(Encode(closed), R"({"status":{"code":"NotFound","message":""}})");
}

TEST(WireGoldenTest, SearchAndRefine) {
  SearchRequest request;
  request.session_id = "s1";
  request.query = "(*, \"Canada\")";
  request.k = 5;
  request.deadline_ms = 100;
  EXPECT_EQ(Encode(request),
            R"x({"session_id":"s1","query":"(*, \"Canada\")","k":5,)x"
            R"("deadline_ms":100})");
  request.trace = true;
  EXPECT_EQ(Encode(request),
            R"x({"session_id":"s1","query":"(*, \"Canada\")","k":5,)x"
            R"("deadline_ms":100,"trace":true})");

  SearchResponseDto response;
  TupleDto tuple;
  tuple.score = 2;
  response.topk = {tuple};
  ContextBucketDto bucket;
  bucket.term = "Canada";
  response.contexts = {bucket};
  ConnectionDto conn;
  conn.term_b = 1;
  response.connections = {conn};
  response.stats = SmallStats();
  const std::string search_bytes =
      std::string(R"({"status":{"code":"OK","message":""},)"
                  R"("topk":[{"nodes":[],"content_score":0,)"
                  R"("connection_size":0,"score":2}],)"
                  R"("contexts":[{"term":"Canada","entries":[]}],)"
                  R"("connections":[{"term_a":0,"term_b":1,"from_path":"",)"
                  R"("to_path":"","steps":[],"instance_count":0,)"
                  R"("false_positive":false}],"stats":)") +
      kStatsBytes;
  EXPECT_EQ(Encode(response), search_bytes + "}");
  response.trace = SampleSpan();
  EXPECT_EQ(Encode(response), search_bytes + R"(,"trace":)" + kSpanBytes + "}");

  RefineRequest refine;
  refine.session_id = "s1";
  refine.chosen_paths = {{"/country/name"}, {}};
  refine.k = 3;
  refine.deadline_ms = 9;
  EXPECT_EQ(Encode(refine),
            R"({"session_id":"s1","chosen_paths":[["/country/name"],[]],)"
            R"("k":3,"deadline_ms":9})");
  refine.trace = true;
  EXPECT_EQ(Encode(refine),
            R"({"session_id":"s1","chosen_paths":[["/country/name"],[]],)"
            R"("k":3,"deadline_ms":9,"trace":true})");
}

TEST(WireGoldenTest, Complete) {
  CompleteRequest request;
  request.session_id = "s1";
  request.term_paths = {"/country/name", "/sea/name"};
  request.connections = {0, 3};
  request.deadline_ms = 25;
  EXPECT_EQ(Encode(request),
            R"({"session_id":"s1","term_paths":["/country/name","/sea/name"],)"
            R"("connections":[0,3],"deadline_ms":25})");
  request.trace = true;
  EXPECT_EQ(Encode(request),
            R"({"session_id":"s1","term_paths":["/country/name","/sea/name"],)"
            R"("connections":[0,3],"deadline_ms":25,"trace":true})");

  CompleteResponseDto response;
  response.tuples = {{PlainNode()}, {}};
  response.twig_count = 2;
  response.cross_twig_joins = 1;
  response.stats = SmallStats();
  const std::string complete_bytes =
      std::string(R"({"status":{"code":"OK","message":""},)"
                  R"("tuples":[[{"doc":3,"dewey":"1.2","path":"/country/name",)"
                  R"("content":"Canada"}],[]],"twig_count":2,)"
                  R"("cross_twig_joins":1,"stats":)") +
      kStatsBytes;
  EXPECT_EQ(Encode(response), complete_bytes + "}");
  response.trace = SampleSpan();
  EXPECT_EQ(Encode(response),
            complete_bytes + R"(,"trace":)" + kSpanBytes + "}");
}

TEST(WireGoldenTest, Cube) {
  CubeRequest request;
  request.session_id = "s1";
  request.add_facts = {"GDP"};
  request.remove_facts = {"area"};
  request.add_dimensions = {"year"};
  request.remove_dimensions = {"name"};
  request.merge_fact_tables = false;
  request.group_dims = {"year"};
  request.agg_fn = "avg";
  request.measure = "GDP";
  request.deadline_ms = 40;
  const std::string cube_request_bytes =
      R"({"session_id":"s1","add_facts":["GDP"],"remove_facts":["area"],)"
      R"("add_dimensions":["year"],"remove_dimensions":["name"],)"
      R"("merge_fact_tables":false,"group_dims":["year"],"agg_fn":"avg",)"
      R"("measure":"GDP","deadline_ms":40)";
  EXPECT_EQ(Encode(request), cube_request_bytes + "}");
  request.trace = true;
  EXPECT_EQ(Encode(request), cube_request_bytes + R"(,"trace":true})");
  EXPECT_EQ(Encode(CubeRequest{}),
            R"({"session_id":"","add_facts":[],"remove_facts":[],)"
            R"("add_dimensions":[],"remove_dimensions":[],)"
            R"("merge_fact_tables":true,"group_dims":[],"agg_fn":"sum",)"
            R"("measure":"","deadline_ms":0})");

  TableDto table;
  table.name = "GDP";
  table.columns = {"country", "value"};
  table.key_columns = {0};
  table.rows = {{"Canada", "1.5"}, {}};
  const char* table_bytes =
      R"({"name":"GDP","columns":["country","value"],"key_columns":[0],)"
      R"("rows":[["Canada","1.5"],[]]})";
  EXPECT_EQ(Encode(table), table_bytes);

  CellDto cell;
  cell.group = {"2002"};
  cell.value = 40.5;
  cell.count = 3;
  const char* cell_bytes = R"({"group":["2002"],"value":40.5,"count":3})";
  EXPECT_EQ(Encode(cell), cell_bytes);

  CubeResponseDto response;
  response.fact_tables = {table};
  response.dimension_tables = {};
  response.warnings = {"no match"};
  response.cells = {cell};
  response.cell_total = 40.5;
  response.stats = SmallStats();
  const std::string cube_bytes =
      std::string(R"({"status":{"code":"OK","message":""},"fact_tables":[)") +
      table_bytes + R"(],"dimension_tables":[],"warnings":["no match"],)" +
      R"("cells":[)" + cell_bytes + R"(],"cell_total":40.5,"stats":)" +
      kStatsBytes;
  EXPECT_EQ(Encode(response), cube_bytes + "}");
  response.trace = SampleSpan();
  EXPECT_EQ(Encode(response), cube_bytes + R"(,"trace":)" + kSpanBytes + "}");
}

TEST(WireGoldenTest, Observability) {
  MethodStatsDto method;
  method.method = "search";
  method.count = 10;
  method.errors = 1;
  method.deadline_exceeded = 2;
  method.total_ms = 12.5;
  method.latency_buckets = {3, 0, 7};
  const char* method_bytes =
      R"({"method":"search","count":10,"errors":1,"deadline_exceeded":2,)"
      R"("total_ms":12.5,"latency_buckets":[3,0,7]})";
  EXPECT_EQ(Encode(method), method_bytes);

  EXPECT_EQ(Encode(StatzRequest{}), "{}");

  StatzResponse statz;
  statz.epoch = 4;
  statz.sessions = 2;
  statz.sessions_created = 5;
  statz.sessions_evicted = 3;
  statz.uptime_ms = 99.25;
  statz.bucket_bounds_ms = {0.5, 10};
  statz.methods = {method};
  statz.cumulative = SmallStats();
  statz.transport = {{"frames_received", 8}, {"requests_shed", 1}};
  EXPECT_EQ(Encode(statz),
            std::string(R"({"status":{"code":"OK","message":""},"epoch":4,)"
                        R"("sessions":2,"sessions_created":5,)"
                        R"("sessions_evicted":3,"uptime_ms":99.25,)"
                        R"("bucket_bounds_ms":[0.5,10],"methods":[)") +
                method_bytes + R"(],"cumulative":)" + kStatsBytes +
                R"(,"transport":[{"name":"frames_received","value":8},)"
                R"({"name":"requests_shed","value":1}]})");

  EXPECT_EQ(Encode(MetriczRequest{}), "{}");
  MetriczResponse metricz;
  metricz.text = "# TYPE x counter\nx 1\n";
  EXPECT_EQ(Encode(metricz),
            R"({"status":{"code":"OK","message":""},)"
            R"("text":"# TYPE x counter\nx 1\n"})");

  SlowlogRequest slowlog;
  slowlog.limit = 20;
  EXPECT_EQ(Encode(slowlog), R"({"limit":20})");

  const std::string entry_bytes =
      R"({"seq":9,"unix_ms":1700000000456,"method":"search",)"
      R"x("session_id":"s1","detail":"(*, \"Canada\")","elapsed_ms":12.5,)x"
      R"("threshold_ms":10,"status_code":"OK","deadline_exceeded":true,)"
      R"("sampled":true)";
  obs::SlowLogEntry entry = SampleSlowLogEntry();
  EXPECT_EQ(ToJson(entry).Write(),
            entry_bytes + R"(,"trace":)" + kSpanBytes + "}");
  entry.trace = obs::SpanNode{};
  EXPECT_EQ(ToJson(entry).Write(), entry_bytes + "}");
  EXPECT_EQ(ToJson(obs::SlowLogEntry{}).Write(),
            R"({"seq":0,"unix_ms":0,"method":"","session_id":"","detail":"",)"
            R"("elapsed_ms":0,"threshold_ms":0,"status_code":"",)"
            R"("deadline_exceeded":false,"sampled":false})");

  SlowlogResponse log;
  log.total_logged = 12;
  log.entries = {SampleSlowLogEntry()};
  EXPECT_EQ(Encode(log),
            R"({"status":{"code":"OK","message":""},"total_logged":12,)"
            R"("entries":[)" + entry_bytes + R"(,"trace":)" + kSpanBytes +
                "}]}");
}

TEST(WireGoldenTest, SpanNode) {
  EXPECT_EQ(ToJson(SampleSpan()).Write(), kSpanBytes);
  // unix_ms, counters and children are omitted at their defaults.
  EXPECT_EQ(ToJson(obs::SpanNode{}).Write(),
            R"({"name":"","start_us":0,"elapsed_us":0})");
}

// --- Decode rules -------------------------------------------------------

/// `{}` decodes to the struct defaults, for every wire type.
template <typename T, typename DecodeFn>
void ExpectEmptyObjectIsDefault(DecodeFn&& decode, const char* what) {
  auto decoded = decode("{}");
  ASSERT_TRUE(decoded.ok()) << what << ": " << decoded.status().ToString();
  EXPECT_EQ(Encode(decoded.value()), Encode(T{})) << what;
}

TEST(WireDecodeRuleTest, EmptyObjectDecodesToDefaults) {
#define SEDA_EXPECT_EMPTY_OBJECT_IS_DEFAULT(Type) \
  ExpectEmptyObjectIsDefault<Type>(Decode##Type, #Type);
  SEDA_WIRE_TYPES(SEDA_EXPECT_EMPTY_OBJECT_IS_DEFAULT)
#undef SEDA_EXPECT_EMPTY_OBJECT_IS_DEFAULT

  auto cube = DecodeCubeRequest("{}");
  ASSERT_TRUE(cube.ok());
  EXPECT_TRUE(cube.value().merge_fact_tables);
  EXPECT_EQ(cube.value().agg_fn, "sum");
  auto status = DecodeWireStatus("{}");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().code, "OK");
}

TEST(WireDecodeRuleTest, EmptyStringNormalisesToTheDefault) {
  auto cube = DecodeCubeRequest(R"({"agg_fn":""})");
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(cube.value().agg_fn, "sum");
  auto status = DecodeWireStatus(R"({"code":"","message":"m"})");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().code, "OK");
  EXPECT_EQ(status.value().message, "m");
}

TEST(WireDecodeRuleTest, WrongKindValuesDecodeToTheDefault) {
  auto cube = DecodeCubeRequest(
      R"({"session_id":7,"add_facts":{"a":1},"merge_fact_tables":"no",)"
      R"("group_dims":"year","agg_fn":[1],"measure":null,)"
      R"("deadline_ms":-5,"trace":1})");
  ASSERT_TRUE(cube.ok());
  EXPECT_EQ(Encode(cube.value()), Encode(CubeRequest{}));
  EXPECT_TRUE(cube.value().merge_fact_tables);
  EXPECT_EQ(cube.value().agg_fn, "sum");

  auto search = DecodeSearchResponseDto(
      R"({"status":"fine","topk":{},"contexts":7,"connections":"x",)"
      R"("stats":[1,2],"trace":"yes"})");
  ASSERT_TRUE(search.ok());
  EXPECT_EQ(Encode(search.value()), Encode(SearchResponseDto{}));

  auto stats = DecodeStatsDto(
      R"({"epoch":1.5,"elapsed_ms":"fast","deadline_exceeded":0,)"
      R"("early_terminated":"yes","docs_scored":true})");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(Encode(stats.value()), Encode(StatsDto{}));

  auto status = DecodeWireStatus(R"({"code":5,"message":false})");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(status.value().code, "OK");
  EXPECT_EQ(status.value().message, "");
}

TEST(WireTest, ObsTypesByteStable) {
  ExpectByteStable(SampleSpan(), DecodeSpanNode, "span tree");
  ExpectByteStable(SampleSlowLogEntry(), DecodeSlowLogEntry, "slow-log entry");
}

// --- NaN round trip --------------------------------------------------------
// JSON has no NaN: a non-finite double encodes as null, and null must decode
// back to NaN for every double field, or Encode(Decode(Encode(x))) re-encodes
// it as 0.

TEST(WireTest, NanRoundTripsInEveryDoubleField) {
  const double nan = std::nan("");

  TupleDto tuple;
  tuple.content_score = nan;
  tuple.score = nan;
  ExpectByteStable(tuple, DecodeTupleDto, "NaN tuple");
  auto tuple_decoded = DecodeTupleDto(Encode(tuple));
  ASSERT_TRUE(tuple_decoded.ok());
  EXPECT_TRUE(std::isnan(tuple_decoded.value().content_score));
  EXPECT_TRUE(std::isnan(tuple_decoded.value().score));

  StatsDto stats;
  stats.elapsed_ms = nan;
  ExpectByteStable(stats, DecodeStatsDto, "NaN stats");

  MethodStatsDto method;
  method.total_ms = nan;
  ExpectByteStable(method, DecodeMethodStatsDto, "NaN method stats");

  StatzResponse statz;
  statz.uptime_ms = nan;
  statz.bucket_bounds_ms = {1, nan, std::numeric_limits<double>::infinity()};
  ExpectByteStable(statz, DecodeStatzResponse, "NaN statz");
  auto statz_decoded = DecodeStatzResponse(Encode(statz));
  ASSERT_TRUE(statz_decoded.ok());
  EXPECT_TRUE(std::isnan(statz_decoded.value().uptime_ms));
  ASSERT_EQ(statz_decoded.value().bucket_bounds_ms.size(), 3u);
  EXPECT_TRUE(std::isnan(statz_decoded.value().bucket_bounds_ms[1]));

  obs::SlowLogEntry entry;
  entry.elapsed_ms = nan;
  ExpectByteStable(entry, DecodeSlowLogEntry, "NaN slow-log entry");
  auto entry_decoded = DecodeSlowLogEntry(Encode(entry));
  ASSERT_TRUE(entry_decoded.ok());
  EXPECT_TRUE(std::isnan(entry_decoded.value().elapsed_ms));
}

}  // namespace
}  // namespace seda::api
