// src/net/ integration tests: frame codec unit coverage plus a real
// loopback server (ephemeral port) driven by BlockingClient — byte-for-byte
// equivalence against the in-process service, malformed/oversized frames,
// transport deadline injection, admission-control shedding, pipelined "id"
// correlation and graceful-shutdown draining.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "core/seda.h"
#include "data/generators.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"

namespace seda::net {
namespace {

// --- Frame codec --------------------------------------------------------

TEST(FrameTest, RoundTripsSingleAndConcatenatedFrames) {
  FrameDecoder decoder;
  const std::string a = R"({"method":"statz"})";
  const std::string b = std::string(1000, 'x');
  const std::string bytes = EncodeFrame(a) + EncodeFrame(b) + EncodeFrame("");
  decoder.Feed(bytes.data(), bytes.size());
  auto first = decoder.Next();
  ASSERT_EQ(first.event, FrameDecoder::Event::kFrame);
  EXPECT_EQ(first.payload, a);
  auto second = decoder.Next();
  ASSERT_EQ(second.event, FrameDecoder::Event::kFrame);
  EXPECT_EQ(second.payload, b);
  auto third = decoder.Next();
  ASSERT_EQ(third.event, FrameDecoder::Event::kFrame);
  EXPECT_EQ(third.payload, "");
  EXPECT_EQ(decoder.Next().event, FrameDecoder::Event::kNeedMore);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

TEST(FrameTest, ReassemblesByteAtATime) {
  FrameDecoder decoder;
  const std::string frame = EncodeFrame(R"({"k":7})");
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.Feed(&frame[i], 1);
    EXPECT_EQ(decoder.Next().event, FrameDecoder::Event::kNeedMore) << i;
  }
  decoder.Feed(&frame[frame.size() - 1], 1);
  auto result = decoder.Next();
  ASSERT_EQ(result.event, FrameDecoder::Event::kFrame);
  EXPECT_EQ(result.payload, R"({"k":7})");
}

TEST(FrameTest, RejectsBadMagicImmediatelyAndStays) {
  FrameDecoder decoder;
  const std::string http = "GET / HTTP/1.1\r\n";
  decoder.Feed(http.data(), 1);  // 'G' alone already mismatches
  auto result = decoder.Next();
  ASSERT_EQ(result.event, FrameDecoder::Event::kError);
  EXPECT_NE(result.error.find("magic"), std::string::npos);
  // Sticky: even a valid frame afterwards cannot resurrect the stream.
  const std::string valid = EncodeFrame("{}");
  decoder.Feed(valid.data(), valid.size());
  EXPECT_EQ(decoder.Next().event, FrameDecoder::Event::kError);
}

TEST(FrameTest, RejectsOversizedLengthWithoutBuffering) {
  FrameDecoder decoder(/*max_payload_bytes=*/1024);
  std::string header = "SEDA";
  const uint32_t huge = 0xFFFFFFFF;
  header.append(reinterpret_cast<const char*>(&huge), 4);
  decoder.Feed(header.data(), header.size());
  auto result = decoder.Next();
  ASSERT_EQ(result.event, FrameDecoder::Event::kError);
  EXPECT_NE(result.error.find("exceeds"), std::string::npos);
}

// --- Loopback server ----------------------------------------------------

/// One scenario-corpus engine shared by every server test (read-only).
core::Seda* SharedSeda() {
  static core::Seda* seda = [] {
    auto* built = new core::Seda();
    data::PopulateScenario(built->mutable_store());
    if (!built->Finalize().ok()) return static_cast<core::Seda*>(nullptr);
    return built;
  }();
  return seda;
}

constexpr const char* kSearchEnvelope =
    R"json({"method":"search","query":"(name, *) AND (*, china)","k":5})json";

/// A generated Factbook (scale 0.05, default options) for the wire
/// equivalence check: cross-document trade tuples and value-edge hubs.
core::Seda* FactbookSeda() {
  static core::Seda* seda = [] {
    auto* built = new core::Seda();
    data::WorldFactbookGenerator::Options options;
    options.scale = 0.05;
    data::WorldFactbookGenerator(options).Populate(built->mutable_store());
    if (!built->Finalize().ok()) return static_cast<core::Seda*>(nullptr);
    return built;
  }();
  return seda;
}

struct TestServer {
  explicit TestServer(ServerOptions options = ServerOptions{},
                      core::Seda* seda = SharedSeda()) {
    options.io_threads = 2;
    options.worker_threads = options.worker_threads ? options.worker_threads : 2;
    service = std::make_unique<api::SedaService>(seda);
    server = std::make_unique<Server>(service.get(), options);
    start_status = server->Start();
  }

  BlockingClient Connect() {
    BlockingClient client;
    EXPECT_TRUE(
        client.Connect("127.0.0.1", server->port(), /*recv_timeout_ms=*/10000)
            .ok());
    return client;
  }

  std::unique_ptr<api::SedaService> service;
  std::unique_ptr<Server> server;
  Status start_status;
};

/// Search response bytes with the volatile timing field zeroed; everything
/// else — ranking, summaries, engine counters — must match exactly.
std::string CanonicalSearchBytes(const std::string& response_json) {
  auto decoded = api::DecodeSearchResponseDto(response_json);
  EXPECT_TRUE(decoded.ok()) << response_json;
  api::SearchResponseDto response = std::move(decoded).value();
  response.stats.elapsed_ms = 0;
  return Encode(response);
}

TEST(NetServerTest, ResponsesAreByteIdenticalToDirectHandle) {
  // Each collection is served over TCP; an in-process service over the same
  // snapshot plays the direct caller.
  struct Input {
    const char* name;
    core::Seda* seda;
    std::vector<const char*> envelopes;
  };
  const Input inputs[] = {
      {"scenario", SharedSeda(),
       {kSearchEnvelope,
        R"json({"method":"search","query":"(*, pacific)","k":3})json",
        R"json({"method":"search","query":"(name, china OR canada)"})json"}},
      {"factbook 0.05", FactbookSeda(),
       {R"json({"method":"search","query":"(*, \"United States\") AND (trade_country, *)","k":10})json",
        R"json({"method":"search","query":"(trade_country, \"China\") AND (percentage, *)","k":10})json",
        R"json({"method":"search","query":"(name, *) AND (GDP_ppp, *)","k":10})json",
        R"json({"method":"search","query":"(*, pacific)","k":10})json"}},
  };
  for (const Input& input : inputs) {
    ASSERT_NE(input.seda, nullptr) << input.name;
    api::SedaService direct(input.seda);
    TestServer fixture(ServerOptions{}, input.seda);
    ASSERT_TRUE(fixture.start_status.ok()) << fixture.start_status.ToString();
    BlockingClient client = fixture.Connect();
    for (const char* envelope : input.envelopes) {
      SCOPED_TRACE(std::string(input.name) + " " + envelope);
      auto over_wire = client.Call(envelope);
      ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();
      EXPECT_EQ(CanonicalSearchBytes(over_wire.value()),
                CanonicalSearchBytes(direct.Handle(envelope)));
    }
  }
}

TEST(NetServerTest, ConcurrentClientsAllGetExactResponses) {
  TestServer fixture;
  ASSERT_TRUE(fixture.start_status.ok());
  api::SedaService direct(SharedSeda());
  const std::string expected = CanonicalSearchBytes(direct.Handle(kSearchEnvelope));
  constexpr int kClients = 8;
  constexpr int kCallsEach = 5;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      BlockingClient client;
      if (!client.Connect("127.0.0.1", fixture.server->port(), 10000).ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < kCallsEach; ++i) {
        auto response = client.Call(kSearchEnvelope);
        if (!response.ok()) {
          ++failures;
          return;
        }
        if (CanonicalSearchBytes(response.value()) != expected) ++mismatches;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(fixture.server->stats().frames_received.load(),
            static_cast<uint64_t>(kClients * kCallsEach));
}

TEST(NetServerTest, MalformedFrameGetsErrorFrameThenClose) {
  TestServer fixture;
  ASSERT_TRUE(fixture.start_status.ok());
  BlockingClient client = fixture.Connect();
  ASSERT_TRUE(client.SendRaw("GET / HTTP/1.1\r\nHost: x\r\n\r\n").ok());
  auto response = client.ReadFrame();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto decoded = api::Json::Parse(response.value());
  ASSERT_TRUE(decoded.ok());
  const api::Json* status = decoded.value().Find("status");
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->Find("code")->AsString(), "InvalidArgument");
  // After the error frame the server closes; no reset, a clean EOF.
  auto eof = client.ReadFrame();
  ASSERT_FALSE(eof.ok());
  EXPECT_NE(eof.status().ToString().find("closed"), std::string::npos);
  EXPECT_EQ(fixture.server->stats().protocol_errors.load(), 1u);
}

TEST(NetServerTest, OversizedFrameIsRefusedCleanly) {
  ServerOptions options;
  options.max_frame_bytes = 256;
  TestServer fixture(options);
  ASSERT_TRUE(fixture.start_status.ok());
  BlockingClient client = fixture.Connect();
  ASSERT_TRUE(client.Send(std::string(1024, 'x')).ok());
  auto response = client.ReadFrame();
  ASSERT_TRUE(response.ok());
  EXPECT_NE(response.value().find("exceeds"), std::string::npos);
  EXPECT_NE(response.value().find("InvalidArgument"), std::string::npos);
}

TEST(NetServerTest, TruncatedFrameThenDisconnectLeavesServerHealthy) {
  TestServer fixture;
  ASSERT_TRUE(fixture.start_status.ok());
  {
    BlockingClient client = fixture.Connect();
    // Header promises 64 bytes, sends 10, disconnects.
    std::string partial = EncodeFrame(std::string(64, 'y')).substr(0, 18);
    ASSERT_TRUE(client.SendRaw(partial).ok());
  }
  BlockingClient second = fixture.Connect();
  auto response = second.Call(kSearchEnvelope);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(api::DecodeSearchResponseDto(response.value()).ok());
}

TEST(NetServerTest, TransportDeadlineIsInjectedIntoEnvelope) {
  ServerOptions options;
  options.request_timeout_ms = 1234;
  TestServer fixture(options);
  ASSERT_TRUE(fixture.start_status.ok());
  BlockingClient client = fixture.Connect();
  // No client deadline: the transport budget fills deadline_ms.
  auto injected = client.Call(kSearchEnvelope);
  ASSERT_TRUE(injected.ok());
  auto decoded = api::DecodeSearchResponseDto(injected.value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().stats.deadline_ms, 1234u);
  // A looser client deadline gets capped down to the transport budget.
  auto capped = client.Call(
      R"json({"method":"search","query":"(*, pacific)","deadline_ms":99999})json");
  ASSERT_TRUE(capped.ok());
  auto capped_decoded = api::DecodeSearchResponseDto(capped.value());
  ASSERT_TRUE(capped_decoded.ok());
  EXPECT_EQ(capped_decoded.value().stats.deadline_ms, 1234u);
  // A tighter client deadline survives untouched.
  auto tight = client.Call(
      R"json({"method":"search","query":"(*, pacific)","deadline_ms":600})json");
  ASSERT_TRUE(tight.ok());
  auto tight_decoded = api::DecodeSearchResponseDto(tight.value());
  ASSERT_TRUE(tight_decoded.ok());
  EXPECT_EQ(tight_decoded.value().stats.deadline_ms, 600u);
}

TEST(NetServerTest, PipelinedResponsesEchoCorrelationIds) {
  TestServer fixture;
  ASSERT_TRUE(fixture.start_status.ok());
  BlockingClient client = fixture.Connect();
  constexpr int kPipelined = 6;
  for (int i = 0; i < kPipelined; ++i) {
    api::Json envelope = api::Json::Parse(kSearchEnvelope).value();
    envelope.Set("id", api::Json::Uint(static_cast<uint64_t>(100 + i)));
    ASSERT_TRUE(client.Send(envelope.Write()).ok());
  }
  std::set<uint64_t> seen;
  for (int i = 0; i < kPipelined; ++i) {
    auto response = client.ReadFrame();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    auto parsed = api::Json::Parse(response.value());
    ASSERT_TRUE(parsed.ok());
    const api::Json* id = parsed.value().Find("id");
    ASSERT_NE(id, nullptr) << response.value();
    seen.insert(id->AsUint());
  }
  std::set<uint64_t> expected;
  for (int i = 0; i < kPipelined; ++i) expected.insert(100 + i);
  EXPECT_EQ(seen, expected);
}

/// Extracts the envelope-level status code ("" when the response has none).
std::string EnvelopeCode(const std::string& response_json) {
  auto parsed = api::Json::Parse(response_json);
  if (!parsed.ok()) return "<unparseable>";
  const api::Json* status = parsed.value().Find("status");
  if (status == nullptr || status->Find("code") == nullptr) return "";
  return status->Find("code")->AsString();
}

TEST(NetServerTest, TinyQueueShedsWithWellFormedOverloadedFrames) {
  ServerOptions options;
  options.worker_threads = 1;
  options.queue_capacity = 1;
  TestServer fixture(options);
  ASSERT_TRUE(fixture.start_status.ok());
  BlockingClient client = fixture.Connect();
  // One burst write of far more requests than worker + queue can hold: the
  // IO thread decodes them back-to-back, so most must be shed inline.
  constexpr int kBurst = 32;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) burst += EncodeFrame(kSearchEnvelope);
  ASSERT_TRUE(client.SendRaw(burst).ok());
  int ok_count = 0;
  int shed_count = 0;
  for (int i = 0; i < kBurst; ++i) {
    auto response = client.ReadFrame();
    ASSERT_TRUE(response.ok()) << "request " << i << " lost: "
                               << response.status().ToString();
    const std::string code = EnvelopeCode(response.value());
    if (code == "Unavailable") {
      EXPECT_NE(response.value().find("overloaded"), std::string::npos);
      ++shed_count;
    } else {
      EXPECT_TRUE(api::DecodeSearchResponseDto(response.value()).ok());
      ++ok_count;
    }
  }
  // Load shedding contract: every request gets a well-formed answer (no
  // resets, no silent drops) and overload actually sheds.
  EXPECT_EQ(ok_count + shed_count, kBurst);
  EXPECT_GT(shed_count, 0);
  EXPECT_GT(ok_count, 0);
  EXPECT_EQ(fixture.server->stats().requests_shed.load(),
            static_cast<uint64_t>(shed_count));
}

TEST(NetServerTest, ConnectionRateLimitShedsDeterministically) {
  ServerOptions options;
  options.admission.per_connection_rps = 0.0001;  // bucket never holds 1 token
  TestServer fixture(options);
  ASSERT_TRUE(fixture.start_status.ok());
  BlockingClient client = fixture.Connect();
  auto response = client.Call(kSearchEnvelope);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(EnvelopeCode(response.value()), "Unavailable");
  EXPECT_NE(response.value().find("rate"), std::string::npos);
}

TEST(NetServerTest, SessionRateLimitShedsAcrossConnections) {
  ServerOptions options;
  options.admission.per_session_rps = 0.0001;
  TestServer fixture(options);
  ASSERT_TRUE(fixture.start_status.ok());
  BlockingClient a = fixture.Connect();
  BlockingClient b = fixture.Connect();
  const std::string request =
      R"json({"method":"search","session_id":"tenant1","query":"(name, *)"})json";
  auto from_a = a.Call(request);
  auto from_b = b.Call(request);
  ASSERT_TRUE(from_a.ok());
  ASSERT_TRUE(from_b.ok());
  EXPECT_EQ(EnvelopeCode(from_a.value()), "Unavailable");
  EXPECT_EQ(EnvelopeCode(from_b.value()), "Unavailable");
  // One-shot requests (no session_id) skip the per-session limiter.
  auto anonymous = a.Call(kSearchEnvelope);
  ASSERT_TRUE(anonymous.ok());
  EXPECT_NE(EnvelopeCode(anonymous.value()), "Unavailable");
}

TEST(NetServerTest, ConnectionCapRefusesAtTheDoor) {
  ServerOptions options;
  options.admission.max_connections = 1;
  TestServer fixture(options);
  ASSERT_TRUE(fixture.start_status.ok());
  BlockingClient first = fixture.Connect();
  auto warmup = first.Call(kSearchEnvelope);  // connection fully registered
  ASSERT_TRUE(warmup.ok());
  BlockingClient second = fixture.Connect();
  auto refused = second.ReadFrame();
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(EnvelopeCode(refused.value()), "Unavailable");
  EXPECT_EQ(fixture.server->stats().connections_refused.load(), 1u);
}

TEST(NetServerTest, StatzOverTheWireCarriesTransportCounters) {
  TestServer fixture;
  ASSERT_TRUE(fixture.start_status.ok());
  BlockingClient client = fixture.Connect();
  ASSERT_TRUE(client.Call(R"({"method":"create_session","session_id":"s1"})").ok());
  ASSERT_TRUE(client.Call(kSearchEnvelope).ok());
  auto response = client.Call(R"({"method":"statz"})");
  ASSERT_TRUE(response.ok());
  auto statz = api::DecodeStatzResponse(response.value());
  ASSERT_TRUE(statz.ok()) << response.value();
  EXPECT_EQ(statz.value().sessions, 1u);
  EXPECT_EQ(statz.value().sessions_created, 1u);
  bool found_search = false;
  for (const api::MethodStatsDto& method : statz.value().methods) {
    if (method.method == "search") {
      found_search = true;
      EXPECT_EQ(method.count, 1u);
    }
  }
  EXPECT_TRUE(found_search);
  EXPECT_GT(statz.value().cumulative.docs_scored, 0u);
  bool found_frames = false;
  for (const auto& [name, value] : statz.value().transport) {
    if (name == "frames_received") {
      found_frames = true;
      EXPECT_GE(value, 2u);
    }
  }
  EXPECT_TRUE(found_frames) << "transport section missing";
}

TEST(NetServerTest, GracefulShutdownDrainsInFlightRequests) {
  TestServer fixture;
  ASSERT_TRUE(fixture.start_status.ok());
  BlockingClient client = fixture.Connect();
  constexpr int kPipelined = 4;
  std::string burst;
  for (int i = 0; i < kPipelined; ++i) burst += EncodeFrame(kSearchEnvelope);
  ASSERT_TRUE(client.SendRaw(burst).ok());
  // The burst went out in one write; once the first response arrives the
  // server has decoded (and admitted or shed) all four frames. Stopping now
  // makes the remaining three genuinely in flight during the drain.
  auto first = client.ReadFrame();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  fixture.server->Stop();
  // Every admitted-or-shed request still gets a well-formed frame; after
  // the drain the server closes cleanly (EOF, not a reset).
  int well_formed = 1;
  for (int i = 1; i < kPipelined; ++i) {
    auto response = client.ReadFrame();
    ASSERT_TRUE(response.ok())
        << "request " << i << " dropped in drain: "
        << response.status().ToString();
    const std::string code = EnvelopeCode(response.value());
    if (code == "Unavailable" ||
        api::DecodeSearchResponseDto(response.value()).ok()) {
      ++well_formed;
    }
  }
  EXPECT_EQ(well_formed, kPipelined);
  // And then a clean EOF, never a reset.
  auto eof = client.ReadFrame();
  EXPECT_FALSE(eof.ok());
}

TEST(NetServerTest, ThreadCountsAboveTheCeilingAreRejectedBeforeBinding) {
  // The same ceiling SedaOptions' thread counts obey. The check runs before
  // any socket or thread exists, so 1025 starts nothing.
  api::SedaService service(SharedSeda());
  for (bool io : {true, false}) {
    SCOPED_TRACE(io ? "io_threads" : "worker_threads");
    ServerOptions options;
    (io ? options.io_threads : options.worker_threads) =
        core::kMaxThreadCount + 1;
    Server server(&service, options);
    const Status started = server.Start();
    EXPECT_EQ(started.code(), StatusCode::kInvalidArgument)
        << started.ToString();
    EXPECT_EQ(server.port(), 0);
  }
}

TEST(NetServerTest, StoppedServerRefusesNewConnectionsPolitely) {
  TestServer fixture;
  ASSERT_TRUE(fixture.start_status.ok());
  fixture.server->Stop();
  BlockingClient late;
  // The listen socket is gone; connect must fail fast (refused), never hang.
  EXPECT_FALSE(late.Connect("127.0.0.1", fixture.server->port(), 1000).ok());
}

}  // namespace
}  // namespace seda::net
