// keyword: open loop at a fixed rate over two connections, one-shot search
// envelopes (no session), on a freshly opened Factbook + Mondial image with
// no warm-up. Each search is one keyword term whose 1-3 keywords are drawn
// from a seeded Zipf over the collection's vocabulary (ranked by document
// frequency). The cost sits in query/exec/topk, per-request net/api
// overhead and first-touch lazy posting decode; twig/cube/column do nothing.
//
// Keywords are OR-ed inside one term rather than spread over several terms:
// a multi-term one-shot search pays a cold dataguide connection search of
// 0.2-2.5 s for every new pair of result paths (cached per epoch), so an
// open-loop tail over such requests is set by how many new pairs a seed
// happens to draw, not by the engine's per-request cost. Every traced run
// reports that cost as summary.connection_first_ms.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "api/wire.h"
#include "common/rng.h"
#include "corpus.h"
#include "layers.h"
#include "query/query.h"
#include "serving.h"
#include "templates.h"
#include "workloads.h"

namespace sedabench {

namespace {

constexpr size_t kConnections = 2;
/// Open-loop arrival rate. Fixed once (BENCHMARK.json records it) so the
/// single server worker is busy well under half the time.
constexpr double kRatePerS = 150;
constexpr double kZipfExponent = 1.0;
/// Requests replayed layer by layer in the traced run.
constexpr size_t kTraceRequests = 400;

struct Request {
  std::string query;
  std::vector<std::string> keywords;
};

/// Content terms ranked by document frequency (ties by term).
std::vector<std::string> Vocabulary(const seda::core::Snapshot& snapshot) {
  std::vector<std::pair<uint64_t, std::string>> ranked;
  for (std::string& term : snapshot.index().AllTerms()) {
    uint64_t df = snapshot.index().DocumentFrequency(term);
    if (df > 0) ranked.emplace_back(df, std::move(term));
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<std::string> vocabulary;
  vocabulary.reserve(ranked.size());
  for (auto& [df, term] : ranked) vocabulary.push_back(std::move(term));
  return vocabulary;
}

std::vector<Request> MakeScript(const std::vector<std::string>& vocabulary,
                                uint64_t seed, size_t count) {
  std::vector<double> cdf(vocabulary.size());
  double total = 0;
  for (size_t i = 0; i < cdf.size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cdf[i] = total;
  }
  seda::Rng rng(seed ^ 0x6b657977ull);
  std::vector<Request> script(count);
  for (Request& request : script) {
    double u = rng.NextDouble();
    size_t keywords = u < 0.5 ? 1 : (u < 0.8 ? 2 : 3);
    request.query = "(*, ";
    for (size_t k = 0; k < keywords; ++k) {
      double x = rng.NextDouble() * total;
      size_t rank = static_cast<size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
      const std::string& word = vocabulary[std::min(rank, cdf.size() - 1)];
      request.keywords.push_back(word);
      if (k > 0) request.query += " OR ";
      request.query += "\"" + word + "\"";
    }
    request.query += ")";
  }
  return script;
}

/// Reference rankings: core::Snapshot::Search per distinct query.
std::unordered_map<std::string, std::string> References(
    const seda::core::Snapshot& snapshot, const std::vector<Request>& script,
    RunResult* result) {
  std::unordered_map<std::string, std::string> references;
  for (const Request& request : script) {
    if (references.count(request.query) > 0) continue;
    auto response = snapshot.Search(request.query);
    if (!response.ok()) {
      result->Fail("reference search failed: " + request.query + ": " +
                   response.status().ToString());
      references[request.query] = "";
      continue;
    }
    references[request.query] = RankingSignature(response->topk);
  }
  return references;
}

/// True when `response` is a search response whose ranking equals the
/// reference.
bool RankingMatches(const std::string& response, const std::string& expected) {
  auto json = seda::api::Json::Parse(response);
  if (!json.ok()) return false;
  seda::api::SearchResponseDto dto =
      seda::api::SearchResponseDtoFromJson(json.value());
  return dto.status.ok() && RankingSignature(dto.topk) == expected;
}

struct Sent {
  double latency_ms = 0;  ///< from the due time
  double late_ms = 0;     ///< send time minus due time
  bool ok = false;
  bool shed = false;
  std::string response;
};

/// The open-loop generator: request i is due at start + i / rate and goes
/// out on connection i % kConnections.
std::vector<Sent> OpenLoop(uint16_t port, const std::vector<Request>& script,
                           size_t count, RunResult* result) {
  std::vector<Sent> sent(count);
  std::vector<std::thread> connections;
  std::atomic<bool> connect_failed{false};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (size_t c = 0; c < kConnections; ++c) {
    connections.emplace_back([&, c] {
      seda::net::BlockingClient client;
      if (!Connect(&client, port).ok()) {
        connect_failed = true;
        return;
      }
      for (size_t i = c; i < count; i += kConnections) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(i / kRatePerS));
        std::this_thread::sleep_until(due);
        const Clock::time_point send = Clock::now();
        auto reply = client.Call(SearchEnvelope("", script[i].query));
        Sent& s = sent[i];
        s.latency_ms = Ms(due, Clock::now());
        s.late_ms = Ms(due, send);
        if (reply.ok()) {
          s.response = std::move(reply).value();
          s.ok = ResponseOk(s.response);
          s.shed = IsShed(s.response);
        }
      }
    });
  }
  for (std::thread& connection : connections) connection.join();
  if (connect_failed) result->Fail("client could not connect");
  return sent;
}

struct Built {
  Serving serving;
  BuildTimes build;
  double setup_s = 0;
};

/// One set-up: AddXml + Finalize + Save (on processor `rep`; `off_clock`
/// runs on the builder, untimed), then Open + Server::Start.
seda::Status SetUp(
    std::vector<XmlDoc>* docs, bool consume, const std::string& image,
    unsigned rep,
    const std::function<void(const seda::core::Seda&)>& off_clock,
    Built* built) {
  seda::Status status;
  {
    PinnedToCpu pin(rep);
    status = BuildImage(docs, consume, image, &built->build, off_clock);
  }
  Clock::time_point start = Clock::now();
  if (status.ok()) status = built->serving.Start(image);
  built->setup_s = built->build.add_s + built->build.finalize_s +
                   built->build.save_s + Ms(start, Clock::now()) / 1000.0;
  return status;
}

/// The traced run. The first kTraceRequests of the script go three ways,
/// each to an instance of its own opened from the same image and touched
/// by nothing else: over the wire to the served instance (net.call), through
/// Handle() of a second instance (api.handle), and as the layer calls
/// Handle() composes on a third (api, query, exec, topk and summary spans).
/// So each leg pays the same first-touch posting decode on a query's first
/// use, the layer spans show where that decode lands, and the per-request
/// differences (transport self = net.call - api.handle, handle self =
/// api.handle - layer spans) compare equally cold calls. The same requests
/// then run untraced and traced again for the overhead ratio, followed by an
/// open-loop phase for generator lateness, the first commit's stages
/// standalone and the persist layer.
void ReplayKeyword(Built& built, const std::vector<Request>& script,
                   const std::unordered_map<std::string, std::string>& refs,
                   const std::vector<XmlDoc>& docs, const std::string& image,
                   const RunConfig& config, RunResult* result) {
  Serving& serving = built.serving;
  seda::net::BlockingClient client;
  if (!Connect(&client, serving.port()).ok()) {
    result->Fail("client could not connect");
    return;
  }
  seda::core::Seda handle_instance, layer_instance;
  seda::Status opened = handle_instance.Open(image);
  if (opened.ok()) opened = layer_instance.Open(image);
  if (!opened.ok()) {
    result->Fail("open replay instances: " + opened.ToString());
    return;
  }
  seda::api::SedaService handle_service(&handle_instance);
  const size_t count = std::min(kTraceRequests, script.size());
  SpanLog log(true);
  LayerReport report;
  std::unordered_set<std::string> seen;
  std::unordered_map<std::string, double> first_rtt;
  double pass_ms[3] = {0, 0, 0};
  for (int pass = 0; pass < 3; ++pass) {
    SpanLog scratch_log(pass == 2);
    SpanLog* spans = pass == 0 ? &log : &scratch_log;
    LayerReport scratch;
    LayerReport* rep = pass == 0 ? &report : &scratch;
    auto snapshot = layer_instance.snapshot();
    Clock::time_point pass_start = Clock::now();
    for (size_t i = 0; i < count; ++i) {
      const Request& request = script[i];
      const std::string envelope = SearchEnvelope("", request.query);
      seda::obs::Trace trace = spans->Start("search");
      seda::obs::TraceSpan* root = trace.root();
      Clock::time_point start = Clock::now();
      seda::obs::ScopedSpan net_span(root, "net.call");
      auto reply = client.Call(envelope);
      net_span.End();
      const double rtt = Ms(start, Clock::now());
      seda::obs::ScopedSpan handle_span(root, "api.handle");
      Exchange exchange{"search", envelope, handle_service.Handle(envelope),
                        0};
      handle_span.End();
      ReplayApi(exchange, root);
      seda::Result<seda::query::Query> query = seda::Status::OK();
      {
        seda::obs::ScopedSpan parse(root, "query.parse");
        query = seda::query::ParseQuery(request.query);
      }
      bool replay_ok = false;
      if (query.ok()) {
        auto replayed =
            ReplaySearch(*snapshot, query.value(), root, &rep->counts);
        replay_ok = replayed.ok() &&
                    RankingSignature(replayed->topk) == refs.at(request.query);
      }
      spans->Keep(&trace);
      if (pass != 0) continue;

      ++result->attempted;
      const std::string response = reply.ok() ? reply.value() : "";
      if (!replay_ok || !RankingMatches(response, refs.at(request.query)) ||
          !RankingMatches(exchange.response, refs.at(request.query))) {
        ++result->failed;
        result->Fail("traced search differs from reference: " + request.query);
      }
      rep->ops += 1;
      rep->exchanges += 1;
      rep->rtt_ms.push_back(rtt);
      rep->response_bytes += static_cast<double>(response.size());
      rep->shed += IsShed(response);
      // First touch against a repeat of the same query, so the pair
      // differs only in what the first request had to decode.
      bool first_touch = false;
      for (const std::string& keyword : request.keywords) {
        first_touch |= seen.insert(keyword).second;
      }
      auto first = first_rtt.find(request.query);
      if (first == first_rtt.end()) {
        if (first_touch) first_rtt[request.query] = rtt;
      } else if (first->second >= 0) {
        rep->first_touch_search_ms.push_back(first->second);
        rep->warm_search_ms.push_back(rtt);
        first->second = -1;
      }
    }
    pass_ms[pass] = Ms(pass_start, Clock::now());
  }
  report.trace_overhead_ratio = pass_ms[2] / pass_ms[1];

  // One-shot searches never reach twig, cube or olap; those layers are
  // timed on one drill-down of the collection's Query 1 (the analyst
  // following a search for "United States" into the Fig. 3 cube), checked
  // against the core::Session path.
  {
    const TaskTemplate task = Query1Task();
    const TaskReference reference = ComputeReference(*serving.seda, task);
    auto query = seda::query::ParseQuery(task.query);
    std::vector<std::vector<std::string>> picks;
    for (const std::string& path : task.term_paths) picks.push_back({path});
    auto refined = query.ok() ? seda::core::Snapshot::RefineContexts(
                                    query.value(), picks)
                              : query;
    seda::obs::Trace trace = log.Start("drill_down");
    const double total =
        refined.ok() ? ReplayDrillDown(*serving.seda->snapshot(),
                                       serving.seda->catalog(), task,
                                       refined.value(), trace.root(),
                                       &report.counts)
                     : -1;
    log.Keep(&trace);
    ++result->attempted;
    if (!reference.ok || total != reference.cell_total) {
      ++result->failed;
      result->Fail("traced drill-down differs from reference");
    }
  }

  // Open loop for generator lateness and CPU per search.
  const size_t open_count = static_cast<size_t>(kRatePerS * config.seconds);
  const double cpu_start = ProcessCpuMs();
  std::vector<Sent> sent = OpenLoop(serving.port(), script, open_count, result);
  report.cpu_ms_per_op =
      (ProcessCpuMs() - cpu_start) / static_cast<double>(sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    report.late_ms.push_back(sent[i].late_ms);
    report.op_wall_ms.push_back(sent[i].latency_ms);
    ++result->attempted;
    if (!sent[i].ok ||
        !RankingMatches(sent[i].response, refs.at(script[i].query))) {
      ++result->failed;
      result->Fail("open-loop search differs from reference: " +
                   script[i].query);
    }
  }

  FinishFirstCommitTrace(docs, *serving.seda, image, "keyword", config, &log,
                         &report, result);
}

}  // namespace

RunResult RunKeyword(const RunConfig& config) {
  RunResult result;
  std::vector<XmlDoc> docs = FactbookXml(config.seed);
  for (XmlDoc& doc : MondialXml(config.seed)) docs.push_back(std::move(doc));
  const size_t doc_count = docs.size();
  const uint64_t xml_bytes = TotalBytes(docs);
  const std::string image = config.work_dir + "/keyword.img";
  const size_t count = static_cast<size_t>(kRatePerS * config.seconds);
  std::fprintf(stderr,
               "keyword: %zu docs, %.2f MB XML, %zu requests at %.0f/s\n",
               doc_count, static_cast<double>(xml_bytes) / 1e6, count,
               kRatePerS);

  const int reps = config.trace ? 1 : kSetupReps;
  std::vector<double> setup_seconds;
  std::vector<BuildTimes> builds;
  std::vector<double> open_samples;
  std::vector<Request> script;
  std::unordered_map<std::string, std::string> references;
  Built built;
  for (int rep = 0; rep < reps; ++rep) {
    const bool last = rep == reps - 1;
    built.serving.Stop();
    built = Built{};
    // Off the clock, on the builder — never on the served instance, which
    // must stay cold: the query script (from the vocabulary) and the
    // reference rankings.
    auto off_clock = [&](const seda::core::Seda& builder) {
      if (rep == 0) {
        script = MakeScript(Vocabulary(*builder.snapshot()), config.seed,
                            std::max(count, kTraceRequests));
      }
      if (last) references = References(*builder.snapshot(), script, &result);
    };
    seda::Status status = SetUp(&docs, last && !config.trace, image,
                                static_cast<unsigned>(rep), off_clock, &built);
    if (!status.ok()) {
      result.Fail("keyword set-up: " + status.ToString());
      return result;
    }
    setup_seconds.push_back(built.setup_s);
    builds.push_back(built.build);
    if (!config.trace) SampleOpenMs(image, kOpenReps, &open_samples, &result);
  }
  const uint64_t image_bytes = FileBytes(image);
  ReleaseFreeHeap();
  double rss_mb = ResidentMb();

  if (config.trace) {
    ReplayKeyword(built, script, references, docs, image, config, &result);
    built.serving.Stop();
    std::remove(image.c_str());
    return result;
  }

  const Clock::time_point start = Clock::now();
  const double cpu_start = ProcessCpuMs();
  std::vector<Sent> sent =
      OpenLoop(built.serving.port(), script, count, &result);
  const double cpu_ms = ProcessCpuMs() - cpu_start;
  const double wall_s = Ms(start, Clock::now()) / 1000.0;
  rss_mb = std::max(rss_mb, ResidentMb());
  // The worker's busy share: summed Handle() time of the searches over the
  // phase's wall time (the service has served nothing else since Start).
  double handle_ms = 0;
  for (const auto& method : built.serving.service->Statz({}).methods) {
    if (method.method == "search") handle_ms += method.total_ms;
  }
  built.serving.Stop();
  built = Built{};
  SampleOpenMs(image, 2 * kOpenReps, &open_samples, &result);
  // More set-ups after the timed phase, from the same inputs generated
  // again off the clock, so that setup_s does not rest on one stretch of
  // the run.
  docs = FactbookXml(config.seed);
  for (XmlDoc& doc : MondialXml(config.seed)) docs.push_back(std::move(doc));
  for (int rep = 0; rep < kLateSetupReps; ++rep) {
    Built late;
    seda::Status status =
        SetUp(&docs, false, image, static_cast<unsigned>(kSetupReps + rep),
              {}, &late);
    if (!status.ok()) {
      result.Fail("keyword set-up: " + status.ToString());
      return result;
    }
    late.serving.Stop();
    setup_seconds.push_back(late.setup_s);
    builds.push_back(late.build);
    SampleOpenMs(image, kOpenReps, &open_samples, &result);
  }
  const double open_ms = Median(open_samples);
  std::remove(image.c_str());

  std::vector<double> latencies, late;
  size_t ok = 0, failed = 0, shed = 0;
  for (size_t i = 0; i < sent.size(); ++i) {
    const Sent& s = sent[i];
    ++result.attempted;
    late.push_back(s.late_ms);
    if (s.shed) ++shed;
    if (!s.ok || !RankingMatches(s.response, references[script[i].query])) {
      ++result.failed;
      if (++failed <= 5) {
        result.Fail("search " + script[i].query + ": " +
                    (s.ok ? "ranking differs from reference"
                          : s.response.substr(0, 200)));
      }
      latencies.push_back(1e9);  // a failed request misses any limit
      continue;
    }
    ++ok;
    latencies.push_back(s.latency_ms);
  }
  if (failed > 0) result.correct = false;
  // Wall-clock latencies go to stderr only: on a shared virtual machine
  // they follow the host's scheduling of this machine's processors (see
  // METRICS.md), so they are no bounded metric.
  std::fprintf(stderr,
               "keyword timed phase: sent %zu, succeeded %zu, failed %zu, "
               "shed %zu in %.2f s; generator late p99 %.3f ms; search p50 "
               "%.3f ms, p90 %.3f ms, p99 %.3f ms (%zu beyond); worker busy "
               "%.3f of the time\n",
               sent.size(), ok, failed, shed, wall_s, Percentile(late, 0.99),
               Percentile(latencies, 0.50), Percentile(latencies, 0.90),
               Percentile(latencies, 0.99),
               SamplesBeyond(latencies.size(), 0.99),
               handle_ms / (wall_s * 1000.0));
  result.Set("setup_s", Median(setup_seconds), "s");
  result.Set("op_cpu_ms", cpu_ms / static_cast<double>(sent.size()), "ms");
  SetColdCommitMetrics(builds, doc_count, &result);
  result.Set("open_ms", open_ms, "ms");
  result.Set("rss_mb", rss_mb, "MB");
  result.Set("image_bytes_per_xml_byte",
             static_cast<double>(image_bytes) / static_cast<double>(xml_bytes),
             "ratio");
  return result;
}

}  // namespace sedabench
