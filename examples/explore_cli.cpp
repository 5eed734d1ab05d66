// Exploration CLI as a thin wire client of api::SedaService — the textual
// equivalent of the paper's GUI (Figures 4/5/7), speaking the service's JSON
// request/response schema end to end, which doubles as a manual smoke tool
// for the wire format.
//
// Modes:
//   build/examples/explore_cli
//       default demo session: scripted queries sent as JSON envelopes
//   build/examples/explore_cli '(*, "Canada") (GDP, *)'
//       each argument is a query; the CLI prints the JSON request it sends
//       and a rendered summary of the JSON response it gets back
//   echo '{"method":"search","query":"(name, *)"}' | build/examples/explore_cli -
//       with "-", reads one JSON request envelope per stdin line and writes
//       one JSON response per line to stdout (the service wire, verbatim)
//   echo '{"method":"statz"}' | build/examples/explore_cli --connect 127.0.0.1:7474
//       same stdin/stdout wire, but each envelope is framed and sent to a
//       running seda_server over TCP (src/net/) instead of an in-process
//       service — the CLI becomes a true network client
//
// Observability flags (local modes):
//   --trace     request "trace": true and pretty-print the span tree of each
//               search (total vs self time per span, engine counters)
//   --statz     after the queries, pretty-print the statz envelope
//   --slowlog   sample every request into the slow-query log (in-process
//               only) and pretty-print it after the queries
//   --columns   print the schema-inferred columnar projections of the
//               loaded snapshot (path, type, support, null fraction)
//
// Every query below flows through SedaService::Handle() — parse, execute,
// encode — exactly the path a network frontend would use.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "core/seda.h"
#include "data/generators.h"
#include "net/client.h"

namespace {

/// Pretty-prints the snapshot's schema-inferred columnar projections
/// (src/column/): one line per column with its inferred type, document
/// support and null fraction (documents without a value for the path).
void PrintColumns(const seda::core::Snapshot& snap) {
  const seda::column::ColumnStore& columns = snap.columns();
  std::printf("--- columnar projections: %zu columns over %zu docs ---\n",
              columns.size(), columns.doc_count());
  std::printf("  %-60s %-7s %5s %7s %6s %s\n", "path", "type", "rows",
              "support", "nulls", "dict");
  for (const auto& col : columns.columns()) {
    const double support = columns.doc_count() == 0
                               ? 0.0
                               : static_cast<double>(col.docs_present()) /
                                     static_cast<double>(columns.doc_count());
    std::printf("  %-60s %-7s %5zu %6.1f%% %5.1f%% %zu\n", col.path().c_str(),
                seda::column::ValueTypeName(col.type()), col.rows(),
                100.0 * support, 100.0 * (1.0 - support), col.dict_size());
  }
  std::printf("\n");
}

/// Renders the service's JSON search response like the paper's three panels.
void PrintPanels(const seda::api::SearchResponseDto& response) {
  if (!response.status.ok()) {
    std::printf("error: %s: %s\n\n", response.status.code.c_str(),
                response.status.message.c_str());
    return;
  }
  std::printf("--- top-k (epoch %llu, %.1f ms%s) ---\n",
              static_cast<unsigned long long>(response.stats.epoch),
              response.stats.elapsed_ms,
              response.stats.deadline_exceeded ? ", DEADLINE EXCEEDED" : "");
  size_t shown = 0;
  for (const auto& tuple : response.topk) {
    if (shown++ >= 5) break;
    std::printf("  score=%.6f [", tuple.score);
    for (size_t i = 0; i < tuple.nodes.size(); ++i) {
      const auto& node = tuple.nodes[i];
      std::printf("%sn%u@%s='%s'", i > 0 ? ", " : "", node.doc,
                  node.dewey.c_str(), node.content.c_str());
    }
    std::printf("]\n");
  }
  std::printf("--- contexts (top 5 per term, by collection frequency) ---\n");
  for (const auto& bucket : response.contexts) {
    std::printf("  %s\n", bucket.term.c_str());
    size_t count = 0;
    for (const auto& entry : bucket.entries) {
      if (count++ >= 5) {
        std::printf("    ... (%zu total)\n", bucket.entries.size());
        break;
      }
      std::printf("    %-60s docs=%llu\n", entry.path.c_str(),
                  static_cast<unsigned long long>(entry.doc_count));
    }
  }
  std::printf("--- connections (top 5, by index) ---\n");
  size_t conn_shown = 0;
  for (size_t i = 0; i < response.connections.size(); ++i) {
    if (conn_shown++ >= 5) break;
    const auto& conn = response.connections[i];
    std::printf("  [#%zu %llu<->%llu] %s ", i,
                static_cast<unsigned long long>(conn.term_a),
                static_cast<unsigned long long>(conn.term_b),
                conn.from_path.c_str());
    for (const auto& step : conn.steps) {
      std::printf("%s%s%s ", step.move == "up" ? "^" : step.move == "down" ? "v" : "~",
                  step.label.empty() ? "" : (step.label + ">").c_str(),
                  step.path.c_str());
    }
    std::printf("%s\n", conn.false_positive ? "  (false positive)" : "");
  }
  std::printf("\n");
}

/// Pretty-prints a span tree: per span, total time, self time (total minus
/// direct children) and any engine counters attached to it.
void PrintSpanTree(const seda::obs::SpanNode& node, int depth) {
  std::printf("  %*s%-*s total=%6lluus self=%6lluus", depth * 2, "",
              24 - depth * 2, node.name.c_str(),
              static_cast<unsigned long long>(node.elapsed_us),
              static_cast<unsigned long long>(node.SelfUs()));
  for (const auto& counter : node.counters) {
    std::printf("  %s=%llu", counter.first.c_str(),
                static_cast<unsigned long long>(counter.second));
  }
  std::printf("\n");
  for (const auto& child : node.children) PrintSpanTree(child, depth + 1);
}

void PrintTrace(const seda::obs::SpanNode& trace) {
  if (trace.name.empty()) return;
  std::printf("--- trace ---\n");
  PrintSpanTree(trace, 0);
  std::printf("\n");
}

/// Human-readable statz: the same numbers `/metrics` exposes, as a table.
void PrintStatz(const seda::api::StatzResponse& statz) {
  std::printf("=== statz ===\n");
  std::printf("epoch=%llu sessions=%llu (created=%llu evicted=%llu) "
              "uptime=%.0fms\n",
              static_cast<unsigned long long>(statz.epoch),
              static_cast<unsigned long long>(statz.sessions),
              static_cast<unsigned long long>(statz.sessions_created),
              static_cast<unsigned long long>(statz.sessions_evicted),
              statz.uptime_ms);
  std::printf("%-16s %8s %7s %9s %12s %10s\n", "method", "count", "errors",
              "deadline", "total_ms", "avg_ms");
  for (const auto& method : statz.methods) {
    if (method.count == 0) continue;
    std::printf("%-16s %8llu %7llu %9llu %12.3f %10.3f\n",
                method.method.c_str(),
                static_cast<unsigned long long>(method.count),
                static_cast<unsigned long long>(method.errors),
                static_cast<unsigned long long>(method.deadline_exceeded),
                method.total_ms, method.total_ms / method.count);
  }
  const auto& c = statz.cumulative;
  std::printf("engine: candidates=%llu docs_considered=%llu docs_scored=%llu "
              "tuples_scored=%llu postings_advanced=%llu docs_skipped=%llu\n\n",
              static_cast<unsigned long long>(c.candidates_total),
              static_cast<unsigned long long>(c.docs_considered),
              static_cast<unsigned long long>(c.docs_scored),
              static_cast<unsigned long long>(c.tuples_scored),
              static_cast<unsigned long long>(c.postings_advanced),
              static_cast<unsigned long long>(c.docs_skipped));
}

/// Human-readable slow-query log, newest first, traces inline.
void PrintSlowlog(const seda::api::SlowlogResponse& slowlog) {
  std::printf("=== slow-query log (%llu logged, %zu retained) ===\n",
              static_cast<unsigned long long>(slowlog.total_logged),
              slowlog.entries.size());
  for (const auto& entry : slowlog.entries) {
    std::printf("#%llu %s %.3fms (threshold %llums, status %s)%s%s %s\n",
                static_cast<unsigned long long>(entry.seq),
                entry.method.c_str(), entry.elapsed_ms,
                static_cast<unsigned long long>(entry.threshold_ms),
                entry.status_code.c_str(), entry.sampled ? " [sampled]" : "",
                entry.deadline_exceeded ? " [deadline]" : "",
                entry.detail.c_str());
    if (!entry.trace.name.empty()) PrintSpanTree(entry.trace, 1);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--connect") == 0) {
    // Network mode: stdin JSON envelopes -> SEDA frames over TCP -> stdout
    // JSON responses, one per line. Exactly the "-" wire, remoted.
    const std::string target = argv[2];
    const size_t colon = target.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "--connect expects host:port, got '%s'\n",
                   target.c_str());
      return 2;
    }
    seda::net::BlockingClient client;
    const seda::Status connected =
        client.Connect(target.substr(0, colon),
                       static_cast<uint16_t>(
                           std::atoi(target.c_str() + colon + 1)));
    if (!connected.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   connected.ToString().c_str());
      return 1;
    }
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      auto response = client.Call(line);
      if (!response.ok()) {
        std::fprintf(stderr, "call failed: %s\n",
                     response.status().ToString().c_str());
        return 1;
      }
      std::printf("%s\n", response.value().c_str());
      std::fflush(stdout);
    }
    return 0;
  }

  bool trace = false;
  bool show_statz = false;
  bool show_slowlog = false;
  bool show_columns = false;
  std::vector<std::string> queries;
  bool pipe_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-") pipe_mode = true;
    else if (arg == "--trace") trace = true;
    else if (arg == "--statz") show_statz = true;
    else if (arg == "--slowlog") show_slowlog = true;
    else if (arg == "--columns") show_columns = true;
    else queries.push_back(arg);
  }
  if (!pipe_mode) std::printf("loading synthetic World Factbook...\n");

  seda::core::Seda seda;
  seda::data::WorldFactbookGenerator::Options options;
  options.scale = 0.15;
  seda::data::WorldFactbookGenerator(options).Populate(seda.mutable_store());
  if (!seda.Finalize().ok()) return 1;
  seda::api::ServiceOptions service_options;
  if (show_slowlog) {
    // Sample every request so the demo queries land in the log with their
    // span trees even though none of them is actually slow.
    service_options.trace_sample_every_n = 1;
  }
  seda::api::SedaService service(&seda, service_options);

  if (pipe_mode) {
    // Wire mode: stdin JSON envelopes in, stdout JSON responses out.
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      std::printf("%s\n", service.Handle(line).c_str());
      std::fflush(stdout);
    }
    return 0;
  }

  auto created =
      service.CreateSession(seda::api::CreateSessionRequest{});
  if (!created.status.ok()) {
    std::printf("create_session failed: %s\n", created.status.message.c_str());
    return 1;
  }
  std::printf("loaded %zu docs; session '%s' pinned to epoch %llu\n\n",
              seda.snapshot()->store().DocumentCount(),
              created.session_id.c_str(),
              static_cast<unsigned long long>(created.epoch));
  if (show_columns) PrintColumns(*seda.snapshot());

  if (queries.empty()) {
    queries = {
        R"((*, "United States"))",
        R"((*, "United States") AND (trade_country, *))",
        R"((trade_country, "China") AND (percentage, *))",
        R"((name, *) AND (GDP_ppp, *))",
    };
  }

  for (const std::string& text : queries) {
    seda::api::SearchRequest request;
    request.session_id = created.session_id;
    request.query = text;
    request.trace = trace;
    // The CLI is a wire client: show the exact JSON it sends, then Handle()
    // it like any other transport would.
    seda::api::Json envelope =
        seda::api::Json::Parse(seda::api::Encode(request)).value();
    envelope.Set("method", seda::api::Json::Str("search"));
    const std::string request_json = envelope.Write();
    std::printf("==========================================================\n");
    std::printf("request> %s\n", request_json.c_str());
    auto decoded =
        seda::api::DecodeSearchResponseDto(service.Handle(request_json));
    if (!decoded.ok()) {
      std::printf("bad wire response: %s\n", decoded.status().ToString().c_str());
      return 1;
    }
    PrintPanels(decoded.value());
    if (trace) PrintTrace(decoded.value().trace);
  }

  if (show_statz) {
    auto statz = seda::api::DecodeStatzResponse(
        service.Handle(R"({"method":"statz"})"));
    if (statz.ok()) PrintStatz(statz.value());
  }
  if (show_slowlog) {
    auto slowlog = seda::api::DecodeSlowlogResponse(
        service.Handle(R"({"method":"slowlog"})"));
    if (slowlog.ok()) PrintSlowlog(slowlog.value());
  }
  return 0;
}
