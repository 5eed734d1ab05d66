#include "serving.h"

#include <cstdlib>
#include <cstring>

namespace sedabench {

using seda::Result;
using seda::Status;
using seda::api::Json;

Status BuildImage(std::vector<XmlDoc>* docs, bool consume,
                  const std::string& image, BuildTimes* times,
                  const std::function<void(const seda::core::Seda&)>& off_clock) {
  {
    seda::core::Seda builder;
    Clock::time_point start = Clock::now();
    for (XmlDoc& doc : *docs) {
      auto queued = consume ? builder.AddXml(std::move(doc.text), doc.name)
                            : builder.AddXml(doc.text, doc.name);
      if (!queued.ok()) return queued.status();
    }
    Clock::time_point added = Clock::now();
    Status status = builder.Finalize(BenchOptions());
    Clock::time_point finalized = Clock::now();
    if (!status.ok()) return status;
    times->add_s = Ms(start, added) / 1000.0;
    times->finalize_s = Ms(added, finalized) / 1000.0;
    if (off_clock) off_clock(builder);
    start = Clock::now();
    status = builder.Save(image);
    times->save_s = Ms(start, Clock::now()) / 1000.0;
    if (!status.ok()) return status;
  }
  if (consume) docs->clear();
  return Status::OK();
}

void SetColdCommitMetrics(const std::vector<BuildTimes>& builds, size_t docs,
                          RunResult* result) {
  std::vector<double> finalize_ms, ingest_s;
  for (const BuildTimes& build : builds) {
    finalize_ms.push_back(build.finalize_s * 1000.0);
    ingest_s.push_back(build.add_s + build.finalize_s);
  }
  result->Set("commit_p50_ms", Median(finalize_ms), "ms");
  result->Set("ingest_docs_per_s", static_cast<double>(docs) / Median(ingest_s),
              "1/s");
}

void SampleOpenMs(const std::string& image, int reps,
                  std::vector<double>* samples, RunResult* result) {
  for (int i = 0; i < reps; ++i) {
    PinnedToCpu pin(static_cast<unsigned>(i));
    seda::core::Seda reopened;
    Clock::time_point start = Clock::now();
    Status status = reopened.Open(image);
    samples->push_back(Ms(start, Clock::now()));
    if (!status.ok()) result->Fail("reopen: " + status.ToString());
  }
}

Status Serving::Start(const std::string& image) {
  seda = std::make_unique<seda::core::Seda>();
  Status opened = seda->Open(image);
  if (!opened.ok()) return opened;
  DefineCatalog(seda.get());
  service = std::make_unique<seda::api::SedaService>(seda.get());
  seda::net::ServerOptions options;
  options.io_threads = kIoThreads;
  options.worker_threads = kWorkerThreads;
  server = std::make_unique<seda::net::Server>(service.get(), options);
  return server->Start();
}

void Serving::Stop() {
  if (server != nullptr) server->Stop();
}

Status Connect(seda::net::BlockingClient* client, uint16_t port) {
  return client->Connect("127.0.0.1", port, /*recv_timeout_ms=*/60000);
}

Transport WireTransport(seda::net::BlockingClient* client) {
  return [client](const std::string& request) { return client->Call(request); };
}

namespace {

std::string Envelope(const char* method, Json body) {
  body.Set("method", Json::Str(method));
  return body.Write();
}

double NumberAfter(const std::string& text, const char* key) {
  size_t at = text.rfind(key);
  if (at == std::string::npos) return 0;
  return std::strtod(text.c_str() + at + std::strlen(key), nullptr);
}

}  // namespace

std::string SearchEnvelope(const std::string& session_id,
                           const std::string& query) {
  seda::api::SearchRequest request;
  request.session_id = session_id;
  request.query = query;
  return Envelope("search", seda::api::ToJson(request));
}

bool ResponseOk(const std::string& response) {
  return response.rfind("{\"status\":{\"code\":\"OK\"", 0) == 0;
}

bool IsShed(const std::string& response) {
  return response.find("\"overloaded") != std::string::npos;
}

TaskResult RunTask(const Transport& call, const TaskTemplate& task,
                   bool keep) {
  TaskResult result;
  Clock::time_point task_start = Clock::now();
  std::string response;
  auto step = [&](const char* method, const std::string& request) {
    Clock::time_point start = Clock::now();
    Result<std::string> reply = call(request);
    double ms = Ms(start, Clock::now());
    if (!reply.ok()) {
      result.error = std::string(method) + ": " + reply.status().ToString();
      return false;
    }
    response = std::move(reply).value();
    if (keep) result.exchanges.push_back({method, request, response, ms});
    if (!ResponseOk(response)) {
      result.error = std::string(method) + ": " + response.substr(0, 200);
      return false;
    }
    return true;
  };

  if (!step("create_session",
            Envelope("create_session",
                     seda::api::ToJson(seda::api::CreateSessionRequest{})))) {
    return result;
  }
  std::string session_id;
  {
    auto parsed = Json::Parse(response);
    const Json* id = parsed.ok() ? parsed.value().Find("session_id") : nullptr;
    if (id == nullptr) {
      result.error = "create_session: no session id";
      return result;
    }
    session_id = id->AsString();
  }

  seda::api::RefineRequest refine;
  refine.session_id = session_id;
  for (const std::string& path : task.term_paths) {
    refine.chosen_paths.push_back({path});
  }
  seda::api::CompleteRequest complete;
  complete.session_id = session_id;
  complete.term_paths = task.term_paths;
  seda::api::CubeRequest cube;
  cube.session_id = session_id;
  cube.group_dims = task.group_dims;
  cube.agg_fn = task.agg_fn;
  cube.measure = task.measure;

  bool ok = step("search", SearchEnvelope(session_id, task.query)) &&
            step("refine", Envelope("refine", seda::api::ToJson(refine))) &&
            step("complete",
                 Envelope("complete", seda::api::ToJson(complete))) &&
            step("cube", Envelope("cube", seda::api::ToJson(cube)));
  if (ok) result.cell_total = NumberAfter(response, "\"cell_total\":");
  seda::api::CloseSessionRequest close{session_id};
  bool closed =
      step("close_session", Envelope("close_session", seda::api::ToJson(close)));
  result.ok = ok && closed;
  result.ms = Ms(task_start, Clock::now());
  return result;
}

Result<seda::olap::AggFn> AggFnByName(const std::string& name) {
  using seda::olap::AggFn;
  if (name == "sum") return AggFn::kSum;
  if (name == "count") return AggFn::kCount;
  if (name == "avg") return AggFn::kAvg;
  if (name == "min") return AggFn::kMin;
  if (name == "max") return AggFn::kMax;
  return Status::InvalidArgument("unknown aggregate " + name);
}

TaskReference ComputeReference(const seda::core::Seda& seda,
                               const TaskTemplate& task) {
  TaskReference reference;
  auto session = seda.NewSession();
  if (!session.ok() || !session->Search(task.query).ok()) return reference;
  std::vector<std::vector<std::string>> picks;
  for (const std::string& path : task.term_paths) picks.push_back({path});
  if (!session->RefineContexts(picks).ok()) return reference;
  auto complete = session->CompleteResults(task.term_paths, {});
  if (!complete.ok()) return reference;
  auto schema = session->BuildCube(complete.value());
  if (!schema.ok()) return reference;
  auto cube = session->ToOlapCube(schema.value());
  auto fn = AggFnByName(task.agg_fn);
  if (!cube.ok() || !fn.ok()) return reference;
  auto cuboid = cube->Aggregate(task.group_dims, fn.value(), task.measure);
  if (!cuboid.ok()) return reference;
  reference.ok = true;
  reference.cell_total = cuboid->Total();
  return reference;
}

}  // namespace sedabench
