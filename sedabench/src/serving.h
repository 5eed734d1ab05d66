// The serving path every workload drives: an opened image behind an
// in-process net::Server on loopback, spoken to over the frame protocol.
#ifndef SEDABENCH_SERVING_H_
#define SEDABENCH_SERVING_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/service.h"
#include "api/wire.h"
#include "core/seda.h"
#include "net/client.h"
#include "net/server.h"

#include "corpus.h"
#include "templates.h"
#include "util.h"

namespace sedabench {

/// Pinned server pools, identical in every workload (recorded in
/// BENCHMARK.json). The engine pools are pinned by BenchOptions().
inline constexpr size_t kIoThreads = 1;
inline constexpr size_t kWorkerThreads = 1;

/// Wall times of one cold build: AddXml of every document, Finalize() (the
/// first commit) and Save().
struct BuildTimes {
  double add_s = 0;
  double finalize_s = 0;
  double save_s = 0;
};

/// Builds `docs` into a fresh Seda with BenchOptions() and saves it to
/// `image`. With `consume` the document texts are moved in (and `docs`
/// cleared afterwards). `off_clock`, if set, runs between Finalize() and
/// Save() on the builder and is not timed. Builder teardown is not timed.
seda::Status BuildImage(
    std::vector<XmlDoc>* docs, bool consume, const std::string& image,
    BuildTimes* times,
    const std::function<void(const seda::core::Seda&)>& off_clock = {});

/// Sets commit_p50_ms (median Finalize) and ingest_docs_per_s (documents
/// over the median AddXml + Finalize time) from a workload's cold builds.
void SetColdCommitMetrics(const std::vector<BuildTimes>& builds, size_t docs,
                          RunResult* result);

/// Appends the times of `reps` reopens of `image` (page-cache Open
/// latency), in ms.
void SampleOpenMs(const std::string& image, int reps,
                  std::vector<double>* samples, RunResult* result);

/// A served instance: Seda (opened from an image), SedaService, Server.
struct Serving {
  std::unique_ptr<seda::core::Seda> seda;
  std::unique_ptr<seda::api::SedaService> service;
  std::unique_ptr<seda::net::Server> server;

  /// Seda::Open(image) + catalog + Server::Start.
  seda::Status Start(const std::string& image);
  /// Server::Stop(); the Seda stays usable.
  void Stop();
  uint16_t port() const { return server->port(); }
};

/// Connects a blocking client to the local server.
seda::Status Connect(seda::net::BlockingClient* client, uint16_t port);

/// One request/response exchange, over the wire or in-process.
using Transport = std::function<seda::Result<std::string>(const std::string&)>;
Transport WireTransport(seda::net::BlockingClient* client);

std::string SearchEnvelope(const std::string& session_id,
                           const std::string& query);

/// True when a response envelope carries status OK (prefix test, cheap
/// enough for the timed phase).
bool ResponseOk(const std::string& response);

/// True when the server refused the request with an `overloaded` frame.
bool IsShed(const std::string& response);

/// One exchange of a task, as recorded for later checks and replay.
struct Exchange {
  std::string method;
  std::string request;
  std::string response;
  double ms = 0;
};

struct TaskResult {
  bool ok = false;
  std::string error;
  double ms = 0;          ///< whole task, client-observed
  double cell_total = 0;  ///< from the cube response
  std::vector<Exchange> exchanges;  ///< filled when `keep` is set
};

/// Runs one Fig. 6 task: create_session, search, refine, complete, cube
/// (with aggregate), close_session. Stops at the first failed step.
TaskResult RunTask(const Transport& call, const TaskTemplate& task, bool keep);

/// The in-process core::Session result of a task, for the cube check.
struct TaskReference {
  bool ok = false;
  double cell_total = 0;
};
TaskReference ComputeReference(const seda::core::Seda& seda,
                               const TaskTemplate& task);

seda::Result<seda::olap::AggFn> AggFnByName(const std::string& name);

}  // namespace sedabench

#endif  // SEDABENCH_SERVING_H_
