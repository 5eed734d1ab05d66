// Traced-run helpers: the benchmark calls each layer's public entry point in
// the order the service composes them, with a seda::obs span around every
// call, and sums the counts those calls return.
#ifndef SEDABENCH_LAYERS_H_
#define SEDABENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/snapshot.h"
#include "obs/trace.h"
#include "serving.h"
#include "util.h"
#include "workloads.h"

namespace sedabench {

/// The traced run's spans: one seda::obs::Trace per operation (a task, a
/// search, a commit, a save), detached when the operation ends and kept in
/// memory until the run writes them out. A layer's self time is its span
/// minus its child spans (SpanNode::SelfUs).
class SpanLog {
 public:
  /// A disabled log hands out disabled traces, whose spans cost nothing, so
  /// replay code runs unchanged with tracing off (the untraced leg of
  /// trace_overhead_ratio).
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// Opens an operation's trace; `root` must be a string literal.
  seda::obs::Trace Start(const char* root) const {
    return enabled_ ? seda::obs::Trace(root) : seda::obs::Trace();
  }
  /// Closes `trace` and keeps its span tree as the next operation.
  void Keep(seda::obs::Trace* trace);

  /// Per span name: that name's self time summed within each operation, one
  /// value per operation that has such a span, in ms.
  std::map<std::string, std::vector<double>> SelfMsPerOp() const;
  /// Per operation: span name -> summed self time in ms.
  std::vector<std::map<std::string, double>> SelfMsByOp() const;

  /// Writes one JSON line per operation ({"op": i, "trace": span tree}).
  bool Write(const std::string& path) const;
  size_t size() const { return trees_.size(); }

 private:
  bool enabled_;
  std::vector<seda::obs::SpanNode> trees_;
};

/// Per-layer counts summed over a traced replay.
struct LayerCounts {
  std::map<std::string, double> sums;
  void Add(const std::string& name, double value) { sums[name] += value; }
  double Get(const std::string& name) const {
    auto it = sums.find(name);
    return it == sums.end() ? 0 : it->second;
  }
};

/// core::Snapshot::Search as its layers: exec.candidates, topk.scan,
/// summary.context, summary.connection (query.parse is the caller's span,
/// since refine rewrites a parsed query instead).
seda::Result<seda::core::SearchResponse> ReplaySearch(
    const seda::core::Snapshot& snapshot, const seda::query::Query& query,
    seda::obs::TraceSpan* parent, LayerCounts* counts);

/// The api layer's share of one exchange: api.decode (envelope parse +
/// request DTO) and api.encode (response DTO to JSON), as Handle() does.
void ReplayApi(const Exchange& exchange, seda::obs::TraceSpan* parent);

/// Signature of a ranking (nodes, scores, connection sizes) for equality
/// checks between the served responses and in-process references.
std::string RankingSignature(const std::vector<seda::topk::ScoredTuple>& topk);
std::string RankingSignature(const std::vector<seda::api::TupleDto>& topk);

/// What a traced run gathers besides span self times. "Per operation"
/// means per task (ingest reader, replayed pool task), per search (keyword)
/// or per commit (commit stages).
struct LayerReport {
  LayerCounts counts;
  std::vector<double> rtt_ms;  ///< per op: sum of client Calls
  double response_bytes = 0;
  double ops = 0;
  double shed = 0;
  double exchanges = 0;
  std::vector<double> first_touch_search_ms;  ///< first use since Open
  std::vector<double> warm_search_ms;         ///< repeats
  std::vector<double> commit_ms;              ///< the real commits
  std::vector<double> commit_unattributed_ms;
  double parse_bytes = 0;
  double parse_ms = 0;
  std::vector<double> late_ms;  ///< generator lateness
  /// Client-observed operation latencies with tracing off: the open-loop
  /// searches (keyword, from their due time) or the cycle's reader tasks
  /// (ingest).
  std::vector<double> op_wall_ms;
  std::vector<double> connection_first_ms;  ///< cold connection summaries
  std::vector<double> read_during_commit_ms;
  std::vector<double> read_idle_ms;
  double trace_overhead_ratio = 0;
  double cpu_ms_per_op = 0;
  std::map<std::string, double> section_bytes;
  double dataguides = 0;
};

/// A task's drill-down after its searches, as the complete and cube
/// handlers compose it: twig.complete, cube.build and olap.aggregate spans
/// over the `refined` query. Returns the aggregate's cell total, or -1 when
/// a step fails.
double ReplayDrillDown(const seda::core::Snapshot& snapshot,
                       const seda::cube::Catalog& catalog,
                       const TaskTemplate& task,
                       const seda::query::Query& refined,
                       seda::obs::TraceSpan* parent, LayerCounts* counts);

/// Replays every pool task three ways on the served epoch — over the wire
/// (net.call spans), through SedaService::Handle in-process (api.handle
/// spans), and as the layer calls Handle() composes (api, query, exec,
/// topk, summary, twig, cube and olap spans) — checking each against its
/// reference. The three legs share the served epoch, so call this on a
/// warm epoch: a leg must not pay a first touch the others skip. Pass 0 is
/// traced into `log` and `report`; pass 1 repeats it untraced. Returns the
/// traced / untraced wall-time ratio.
double ReplayTasks(Serving& serving, seda::net::BlockingClient& client,
                   const std::vector<TaskTemplate>& pool,
                   const std::vector<TaskReference>& references, SpanLog* log,
                   LayerReport* report, RunResult* result);

/// The paper's Query 1 connection summary on `snapshot` the first time the
/// epoch computes one (its dataguide connection cache still cold), in ms.
double ColdConnectionSummaryMs(const seda::core::Snapshot& snapshot,
                               RunResult* result);

/// Re-runs the stages of one commit standalone, in the order Seda::Commit
/// composes them, each under a child span of `parent`: xml.parse (per
/// document), graph.resolve, graph.csr_build, text.index_extend,
/// dataguide.extend, column.infer. `base` null means the first commit (cold
/// builds); otherwise the stages extend `base` by `docs`. Returns the summed
/// stage time in ms.
double ReplayCommitStages(const seda::core::Snapshot* base,
                          const std::vector<const XmlDoc*>& docs,
                          const seda::core::SedaOptions& options,
                          seda::obs::TraceSpan* parent, LayerReport* report);

/// persist.save (three saves of the served epoch) and the image's section
/// sizes; removes `path` afterwards.
void MeasurePersist(const seda::core::Seda& seda, const std::string& path,
                    SpanLog* log, LayerReport* report, RunResult* result);

/// Prints every per-layer metric of BENCHMARK.json into `result`. Per
/// operation: net.transport_self = net.call - api.handle, and
/// api.handle_self = api.handle - the layer spans Handle() is made of.
void EmitLayerMetrics(const SpanLog& log, const LayerReport& report,
                      RunResult* result);

/// Writes the run's spans to <work_dir>/spans-<workload>-<seed>.jsonl.
void DumpSpans(const SpanLog& log, const std::string& workload,
               const RunConfig& config);

/// The end of a traced run whose only commit was Finalize (keyword): the
/// first commit's stages re-run standalone on `docs` beside Finalize
/// itself, the cold Query 1 connection summary on a fresh Open of `image`,
/// the persist layer, then every per-layer metric and the span dump.
void FinishFirstCommitTrace(const std::vector<XmlDoc>& docs,
                            const seda::core::Seda& seda,
                            const std::string& image,
                            const std::string& workload,
                            const RunConfig& config, SpanLog* log,
                            LayerReport* report, RunResult* result);

}  // namespace sedabench

#endif  // SEDABENCH_LAYERS_H_
