// ingest: writes beside reads. The served image holds the early Factbook
// releases (2002-2004); a writer stages the later releases (2005-2007, the
// GDP -> GDP_ppp schema change) as fixed-size AddXml batches and commits
// them back to back, while one reader client runs a one-term Fig. 6 loop
// over the GDP_ppp fact the later releases introduce (search, refine,
// complete, cube summed by year) over and over, each on a new session
// pinning the then-current epoch. The reader's query has one term on
// purpose: a multi-term search on a fresh epoch pays a cold dataguide
// connection search of 0.7-3 s whose size depends on the seed's data, which
// would make the read latency a property of the seed. The traced run
// reports that cost as summary.connection_first_ms instead. A cycle is one pass over the later releases from a
// freshly opened base image; cycles repeat until the run's seconds are
// used, so every cycle does identical, count-based work. At the end the
// final epoch is saved and reopened repeatedly. The cost
// sits in the write-path layers (xml parse, text index extend, graph and
// CSR rebuild, dataguide extend, column inference, persist).
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "corpus.h"
#include "layers.h"
#include "persist/reader.h"
#include "serving.h"
#include "templates.h"
#include "workloads.h"

namespace sedabench {

namespace {

/// Documents per commit: the 801 later-release documents make 9 commits.
constexpr size_t kBatchDocs = 89;
constexpr int kFirstLaterYear = 2005;

int YearOf(const std::string& doc_name) {
  // "factbook-2005-12" and "factbook-territory-2005-3": the year is the
  // second-to-last dash-separated field.
  size_t last = doc_name.rfind('-');
  size_t before = last == std::string::npos || last == 0
                      ? std::string::npos
                      : doc_name.rfind('-', last - 1);
  if (before == std::string::npos) return 0;
  return std::atoi(doc_name.c_str() + before + 1);
}

struct Reader {
  double ms = 0;
  bool ok = false;
  std::string error;
  std::vector<double> search_ms;
  bool during_commit = false;  ///< the writer was committing throughout
  bool writer_idle = false;    ///< the writer was waiting throughout
};

struct Cycle {
  std::vector<double> commit_ms;
  double process_cpu_ms = 0;
  double writer_cpu_ms = 0;
  double writer_s = 0;
  size_t docs = 0;
  double wall_s = 0;
  std::vector<Reader> reads;
  std::vector<double> gaps_ms;  ///< reader's gap between tasks
};

/// Runs one cycle on `serving`: the writer commits `later` in kBatchDocs
/// batches on this thread while one reader thread runs `task` repeatedly.
/// The reader starts at the first commit, so it only meets commit-built
/// epochs (the opened base epoch is colder still: its postings are lazy).
/// With `idle_reads` > 0 (the traced run) the writer waits after each
/// commit until the reader has finished that many tasks with the writer
/// idle, so reads during commits can be compared with reads of the same
/// epochs between commits.
seda::Status RunCycle(Serving& serving, const std::vector<XmlDoc>& later,
                      const TaskTemplate& task, size_t idle_reads,
                      Cycle* cycle) {
  std::atomic<bool> writing{true};
  std::atomic<bool> committed_once{false};
  std::atomic<bool> writer_busy{true};
  std::atomic<size_t> idle_done{0};
  std::atomic<bool> reader_running{true};
  std::mutex reads_mu;
  seda::Status reader_status;
  const Clock::time_point start = Clock::now();
  std::thread reader([&] {
    seda::net::BlockingClient client;
    seda::Status status = Connect(&client, serving.port());
    if (!status.ok()) {
      reader_status = status;
      reader_running = false;
      return;
    }
    Transport call = WireTransport(&client);
    while (!committed_once.load() && writing.load()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    Clock::time_point previous_end = Clock::now();
    while (writing.load()) {
      Clock::time_point task_start = Clock::now();
      const bool busy_at_start = writer_busy.load();
      TaskResult result = RunTask(call, task, true);
      const bool busy_at_end = writer_busy.load();
      Reader read{result.ms, result.ok, result.error, {},
                  busy_at_start && busy_at_end,
                  !busy_at_start && !busy_at_end};
      for (const Exchange& exchange : result.exchanges) {
        if (exchange.method == "search") read.search_ms.push_back(exchange.ms);
      }
      const bool idle = read.writer_idle;
      {
        std::lock_guard<std::mutex> lock(reads_mu);
        cycle->gaps_ms.push_back(Ms(previous_end, task_start));
        cycle->reads.push_back(std::move(read));
      }
      if (idle) ++idle_done;
      previous_end = Clock::now();
    }
    reader_running = false;
  });
  seda::Status status;
  const double process_cpu_start = ProcessCpuMs();
  const double writer_cpu_start = ThreadCpuMs();
  for (size_t begin = 0; begin + kBatchDocs <= later.size() && status.ok();
       begin += kBatchDocs) {
    Clock::time_point staged = Clock::now();
    for (size_t i = begin; i < begin + kBatchDocs && status.ok(); ++i) {
      auto added = serving.seda->AddXml(later[i].text, later[i].name);
      if (!added.ok()) status = added.status();
    }
    Clock::time_point committing = Clock::now();
    if (status.ok()) status = serving.seda->Commit().status();
    Clock::time_point committed = Clock::now();
    committed_once = true;
    cycle->commit_ms.push_back(Ms(committing, committed));
    cycle->writer_s += Ms(staged, committed) / 1000.0;
    cycle->docs += kBatchDocs;
    if (idle_reads > 0) {
      const size_t target = idle_done.load() + idle_reads;
      writer_busy = false;
      while (idle_done.load() < target && reader_running.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      writer_busy = true;
    }
  }
  cycle->writer_cpu_ms = ThreadCpuMs() - writer_cpu_start;
  writing = false;
  reader.join();
  cycle->process_cpu_ms = ProcessCpuMs() - process_cpu_start;
  cycle->wall_s = Ms(start, Clock::now()) / 1000.0;
  if (!status.ok()) return status;
  return reader_status;
}

/// Section-by-section equality of two images (the epoch number in the
/// header differs by construction).
bool SameSections(const std::string& a_path, const std::string& b_path,
                  std::string* why) {
  auto a = seda::persist::MappedImage::Open(a_path);
  auto b = seda::persist::MappedImage::Open(b_path);
  if (!a.ok() || !b.ok()) {
    *why = "cannot open images";
    return false;
  }
  if (a.value()->sections().size() != b.value()->sections().size()) {
    *why = "section count differs";
    return false;
  }
  for (const auto& entry : a.value()->sections()) {
    auto id = static_cast<seda::persist::SectionId>(entry.id);
    auto x = a.value()->Section(id);
    auto y = b.value()->Section(id);
    if (!x.ok() || !y.ok() || x->second != y->second ||
        std::memcmp(x->first, y->first, x->second) != 0) {
      *why = std::string("section ") + seda::persist::SectionName(id) +
             " differs";
      return false;
    }
  }
  return true;
}

/// The ingest traced run: one cycle whose writer pauses after each commit
/// (reads during commits against reads between them), the task pool
/// replayed layer by layer on the final epoch (after one untraced pass that
/// warms it, as ReplayTasks requires), and every commit re-run with its
/// stages standalone beside the real Commit() on a fresh instance.
void ReplayIngest(Serving& serving, const std::string& base_image,
                  const std::vector<XmlDoc>& later,
                  const std::vector<TaskTemplate>& pool,
                  const RunConfig& config, RunResult* result) {
  SpanLog log(true);
  LayerReport report;
  Cycle cycle;
  seda::Status status =
      RunCycle(serving, later, GdpPppTask(), /*idle_reads=*/8, &cycle);
  if (!status.ok()) result->Fail("traced cycle: " + status.ToString());
  for (const Reader& read : cycle.reads) {
    ++result->attempted;
    if (!read.ok) {
      ++result->failed;
      result->Fail("reader task: " + read.error);
    }
    if (read.during_commit) {
      report.read_during_commit_ms.push_back(read.ms);
      report.first_touch_search_ms.insert(report.first_touch_search_ms.end(),
                                          read.search_ms.begin(),
                                          read.search_ms.end());
    } else if (read.writer_idle) {
      report.read_idle_ms.push_back(read.ms);
      report.warm_search_ms.insert(report.warm_search_ms.end(),
                                   read.search_ms.begin(),
                                   read.search_ms.end());
    }
  }
  report.late_ms = cycle.gaps_ms;
  for (const Reader& read : cycle.reads) report.op_wall_ms.push_back(read.ms);

  seda::net::BlockingClient client;
  status = Connect(&client, serving.port());
  if (!status.ok()) {
    result->Fail("client could not connect");
    return;
  }

  std::vector<TaskReference> references;
  for (const TaskTemplate& task : pool) {
    references.push_back(ComputeReference(*serving.seda, task));
  }
  // On a thread of its own, like the server's worker: this thread's heap
  // has just served the cycle's commits, and the allocation-heavy layer
  // calls ran measurably slower on it than the same requests on the worker.
  std::thread replay([&] {
    SpanLog off(false);
    LayerReport warm_up;
    (void)ReplayTasks(serving, client, pool, references, &off, &warm_up,
                      result);
    report.trace_overhead_ratio = ReplayTasks(serving, client, pool,
                                              references, &log, &report,
                                              result);
  });
  replay.join();

  // Commit attribution on a fresh instance, no reader: each batch's stages
  // standalone, then the real Commit() of the same batch.
  seda::core::Seda writer;
  status = writer.Open(base_image);
  if (!status.ok()) {
    result->Fail("reopen base: " + status.ToString());
    return;
  }
  double commit_cpu_ms = 0;
  uint64_t commit_id = 0;
  for (size_t begin = 0; begin + kBatchDocs <= later.size();
       begin += kBatchDocs, ++commit_id) {
    std::vector<const XmlDoc*> batch;
    for (size_t i = begin; i < begin + kBatchDocs; ++i) {
      batch.push_back(&later[i]);
    }
    seda::obs::Trace trace = log.Start("commit");
    auto base = writer.snapshot();
    const double stages_ms = ReplayCommitStages(
        base.get(), batch, BenchOptions(), trace.root(), &report);
    base.reset();
    for (const XmlDoc* doc : batch) (void)writer.AddXml(doc->text, doc->name);
    const double cpu_start = ProcessCpuMs();
    seda::obs::ScopedSpan commit(trace.root(), "core.commit");
    const Clock::time_point commit_start = Clock::now();
    auto info = writer.Commit();
    const double commit_ms = Ms(commit_start, Clock::now());
    commit.End();
    log.Keep(&trace);
    commit_cpu_ms += ProcessCpuMs() - cpu_start;
    ++result->attempted;
    if (!info.ok()) ++result->failed;
    if (!info.ok()) result->Fail("commit: " + info.status().ToString());
    report.connection_first_ms.push_back(
        ColdConnectionSummaryMs(*writer.snapshot(), result));
    report.commit_ms.push_back(commit_ms);
    report.commit_unattributed_ms.push_back(commit_ms - stages_ms);
  }
  report.cpu_ms_per_op = commit_cpu_ms / static_cast<double>(commit_id);
  report.dataguides =
      static_cast<double>(writer.snapshot()->dataguides().size());
  MeasurePersist(writer, config.work_dir + "/ingest-save.img", &log, &report,
                 result);
  EmitLayerMetrics(log, report, result);
  DumpSpans(log, "ingest", config);
}

}  // namespace

RunResult RunIngest(const RunConfig& config) {
  RunResult result;
  std::vector<XmlDoc> base, later;
  for (XmlDoc& doc : FactbookXml(config.seed)) {
    (YearOf(doc.name) < kFirstLaterYear ? base : later).push_back(std::move(doc));
  }
  const uint64_t xml_bytes = TotalBytes(base) + TotalBytes(later);
  const std::vector<TaskTemplate> pool = TaskPool(config.seed);
  const std::string base_image = config.work_dir + "/ingest-base.img";
  const std::string final_image = config.work_dir + "/ingest-final.img";
  const std::string cold_image = config.work_dir + "/ingest-cold.img";
  std::fprintf(stderr,
               "ingest: %zu base docs, %zu later docs in batches of %zu, "
               "%.2f MB XML\n",
               base.size(), later.size(), kBatchDocs,
               static_cast<double>(xml_bytes) / 1e6);

  // Set-up: build + save the base image (on processor `rep`), open it and
  // start serving.
  std::vector<double> setup_seconds;
  auto set_up = [&](int rep, Serving* serving) {
    BuildTimes build;
    seda::Status status;
    {
      PinnedToCpu pin(static_cast<unsigned>(rep));
      status = BuildImage(&base, false, base_image, &build);
    }
    Clock::time_point start = Clock::now();
    if (status.ok()) status = serving->Start(base_image);
    setup_seconds.push_back(build.add_s + build.finalize_s + build.save_s +
                            Ms(start, Clock::now()) / 1000.0);
    if (!status.ok()) result.Fail("ingest set-up: " + status.ToString());
    return status.ok();
  };
  const int reps = config.trace ? 1 : kIngestSetupReps;
  Serving serving;
  for (int rep = 0; rep < reps; ++rep) {
    serving.Stop();
    serving = Serving{};
    if (!set_up(rep, &serving)) return result;
  }
  ReleaseFreeHeap();
  double rss_mb = ResidentMb();

  if (config.trace) {
    ReplayIngest(serving, base_image, later, pool, config, &result);
    serving.Stop();
    std::remove(base_image.c_str());
    return result;
  }

  std::vector<Cycle> cycles;
  double measured_s = 0;
  while (measured_s < config.seconds) {
    if (!cycles.empty()) {
      serving.Stop();
      serving = Serving{};
      seda::Status status = serving.Start(base_image);
      if (!status.ok()) {
        result.Fail("reopen base: " + status.ToString());
        return result;
      }
    }
    cycles.emplace_back();
    seda::Status status =
        RunCycle(serving, later, GdpPppTask(), /*idle_reads=*/0,
                 &cycles.back());
    rss_mb = std::max(rss_mb, ResidentMb());
    if (!status.ok()) {
      result.Fail("cycle: " + status.ToString());
      ++result.failed;
      break;
    }
    measured_s += cycles.back().wall_s;
  }
  serving.Stop();

  // Off the clock: save the final epoch, check it against a cold build of
  // the same documents and audit it, then time reopens.
  seda::Status status = serving.seda->Save(final_image);
  if (!status.ok()) result.Fail("save final: " + status.ToString());
  seda::audit::AuditReport audit = serving.seda->snapshot()->Audit();
  if (!audit.ok()) result.Fail("final epoch audit: " + audit.ToString());
  serving = Serving{};
  {
    std::vector<XmlDoc> all = base;
    all.insert(all.end(), later.begin(), later.end());
    BuildTimes cold;
    status = BuildImage(&all, true, cold_image, &cold);
    std::string why;
    if (!status.ok()) {
      result.Fail("cold build: " + status.ToString());
    } else if (!SameSections(final_image, cold_image, &why)) {
      result.Fail("final epoch differs from a cold build: " + why);
    }
  }
  const bool epoch_ok = result.correct;
  // More set-ups after the timed phase, so that setup_s does not rest on
  // one stretch of the run.
  for (int rep = 0; rep < kIngestLateSetupReps; ++rep) {
    Serving late;
    if (!set_up(kIngestSetupReps + rep, &late)) return result;
    late.Stop();
  }
  std::vector<double> open_samples;
  SampleOpenMs(final_image, 4 * kOpenReps, &open_samples, &result);
  const double open_ms = Median(open_samples);
  const uint64_t image_bytes = FileBytes(final_image);
  for (const std::string& path : {base_image, final_image, cold_image}) {
    std::remove(path.c_str());
  }

  std::vector<double> commit_ms, latencies;
  double writer_s = 0, wall_s = 0, reader_cpu_ms = 0, writer_cpu_ms = 0;
  size_t docs = 0, completed = 0;
  for (const Cycle& cycle : cycles) {
    reader_cpu_ms += cycle.process_cpu_ms - cycle.writer_cpu_ms;
    writer_cpu_ms += cycle.writer_cpu_ms;
    commit_ms.insert(commit_ms.end(), cycle.commit_ms.begin(),
                     cycle.commit_ms.end());
    result.attempted += cycle.commit_ms.size();
    writer_s += cycle.writer_s;
    wall_s += cycle.wall_s;
    docs += cycle.docs;
    for (const Reader& read : cycle.reads) {
      ++result.attempted;
      if (!read.ok) {
        ++result.failed;
        result.Fail("reader task: " + read.error);
        latencies.push_back(1e9);  // a failed task misses any latency limit
        continue;
      }
      ++completed;
      latencies.push_back(read.ms);
    }
  }
  if (!epoch_ok) ++result.failed;
  std::fprintf(stderr,
               "ingest: %zu cycles, %zu commits, %zu reader tasks (%zu ok) in "
               "%.2f s; reader task p50 %.3f ms, p90 %.3f ms (%zu beyond); "
               "writer CPU per doc %.4f ms\n",
               cycles.size(), commit_ms.size(), latencies.size(), completed,
               wall_s, Percentile(latencies, 0.50), Percentile(latencies, 0.90),
               SamplesBeyond(latencies.size(), 0.90),
               writer_cpu_ms / static_cast<double>(docs));
  result.Set("setup_s", Median(setup_seconds), "s");
  result.Set("op_cpu_ms",
             reader_cpu_ms / static_cast<double>(latencies.size()), "ms");
  result.Set("commit_p50_ms", Median(commit_ms), "ms");
  result.Set("ingest_docs_per_s", static_cast<double>(docs) / writer_s, "1/s");
  result.Set("open_ms", open_ms, "ms");
  result.Set("rss_mb", rss_mb, "MB");
  result.Set("image_bytes_per_xml_byte",
             static_cast<double>(image_bytes) / static_cast<double>(xml_bytes),
             "ratio");
  return result;
}

}  // namespace sedabench
