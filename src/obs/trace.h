#ifndef SEDA_OBS_TRACE_H_
#define SEDA_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace seda::obs {

/// Detached span tree: the plain-data result of Trace::Detach(), safe to
/// serialize, retain in the slow-query log, or ship on a wire response long
/// after the request (and its Trace arena) is gone. All times are steady
/// clock microseconds; `start_us` is the offset from the root span's start,
/// so a renderer can draw a flame view without absolute timestamps.
struct SpanNode {
  std::string name;
  uint64_t start_us = 0;    ///< offset from the root span's start
  uint64_t elapsed_us = 0;  ///< wall time between open and close
  /// Wall-clock anchor (unix epoch ms) of the span's open; only the root
  /// carries one — children are positioned by start_us.
  uint64_t unix_ms = 0;
  /// Counters attached at close (engine stats, work sizes), insertion order.
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<SpanNode> children;

  /// Time spent in this span but not in any child (clamped at 0: children
  /// share the parent's clock, so the sum never exceeds elapsed_us in a
  /// single-threaded trace, but partial trees can violate it).
  uint64_t SelfUs() const;
};

class Trace;

/// One open interval in a request's trace. Spans are created through
/// Trace/TraceSpan::StartChild and owned by the Trace arena — never
/// constructed directly, never outliving the Trace. The cheap path is two
/// steady_clock reads (open + close); counters cost one vector push each.
///
/// Threading contract: a trace is single-threaded. Spans must only be
/// opened, annotated and closed on the request's coordinating thread —
/// fan-out work (the RunParallel scoring batches) must NOT touch the trace;
/// it reports back through counters attached by the coordinator.
class TraceSpan {
 public:
  /// Opens a child span. `name` must be a string literal (stored as a
  /// pointer, not copied — the always-on path allocates nothing for names).
  TraceSpan* StartChild(const char* name);

  /// Attaches a counter visible in the detached tree. Call at (or before)
  /// close; literal-name contract as StartChild.
  void AddCounter(const char* name, uint64_t value);

  /// Closes the span (idempotent; the second close is a no-op). Children
  /// still open at Detach() time are closed then.
  void End();

  bool ended() const { return ended_; }

 private:
  friend class Trace;
  TraceSpan(Trace* trace, const char* name,
            std::chrono::steady_clock::time_point start)
      : trace_(trace), name_(name), start_(start) {}

  Trace* trace_;
  const char* name_;
  std::chrono::steady_clock::time_point start_;
  std::chrono::steady_clock::time_point end_{};
  bool ended_ = false;
  std::vector<std::pair<const char*, uint64_t>> counters_;
  std::vector<TraceSpan*> children_;
};

/// Arena + root of one request's span tree. A default-constructed Trace is
/// *disabled*: root() is nullptr and every null-tolerant helper (ScopedSpan,
/// TraceSpan checks at call sites) degrades to zero work — that is the
/// compiled-in-but-off path the <3% bench gate measures against.
class Trace {
 public:
  /// Disabled trace (no spans, Detach() returns an empty node).
  Trace() = default;
  /// Enabled trace with an open root span.
  explicit Trace(const char* root_name);

  Trace(Trace&&) = default;
  Trace& operator=(Trace&&) = default;
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  bool enabled() const { return !spans_.empty(); }
  /// The root span, or nullptr when disabled.
  TraceSpan* root() { return spans_.empty() ? nullptr : &spans_.front(); }

  /// Ends every still-open span and converts the arena into a detached
  /// SpanNode tree. An empty (disabled) trace detaches to a default node.
  SpanNode Detach();

 private:
  friend class TraceSpan;
  TraceSpan* NewSpan(const char* name);

  /// Deque: stable addresses while growing (spans hold TraceSpan*).
  std::deque<TraceSpan> spans_;
  uint64_t wall_unix_ms_ = 0;
};

/// Null-safe RAII child span: no-op when `parent` is nullptr, so engine code
/// can open spans unconditionally whether or not the request is traced.
class ScopedSpan {
 public:
  ScopedSpan(TraceSpan* parent, const char* name)
      : span_(parent != nullptr ? parent->StartChild(name) : nullptr) {}
  ~ScopedSpan() { End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// The underlying span (nullptr when untraced) — pass down as a parent.
  TraceSpan* get() const { return span_; }
  void AddCounter(const char* name, uint64_t value) {
    if (span_ != nullptr) span_->AddCounter(name, value);
  }
  /// Early close (before scope exit); idempotent.
  void End() {
    if (span_ != nullptr) {
      span_->End();
      span_ = nullptr;
    }
  }

 private:
  TraceSpan* span_;
};

}  // namespace seda::obs

#endif  // SEDA_OBS_TRACE_H_
