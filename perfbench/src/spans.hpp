// In-memory span recorder for the benchmark's traced run.
//
// A span is one call the benchmark makes into a vcsteer layer: its name
// (layer.operation), start and end on the steady clock, the span that was
// open on the same thread when it started (its parent), and the (trace,
// machine) grid cell it worked on. Spans stay in memory and are written as
// one JSON document when the benchmark ends. A layer's self time is its
// span's duration minus the part of that interval its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0;  ///< seconds since the recorder's epoch.
  double end_s = 0;
  int parent = -1;     ///< index into the span list; -1 for a root.
  int trace = -1;      ///< grid cell; -1 outside any cell.
  int machine = -1;

  double duration() const { return end_s - start_s; }
};

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span as a child of the calling thread's innermost open span.
  /// A negative cell id inherits the parent's.
  int open(std::string name, int trace = -1, int machine = -1);
  void close(int id);

  /// Records a child of the open span `parent` whose duration was measured
  /// by the library's own phase clock (vcsteer::harness::PhaseTimes) rather
  /// than around a call the benchmark makes. It is laid out after the
  /// parent's last recorded child (or at the parent's start), in call order,
  /// and clipped to the present.
  int add_measured_child(int parent, std::string name, double duration_s);

  std::vector<Span> spans() const;
  void write_json(std::ostream& os) const;

 private:
  double now() const;

  using Clock = std::chrono::steady_clock;
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::vector<int>> open_;  ///< per-thread stacks.
  std::map<int, double> child_cursor_;  ///< open span -> its last child end.
};

/// RAII wrapper; a null recorder records nothing (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, int trace = -1,
             int machine = -1)
      : recorder_(recorder),
        id_(recorder != nullptr
                ? recorder->open(std::move(name), trace, machine)
                : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int id_;
};

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Sum of self times and count of spans, by span name.
struct NameTotal {
  double self_s = 0;
  std::uint64_t count = 0;
};
std::map<std::string, NameTotal> totals_by_name(const std::vector<Span>& spans);

/// Sum of root span durations: the traced total self times add up to.
double root_total(const std::vector<Span>& spans);

}  // namespace perfbench
