#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

double SpanRecorder::now() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

int SpanRecorder::open(std::string name, int trace, int machine) {
  const double start = now();
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int>& stack = open_[std::this_thread::get_id()];
  Span span;
  span.name = std::move(name);
  span.start_s = start;
  span.parent = stack.empty() ? -1 : stack.back();
  span.trace = trace;
  span.machine = machine;
  if (span.parent >= 0) {
    const Span& parent = spans_[static_cast<std::size_t>(span.parent)];
    if (trace < 0) span.trace = parent.trace;
    if (machine < 0) span.machine = parent.machine;
  }
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  stack.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  const double end = now();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_s = end;
  std::vector<int>& stack = open_[std::this_thread::get_id()];
  if (!stack.empty() && stack.back() == id) stack.pop_back();
  child_cursor_.erase(id);
  if (span.parent >= 0) child_cursor_[span.parent] = end;
}

int SpanRecorder::add_measured_child(int parent, std::string name,
                                     double duration_s) {
  const double present = now();
  std::lock_guard<std::mutex> lock(mutex_);
  const Span& p = spans_[static_cast<std::size_t>(parent)];
  Span span;
  span.name = std::move(name);
  const auto cursor = child_cursor_.find(parent);
  span.start_s = std::min(
      cursor == child_cursor_.end() ? p.start_s : cursor->second, present);
  span.end_s = std::min(span.start_s + std::max(duration_s, 0.0), present);
  span.parent = parent;
  span.trace = p.trace;
  span.machine = p.machine;
  child_cursor_[parent] = span.end_s;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  return id;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void SpanRecorder::write_json(std::ostream& os) const {
  const std::vector<Span> all = spans();
  os << "{\"spans\":[";
  char buf[256];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"parent\":%d,\"trace\":%d,\"machine\":%d}",
                  i == 0 ? "" : ",", i, s.name.c_str(), s.start_s, s.end_s,
                  s.parent, s.trace, s.machine);
    os << buf;
  }
  os << "]}\n";
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                s.end_s);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0, cur_lo = 0, cur_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_s);
      hi = std::min(hi, s.end_s);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, s.duration() - covered);
  }
  return self;
}

std::map<std::string, NameTotal> totals_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, NameTotal> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    NameTotal& t = totals[spans[i].name];
    t.self_s += self[i];
    ++t.count;
  }
  return totals;
}

double root_total(const std::vector<Span>& spans) {
  double total = 0;
  for (const Span& s : spans) {
    if (s.parent < 0) total += s.duration();
  }
  return total;
}

}  // namespace perfbench
