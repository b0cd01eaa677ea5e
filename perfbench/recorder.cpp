#include "recorder.h"

#include <cstdio>

#include "obs/metrics.h"

namespace perfbench {

MemKb read_mem() {
  MemKb mem;
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return mem;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    unsigned long long kb = 0;
    if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1) mem.rss = kb;
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) mem.hwm = kb;
  }
  std::fclose(f);
  return mem;
}

Recorder::Recorder(bool spans)
    : spans_on_(spans), origin_(std::chrono::steady_clock::now()) {}

double Recorder::since_origin(std::chrono::steady_clock::time_point t) const {
  return std::chrono::duration<double>(t - origin_).count();
}

void Recorder::fill_counters(Span& span) const {
  mb::obs::Registry& registry = mb::obs::metrics();
  span.sim_events = registry.gauge("sim.events_executed").value();
  span.sim_max_pending = registry.gauge("sim.calendar_max_depth").value();
  span.sim_windows = registry.gauge("sim.windows").value();
  span.mem = read_mem();
}

void Recorder::open(const char* name, Phase phase) {
  phase_stack_.push_back(phase);
  if (!spans_on_) return;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = since_origin(std::chrono::steady_clock::now());
  open_.push_back(static_cast<int>(spans_.size()));
  spans_.push_back(std::move(span));
}

void Recorder::close() {
  if (!phase_stack_.empty()) phase_stack_.pop_back();
  if (!spans_on_ || open_.empty()) return;
  Span& span = spans_[static_cast<std::size_t>(open_.back())];
  open_.pop_back();
  span.end_s = since_origin(std::chrono::steady_clock::now());
  fill_counters(span);
}

int Recorder::begin(const char* name) {
  if (!spans_on_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Recorder::end(int index, std::chrono::steady_clock::time_point t0) {
  const auto t1 = std::chrono::steady_clock::now();
  const double d = std::chrono::duration<double>(t1 - t0).count();
  if (!phase_stack_.empty()) {
    (phase_stack_.back() == Phase::kSetup ? setup_s_ : timed_s_) += d;
  }
  if (index < 0) return;
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.start_s = since_origin(t0);
  span.end_s = since_origin(t1);
  fill_counters(span);
}

std::map<std::string, double> Recorder::self_times(std::size_t from) const {
  // Calls run one after another on this thread, so children never
  // overlap and "time covered by children" is the sum of their lengths.
  std::vector<double> child_s(spans_.size(), 0.0);
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= static_cast<int>(from))
      child_s[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  }
  std::map<std::string, double> by_name;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    by_name[s.name] += (s.end_s - s.start_s) - child_s[i];
  }
  return by_name;
}

void Recorder::drop_spans(std::size_t from) {
  if (from < spans_.size()) spans_.resize(from);
}

}  // namespace perfbench
