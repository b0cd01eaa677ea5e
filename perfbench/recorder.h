// Span recorder for the benchmark binary.
//
// Every call the binary makes into a public function of the project goes
// through Recorder::call(). With spans off (end-to-end runs) that only
// adds the call's steady-clock duration to the phase it belongs to, so
// the timed figures carry two clock reads of overhead per call. With
// spans on (the traced run) each call, and each phase around a group of
// calls, also becomes a Span held in memory: name, start, end, parent,
// and the DES counters and memory figures read right after it returned.
// Layer self times are derived from the spans afterwards; the binary then
// drops every round's spans but the first, so the recorder's own storage
// stays at about one round's worth.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Resident set and its high-water mark of this process, in KiB, read
/// from /proc/self/status (0 when unavailable).
struct MemKb {
  std::uint64_t rss = 0;
  std::uint64_t hwm = 0;
};
MemKb read_mem();

struct Span {
  const char* name = "";  ///< "<layer>.<call>" for calls, the phase else
  int parent = -1;   ///< index into Recorder::spans(), -1 for a root
  double start_s = 0.0;  ///< seconds since the recorder was made
  double end_s = 0.0;
  // Read right after the span closed.
  double sim_events = 0.0;       ///< gauge sim.events_executed (last run)
  double sim_max_pending = 0.0;  ///< gauge sim.calendar_max_depth
  double sim_windows = 0.0;      ///< gauge sim.windows (sharded runs)
  MemKb mem;
};

/// Which phase of a round a call belongs to: set-up (program
/// construction and pre-run verification) or the timed phase.
enum class Phase { kSetup, kTimed };

class Recorder {
 public:
  explicit Recorder(bool spans);

  bool spans_on() const { return spans_on_; }

  /// Opens a phase (setup or timed) or a grouping span; calls made until
  /// the matching close() count toward `phase`.
  void open(const char* name, Phase phase);
  void close();

  /// Times one public call of the project; `name` is "<layer>.<call>".
  template <class F>
  decltype(auto) call(const char* name, F&& f) {
    const int index = begin(name);
    const auto t0 = std::chrono::steady_clock::now();
    struct Finish {
      Recorder& rec;
      int index;
      std::chrono::steady_clock::time_point t0;
      ~Finish() { rec.end(index, t0); }
    } finish{*this, index, t0};
    return std::forward<F>(f)();
  }

  /// Sum of call durations per phase since the last reset_phase_totals().
  double setup_s() const { return setup_s_; }
  double timed_s() const { return timed_s_; }
  void reset_phase_totals() { setup_s_ = timed_s_ = 0.0; }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (span duration minus the time its children cover) summed
  /// per span name, over the spans recorded since index `from`.
  std::map<std::string, double> self_times(std::size_t from) const;

  /// Forgets the spans recorded since index `from` (none may be open).
  void drop_spans(std::size_t from);

 private:
  int begin(const char* name);
  void end(int index, std::chrono::steady_clock::time_point t0);
  double since_origin(std::chrono::steady_clock::time_point t) const;
  void fill_counters(Span& span) const;

  bool spans_on_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;            ///< indices of open spans
  std::vector<Phase> phase_stack_;
  double setup_s_ = 0.0;
  double timed_s_ = 0.0;
};

}  // namespace perfbench
