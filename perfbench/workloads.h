// The benchmark's workloads. Each runs one round: a set-up phase that
// builds and verifies its programs, a timed phase of public calls into
// the simulator, then checks of the outputs made apart from the program.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "recorder.h"

namespace perfbench {

struct Context {
  std::uint64_t seed = 0;  ///< the benchmark seed; inputs derive from it
  std::string tmpdir;      ///< fresh directory for on-disk artifacts
};

struct RoundResult {
  /// Operations of the round (an app run, a fuzz seed or a replay) and
  /// how many of them failed a check.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< one line per failed check
  /// Exact per-round counts, keyed by per-layer metric name.
  std::map<std::string, double> counts;
  double rss_after_setup_mb = 0.0;
  double hwm_after_des_mb = 0.0;
};

using RoundFn = RoundResult (*)(Recorder&, const Context&);

/// The round function of workload `name`, or nullptr.
RoundFn find_workload(std::string_view name);

/// Workload names, in the order BENCHMARK.json lists them.
std::vector<std::string_view> workload_names();

}  // namespace perfbench
