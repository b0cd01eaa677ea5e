// Benchmark binary: runs whole rounds of one workload for about
// --seconds seconds and prints the result as one JSON line.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --tmpdir DIR
//
// --trace 0 reports the end-to-end metrics (wall_s, setup_s,
// peak_rss_mb), with span recording off. --trace 1 records spans,
// reports the per-layer metrics instead and writes the first round's
// spans to DIR/spans.json at the end. Every round runs the same
// operations, so every exact count must repeat from round to round; a
// count that moves fails the run. Human-readable notes go to stderr; the
// last line of stdout is the result. Exit status: 0 when every check
// passed, 1 when one failed, 2 on a usage error.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "recorder.h"
#include "support/json.h"
#include "workloads.h"

namespace {

using perfbench::Phase;
using perfbench::Recorder;
using perfbench::RoundResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string tmpdir;
};

[[noreturn]] void usage(const std::string& message) {
  std::cerr << "perfbench: " << message << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --tmpdir DIR\n"
            << "workloads:";
  for (const auto name : perfbench::workload_names())
    std::cerr << ' ' << name;
  std::cerr << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc)
      usage("expected --flag value pairs, got '" + flag + "'");
    flags[flag.substr(2)] = argv[i + 1];
  }
  const auto take = [&](const std::string& name) {
    const auto it = flags.find(name);
    if (it == flags.end()) usage("missing --" + name);
    std::string v = it->second;
    flags.erase(it);
    return v;
  };
  Args a;
  a.workload = take("workload");
  try {
    std::size_t used = 0;
    const std::string seed = take("seed");
    a.seed = std::stoull(seed, &used);
    if (used != seed.size()) throw std::invalid_argument(seed);
    const std::string seconds = take("seconds");
    a.seconds = std::stod(seconds, &used);
    if (used != seconds.size() || !(a.seconds > 0.0))
      throw std::invalid_argument(seconds);
  } catch (const std::exception&) {
    usage("--seed must be a whole number and --seconds a positive number");
  }
  const std::string trace = take("trace");
  if (trace != "0" && trace != "1") usage("--trace must be 0 or 1");
  a.trace = trace == "1";
  a.tmpdir = take("tmpdir");
  if (!flags.empty()) usage("unknown flag --" + flags.begin()->first);
  if (perfbench::find_workload(a.workload) == nullptr)
    usage("unknown workload '" + a.workload + "'");
  if (!std::filesystem::is_directory(a.tmpdir))
    usage("--tmpdir " + a.tmpdir + " is not a directory");
  return a;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Host reference: a fixed dependent integer loop that touches no project
/// code. Its time moves only with the machine (frequency, neighbours).
double host_probe() {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint32_t i = 0; i < (1u << 26); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double s = seconds_since(t0);
  volatile std::uint64_t sink = x;
  (void)sink;
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Spans timed per public call; the per-layer metric is "<span>_s".
constexpr const char* kCallSpans[] = {
    "apps.build",   "gen.generate", "gen.differential", "gen.replay",
    "verify.program", "verify.cost", "des.run",        "trace.write",
    "trace.read",   "obs.analyze",  "json.write",       "json.read",
};

/// Per-round counts reported as they are (identical in every round of a
/// run, or the run fails), with their units.
constexpr std::pair<const char*, const char*> kCounts[] = {
    {"gen.programs", "count"},   {"verify.messages", "count"},
    {"sim.events", "count"},     {"sim.windows", "count"},
    {"sim.events_per_window", "count"}, {"sim.max_pending", "count"},
    {"mpi.bytes", "B"},          {"net.drops", "count"},
    {"net.retransmits", "count"}, {"trace.records", "count"},
    {"trace.bytes", "B"},        {"json.bytes", "B"},
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void write_spans(const std::string& path, const Recorder& rec) {
  mb::support::JsonWriter w(false);
  w.begin_array();
  for (const perfbench::Span& s : rec.spans()) {
    w.begin_object();
    w.field("name", std::string(s.name));
    w.field("parent", s.parent);
    w.field("start_s", s.start_s);
    w.field("end_s", s.end_s);
    w.field("sim_events", s.sim_events);
    w.field("sim_max_pending", s.sim_max_pending);
    w.field("sim_windows", s.sim_windows);
    w.field("rss_kb", s.mem.rss);
    w.field("hwm_kb", s.mem.hwm);
    w.end_object();
  }
  w.end_array();
  std::ofstream out(path);
  out << w.str() << '\n';
  if (!out) std::cerr << "perfbench: cannot write " << path << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const perfbench::RoundFn round_fn = perfbench::find_workload(args.workload);
  const perfbench::Context ctx{args.seed, args.tmpdir};

  const double probe_start = host_probe();
  Recorder rec(args.trace);
  std::vector<RoundResult> rounds;
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<std::map<std::string, double>> self_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  // Whole rounds until the next one would end past --seconds (at least
  // one round).
  const auto run_start = std::chrono::steady_clock::now();
  for (;;) {
    const std::size_t first_span = rec.spans().size();
    const auto round_start = std::chrono::steady_clock::now();
    rec.reset_phase_totals();
    RoundResult round;
    try {
      rec.open("round", Phase::kTimed);
      round = round_fn(rec, ctx);
      rec.close();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: round " << rounds.size() + 1
                << " aborted: " << e.what() << '\n';
      ++attempted;
      ++failed;
      correct = false;
      break;
    }
    if (!rounds.empty()) {
      // Same seed, same operations: the simulator must repeat itself. A
      // count that moved fails one operation of the round.
      bool moved = false;
      for (const auto& [name, value] : round.counts) {
        const double first = rounds.front().counts.at(name);
        if (value == first) continue;
        moved = true;
        std::ostringstream what;
        what << std::setprecision(17) << name << " is " << value
             << " in round " << rounds.size() + 1 << ", " << first
             << " in round 1";
        round.problems.push_back(what.str());
      }
      if (moved && round.failed < round.attempted) ++round.failed;
    }
    attempted += round.attempted;
    failed += round.failed;
    for (const std::string& p : round.problems)
      std::cerr << "perfbench: check failed: " << p << '\n';
    setup_s.push_back(rec.setup_s());
    wall_s.push_back(rec.timed_s());
    if (args.trace) {
      self_s.push_back(rec.self_times(first_span));
      if (!rounds.empty()) rec.drop_spans(first_span);
    }
    rounds.push_back(std::move(round));
    if (rounds.back().failed > 0) {
      correct = false;
      break;
    }
    const double round_s = seconds_since(round_start);
    if (seconds_since(run_start) + round_s > args.seconds) break;
  }
  const double probe_end = host_probe();
  const double peak_rss_mb =
      static_cast<double>(perfbench::read_mem().hwm) / 1024.0;

  std::vector<Metric> metrics;
  if (!rounds.empty() && !args.trace) {
    metrics.push_back({"wall_s", median(wall_s), "s"});
    metrics.push_back({"setup_s", median(setup_s), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MiB"});
  } else if (!rounds.empty()) {
    const auto per_round = [&](const auto& get) {
      std::vector<double> v;
      for (std::size_t i = 0; i < rounds.size(); ++i) v.push_back(get(i));
      return median(std::move(v));
    };
    const auto self_of = [&](std::size_t i, const std::string& span) {
      const auto it = self_s[i].find(span);
      return it == self_s[i].end() ? 0.0 : it->second;
    };
    for (const char* span : kCallSpans) {
      metrics.push_back({std::string(span) + "_s",
                         per_round([&](std::size_t i) {
                           return self_of(i, span);
                         }),
                         "s"});
    }
    metrics.push_back(
        {"des.ns_per_event", per_round([&](std::size_t i) {
           const double events = rounds[i].counts.at("sim.events");
           return events > 0.0 ? 1e9 * self_of(i, "des.run") / events : 0.0;
         }),
         "ns"});
    for (const auto& [name, unit] : kCounts)
      metrics.push_back({name, rounds.front().counts.at(name), unit});
    metrics.push_back({"mem.rss_after_setup_mb", per_round([&](std::size_t i) {
                         return rounds[i].rss_after_setup_mb;
                       }),
                       "MiB"});
    metrics.push_back({"mem.hwm_after_des_mb", per_round([&](std::size_t i) {
                         return rounds[i].hwm_after_des_mb;
                       }),
                       "MiB"});
    metrics.push_back({"host.ref_s", 0.5 * (probe_start + probe_end), "s"});
  }

  std::cerr << "perfbench: " << args.workload << " seed " << args.seed
            << ", " << rounds.size() << " round(s) in "
            << seconds_since(run_start) << " s, spans "
            << (args.trace ? "on" : "off") << "\n"
            << "perfbench: timed phase per round (s):";
  for (const double w : wall_s) std::cerr << ' ' << w;
  std::cerr << "\nperfbench: set-up per round (s):";
  for (const double s : setup_s) std::cerr << ' ' << s;
  std::cerr << "\nperfbench: host probe " << probe_start << " s at start, "
            << probe_end << " s at end; peak RSS " << peak_rss_mb
            << " MiB\n";
  if (args.trace) write_spans(args.tmpdir + "/spans.json", rec);

  mb::support::JsonWriter w(false);
  w.begin_object();
  w.field("correct", correct);
  w.field("attempted", attempted);
  w.field("failed", failed);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << w.str() << std::endl;
  return correct ? 0 : 1;
}
