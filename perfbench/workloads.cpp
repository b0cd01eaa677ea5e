#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "apps/bigdft.h"
#include "apps/cluster.h"
#include "apps/hpl.h"
#include "apps/specfem.h"
#include "gen/bundle.h"
#include "gen/differential.h"
#include "gen/generator.h"
#include "obs/analysis.h"
#include "obs/metrics.h"
#include "support/check.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/version.h"
#include "trace/mb_trace.h"
#include "verify/mpi_verify.h"
#include "verify/static_cost.h"

namespace perfbench {
namespace {

using mb::apps::AppRunResult;
using mb::apps::ClusterConfig;
using mb::mpi::Program;

/// Relative slack for comparing the runtime's double-summed figures
/// with the analyzer's bounds (the static-bounds property suite uses the
/// same).
constexpr double kRelTol = 1e-9;

/// Per-round counts, summed over the round's calls.
struct Tally {
  double events = 0.0;
  double sharded_events = 0.0;
  double windows = 0.0;
  double max_pending = 0.0;
  double bytes = 0.0;
  double drops = 0.0;
  double retransmits = 0.0;
  double trace_records = 0.0;
  double trace_bytes = 0.0;
  double json_bytes = 0.0;
  double verify_messages = 0.0;
  double gen_programs = 0.0;

  void into(RoundResult& round) const {
    round.counts = {
        {"gen.programs", gen_programs},
        {"verify.messages", verify_messages},
        {"sim.events", events},
        {"sim.windows", windows},
        {"sim.events_per_window",
         windows > 0.0 ? sharded_events / windows : 0.0},
        {"sim.max_pending", max_pending},
        {"mpi.bytes", bytes},
        {"net.drops", drops},
        {"net.retransmits", retransmits},
        {"trace.records", trace_records},
        {"trace.bytes", trace_bytes},
        {"json.bytes", json_bytes},
    };
  }
};

/// Tracks the round's operations and the checks made on each.
class Checks {
 public:
  explicit Checks(RoundResult& round) : round_(round) {}

  /// Registers one operation; returns its id for expect().
  std::size_t op() {
    failed_.push_back(false);
    return failed_.size() - 1;
  }

  void expect(std::size_t op, bool ok, const std::string& what) {
    if (ok) return;
    failed_[op] = true;
    round_.problems.push_back(what);
  }

  void finish() {
    round_.attempted = failed_.size();
    round_.failed = static_cast<std::uint64_t>(
        std::count(failed_.begin(), failed_.end(), true));
  }

 private:
  RoundResult& round_;
  std::vector<bool> failed_;
};

double to_mb(std::uint64_t kb) { return static_cast<double>(kb) / 1024.0; }

/// Payload bytes each rank has sent so far, from the mpi.bytes_sent
/// counters of the metrics registry (one pass over its counters).
std::vector<double> bytes_sent_by_rank(std::uint32_t ranks) {
  const mb::obs::Registry& registry = mb::obs::metrics();
  constexpr std::string_view kPrefix = "mpi.bytes_sent{rank=";
  std::vector<double> sent(ranks, 0.0);
  for (std::size_t i = 0; i < registry.counter_count(); ++i) {
    const std::string key = registry.counter_key(i);
    if (key.compare(0, kPrefix.size(), kPrefix) != 0) continue;
    const unsigned long r = std::stoul(key.substr(kPrefix.size()));
    if (r < ranks) sent[r] = registry.counter_value(i);
  }
  return sent;
}

struct DesRun {
  AppRunResult result;
  std::vector<double> sent;  ///< per-rank payload bytes of this run
};

/// One timed DES call, with the registry counts it moved.
DesRun run_des(Recorder& rec, const ClusterConfig& cluster,
               const Program& program, Tally& tally) {
  mb::obs::Registry& registry = mb::obs::metrics();
  DesRun run;
  const std::vector<double> before = bytes_sent_by_rank(program.ranks());
  run.result = rec.call("des.run", [&] {
    return mb::apps::run_on_cluster(cluster, program);
  });
  run.sent = bytes_sent_by_rank(program.ranks());
  for (std::uint32_t r = 0; r < program.ranks(); ++r) {
    run.sent[r] -= before[r];
    tally.bytes += run.sent[r];
  }
  const double events = registry.gauge("sim.events_executed").value();
  tally.events += events;
  tally.max_pending = std::max(
      tally.max_pending, registry.gauge("sim.calendar_max_depth").value());
  if (cluster.sim_jobs > 0) {
    tally.sharded_events += events;
    tally.windows += registry.gauge("sim.windows").value();
  }
  tally.drops += static_cast<double>(run.result.network_drops);
  tally.retransmits += static_cast<double>(run.result.network_retransmits);
  return run;
}

/// The analyzer's view of a cluster: same tree, packing, frame size and
/// software costs as the DES run.
mb::verify::CostDescriptor descriptor_of(const ClusterConfig& cluster) {
  mb::verify::CostDescriptor d;
  d.tree = cluster.tree;
  d.cores_per_node = cluster.cores_per_node;
  d.mtu_bytes = cluster.mtu_bytes;
  d.mpi = cluster.mpi;
  return d;
}

bool in_bracket(double makespan, const mb::verify::CostReport& cost) {
  return makespan >= cost.makespan_lower_s * (1.0 - kRelTol) &&
         makespan <= cost.makespan_upper_s * (1.0 + kRelTol);
}

bool same_records(const mb::trace::Trace& a, const mb::trace::Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.records()[i];
    const auto& y = b.records()[i];
    if (x.rank != y.rank || x.t0 != y.t0 || x.t1 != y.t1 ||
        x.kind != y.kind || x.label != y.label || x.bytes != y.bytes)
      return false;
  }
  return true;
}

/// Writes `trace` as an mb-trace file, reads it back and removes it.
mb::trace::Trace trace_round_trip(Recorder& rec, const mb::trace::Trace& trace,
                                  std::uint32_t total_ranks,
                                  std::uint64_t seed, const std::string& path,
                                  Tally& tally) {
  mb::trace::MbTraceMeta meta;
  meta.tool_version = std::string(mb::support::version());
  meta.seed = seed;
  meta.total_ranks = total_ranks;
  rec.call("trace.write", [&] {
    std::ofstream out(path, std::ios::binary);
    mb::trace::write_mb_trace(out, trace, meta);
    out.close();
    if (!out) throw mb::support::Error("cannot write " + path);
  });
  tally.trace_records += static_cast<double>(trace.size());
  tally.trace_bytes += static_cast<double>(std::filesystem::file_size(path));
  mb::trace::MbTraceFile back = rec.call("trace.read", [&] {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw mb::support::Error("cannot read " + path);
    return mb::trace::read_mb_trace(in);
  });
  std::filesystem::remove(path);
  return std::move(back.trace);
}

std::size_t verifier_errors(Recorder& rec, const Program& program) {
  return rec.call("verify.program", [&] {
    return mb::verify::verify_program(program);
  }).errors();
}

// ---------------------------------------------------------------------------
// bigdft-alltoallv: the Fig. 4 scenario at 36 ranks, then the same model
// strong-scaled to 192 ranks (the Fig. 3c collapse), on the classic serial
// engine with the default collector, plus the static cost pass.

constexpr std::uint32_t kFig4Ranks = 36;
constexpr std::uint32_t kFig4Iterations = 36;
constexpr std::uint32_t kScaledRanks = 192;
constexpr std::uint32_t kScaledIterations = 4;

RoundResult bigdft_round(Recorder& rec, const Context& ctx) {
  RoundResult round;
  Checks checks(round);
  Tally tally;

  struct Case {
    mb::apps::BigDftParams params;
    ClusterConfig cluster;
    Program program{1};
    std::size_t op = 0;
    DesRun run;
    mb::verify::CostReport cost;
    mb::obs::Analysis analysis;
  };
  Case cases[2];
  const std::uint32_t ranks[2] = {kFig4Ranks, kScaledRanks};
  const std::uint32_t iterations[2] = {kFig4Iterations, kScaledIterations};
  for (int i = 0; i < 2; ++i) {
    Case& c = cases[i];
    c.params.ranks = ranks[i];
    c.params.iterations = iterations[i];
    c.params.compute_s_per_iter = 2.0;
    c.params.transpose_bytes = 12ull << 20;
    c.params.seed = mb::support::derive_seed(ctx.seed, ranks[i]);
    c.cluster = mb::apps::tibidabo_cluster(ranks[i] / 2);
    c.cluster.mpi.verify = false;  // verified in set-up
    c.op = checks.op();
  }

  rec.open("setup", Phase::kSetup);
  for (Case& c : cases) {
    c.program = rec.call("apps.build", [&] {
      return mb::apps::bigdft_program(c.params);
    });
    checks.expect(c.op, verifier_errors(rec, c.program) == 0,
                  "bigdft program fails verification");
  }
  rec.close();
  round.rss_after_setup_mb = to_mb(read_mem().rss);

  rec.open("timed", Phase::kTimed);
  for (Case& c : cases) c.run = run_des(rec, c.cluster, c.program, tally);
  round.hwm_after_des_mb = to_mb(read_mem().hwm);
  for (Case& c : cases) {
    c.cost = rec.call("verify.cost", [&] {
      return mb::verify::analyze_cost(c.program, descriptor_of(c.cluster));
    });
    tally.verify_messages += static_cast<double>(c.cost.total_messages);
  }
  const Case& scaled = cases[1];
  const std::string json = rec.call("json.write", [&] {
    return mb::verify::static_analysis_to_json(scaled.cost, "bigdft",
                                               scaled.params.seed, {});
  });
  tally.json_bytes += static_cast<double>(json.size());
  const mb::support::JsonValue doc =
      rec.call("json.read", [&] { return mb::support::parse_json(json); });
  for (int i = 0; i < 2; ++i) {
    Case& c = cases[i];
    const mb::trace::Trace back = trace_round_trip(
        rec, c.run.result.trace, c.params.ranks, c.params.seed,
        ctx.tmpdir + "/bigdft-" + std::to_string(i) + ".mbt", tally);
    checks.expect(c.op, same_records(c.run.result.trace, back),
                  "mb-trace read back differs from the records written");
    c.analysis = rec.call("obs.analyze", [&] {
      return mb::obs::analyze_timeline(back, nullptr);
    });
  }
  rec.close();

  for (Case& c : cases) {
    const std::uint32_t p = c.params.ranks;
    const std::string at = " at " + std::to_string(p) + " ranks";
    checks.expect(c.op, c.run.result.completed, "DES did not complete" + at);
    // Exact byte accounting: the DES counters equal the analyzer's, and
    // both carry the alltoallv payload recomputed from the parameters.
    bool exact = c.cost.per_rank.size() == p;
    for (std::uint32_t r = 0; exact && r < p; ++r)
      exact = c.run.sent[r] ==
              static_cast<double>(c.cost.per_rank[r].bytes_sent);
    checks.expect(c.op, exact, "DES bytes differ from the analyzer's" + at);
    const std::uint64_t per_pair = std::max<std::uint64_t>(
        1, c.params.transpose_bytes / (std::uint64_t{p} * p));
    const std::uint64_t instances =
        std::uint64_t{c.params.iterations} * c.params.transposes;
    std::uint64_t alltoallv = 0;
    bool payload_ok = true;
    for (const auto& coll : c.cost.collectives) {
      if (coll.label != "alltoallv") continue;
      ++alltoallv;
      payload_ok = payload_ok &&
                   coll.payload_bytes == std::uint64_t{p} * (p - 1) * per_pair;
    }
    checks.expect(c.op, payload_ok && alltoallv == instances,
                  "alltoallv payload differs from the parameters" + at);
    const double floor_bytes =
        static_cast<double>(instances * (p - 1) * per_pair);
    bool contains = true;
    for (std::uint32_t r = 0; r < p; ++r)
      contains = contains && c.run.sent[r] >= floor_bytes;
    checks.expect(c.op, contains,
                  "DES bytes miss the alltoallv payload" + at);
    checks.expect(c.op, in_bracket(c.run.result.makespan_s, c.cost),
                  "makespan outside the analyzer's bracket" + at);
  }

  // Fig. 4: congestion delays some, never all, alltoallv instances.
  const Case& fig4 = cases[0];
  std::size_t delayed = 0;
  std::size_t seen = 0;
  for (const auto& coll : fig4.analysis.collectives) {
    if (coll.label != "alltoallv") continue;
    delayed = coll.delayed;
    seen = coll.instances;
  }
  checks.expect(fig4.op, seen > 0 && delayed > 0 && delayed < seen,
                "Fig. 4: " + std::to_string(delayed) + " of " +
                    std::to_string(seen) + " alltoallv instances delayed");

  // Fig. 3c: strong scaling collapses on the Tibidabo tree.
  const auto per_iter = [](const Case& c) {
    return c.run.result.makespan_s / c.params.iterations;
  };
  const double efficiency =
      (per_iter(fig4) * fig4.params.ranks) /
      (per_iter(scaled) * scaled.params.ranks);
  checks.expect(scaled.op, efficiency < 0.5,
                "parallel efficiency " + std::to_string(kFig4Ranks) + " -> " +
                    std::to_string(kScaledRanks) + " ranks is " +
                    std::to_string(efficiency) + ", not below 0.5");

  // The analysis document parses back to the analyzer's own figures.
  const auto* totals = doc.find("totals");
  checks.expect(scaled.op,
                totals != nullptr &&
                    totals->at("payload_bytes").as_number() ==
                        static_cast<double>(scaled.cost.total_bytes),
                "mb-static-analysis JSON does not read back");

  tally.into(round);
  checks.finish();
  return round;
}

// ---------------------------------------------------------------------------
// halo-4k: SPECFEM3D halo exchange and HPL broadcasts at 4096 ranks on the
// sharded engine (2 workers), traces captured through the streaming sink,
// written as mb-trace, read back and analyzed.

constexpr std::uint32_t kHaloRanks = 4096;

RoundResult halo_round(Recorder& rec, const Context& ctx) {
  RoundResult round;
  Checks checks(round);
  Tally tally;

  mb::apps::SpecfemParams specfem;
  specfem.ranks = kHaloRanks;
  specfem.steps = 8;
  specfem.compute_s_per_step = 200.0;
  specfem.halo_bytes = 64 * 1024;
  specfem.seed = mb::support::derive_seed(ctx.seed, kHaloRanks);
  mb::apps::HplParams hpl;
  hpl.ranks = kHaloRanks;
  hpl.n = 4096;
  hpl.block = 128;

  const auto cluster = [&](std::uint32_t mtu) {
    ClusterConfig c = mb::apps::tibidabo_cluster(kHaloRanks / 2);
    c.mpi.verify = false;  // verified in set-up
    c.sim_jobs = 2;
    c.mtu_bytes = mtu;
    c.streaming_trace = true;
    c.trace_sink.ring_capacity = 0;  // keep every record
    c.trace_sink.seed = specfem.seed;
    c.trace_sink.tool_version = std::string(mb::support::version());
    return c;
  };
  const ClusterConfig specfem_cluster = cluster(mb::net::Network::kMtuBytes);
  // Panel broadcasts are megabytes: whole-message frames, as the
  // scaling suite runs HPL.
  const ClusterConfig hpl_cluster = cluster(1u << 20);
  const std::size_t specfem_op = checks.op();
  const std::size_t hpl_op = checks.op();

  rec.open("setup", Phase::kSetup);
  const Program specfem_program = rec.call("apps.build", [&] {
    return mb::apps::specfem_program(specfem);
  });
  checks.expect(specfem_op, verifier_errors(rec, specfem_program) == 0,
                "specfem program fails verification");
  const Program hpl_program =
      rec.call("apps.build", [&] { return mb::apps::hpl_program(hpl); });
  checks.expect(hpl_op, verifier_errors(rec, hpl_program) == 0,
                "hpl program fails verification");
  rec.close();
  round.rss_after_setup_mb = to_mb(read_mem().rss);

  rec.open("timed", Phase::kTimed);
  struct Run {
    std::size_t op;
    DesRun des;
    mb::trace::Trace back;
    mb::obs::Analysis analysis;
    std::string json;
    mb::support::JsonValue doc;
  };
  Run runs[2] = {{specfem_op, run_des(rec, specfem_cluster, specfem_program,
                                      tally), {}, {}, {}, {}},
                 {hpl_op, run_des(rec, hpl_cluster, hpl_program, tally), {},
                  {}, {}, {}}};
  round.hwm_after_des_mb = to_mb(read_mem().hwm);
  for (int i = 0; i < 2; ++i) {
    Run& run = runs[i];
    run.back = trace_round_trip(
        rec, run.des.result.trace, kHaloRanks, specfem.seed,
        ctx.tmpdir + "/halo-" + std::to_string(i) + ".mbt", tally);
    run.analysis = rec.call("obs.analyze", [&] {
      return mb::obs::analyze_timeline(run.back, nullptr);
    });
    run.json = rec.call("json.write",
                        [&] { return mb::obs::to_json(run.analysis); });
    tally.json_bytes += static_cast<double>(run.json.size());
    run.doc = rec.call("json.read",
                       [&] { return mb::support::parse_json(run.json); });
  }
  rec.close();

  for (Run& run : runs) {
    const AppRunResult& res = run.des.result;
    checks.expect(run.op, res.completed && res.trace_dropped == 0,
                  "run did not complete or dropped trace records");
    checks.expect(run.op, !res.trace.records().empty() &&
                              same_records(res.trace, run.back),
                  "mb-trace read back differs from the records written");
    const mb::support::JsonValue* records = run.doc.find("records");
    checks.expect(run.op,
                  run.analysis.records == res.trace.size() &&
                      records != nullptr &&
                      records->as_number() ==
                          static_cast<double>(res.trace.size()),
                  "mb-analysis does not account for every record");
  }
  const double halo_total =
      2.0 * static_cast<double>(specfem.halo_bytes) * specfem.steps;
  bool halo_exact = true;
  for (const double sent : runs[0].des.sent)
    halo_exact = halo_exact && sent == halo_total;
  checks.expect(specfem_op, halo_exact,
                "a SPECFEM rank did not send exactly 2 x halo x steps bytes");
  const double gflops =
      mb::apps::hpl_gflops(hpl, runs[1].des.result.makespan_s);
  const double peak_gflops = hpl.ranks / hpl.seconds_per_flop / 1e9;
  checks.expect(hpl_op, gflops > 0.0 && gflops <= peak_gflops,
                "HPL reaches " + std::to_string(gflops) +
                    " GFLOPS, above the " + std::to_string(peak_gflops) +
                    " GFLOPS peak");

  tally.into(round);
  checks.finish();
  return round;
}

// ---------------------------------------------------------------------------
// fuzz-oracles: a seeded sweep over the five generator patterns with
// planted defects, each seed through the four differential oracles.

constexpr std::uint64_t kFuzzSeeds = 2000;
constexpr std::uint64_t kChaosEvery = 25;
constexpr std::uint64_t kReplayEvery = 10;
constexpr double kDefectRate = 0.25;

RoundResult fuzz_round(Recorder& rec, const Context& ctx) {
  RoundResult round;
  Checks checks(round);
  Tally tally;

  mb::gen::SweepSpec spec;
  spec.base.defect_prob = kDefectRate;
  std::vector<std::uint64_t> gen_seeds(kFuzzSeeds);
  std::vector<mb::gen::GenParams> params(kFuzzSeeds);
  std::vector<std::size_t> ops(kFuzzSeeds);
  for (std::uint64_t i = 0; i < kFuzzSeeds; ++i) {
    gen_seeds[i] = mb::support::derive_seed(ctx.seed, i);
    params[i] = mb::gen::sweep_params(gen_seeds[i], spec);
    ops[i] = checks.op();
  }

  rec.open("setup", Phase::kSetup);
  std::vector<mb::gen::GeneratedProgram> programs(kFuzzSeeds);
  for (std::uint64_t i = 0; i < kFuzzSeeds; ++i) {
    programs[i] = rec.call("gen.generate", [&] {
      return mb::gen::generate(gen_seeds[i], params[i]);
    });
    const bool flagged = verifier_errors(rec, programs[i].program) > 0;
    checks.expect(ops[i], flagged == programs[i].has_defect(),
                  "seed " + std::to_string(i) +
                      (flagged ? ": clean program flagged by the verifier"
                               : ": planted defect not flagged"));
  }
  rec.close();
  tally.gen_programs = static_cast<double>(kFuzzSeeds);
  round.rss_after_setup_mb = to_mb(read_mem().rss);

  rec.open("timed", Phase::kTimed);
  for (std::uint64_t i = 0; i < kFuzzSeeds; ++i) {
    const std::string tag = "seed " + std::to_string(i) + ": ";
    mb::gen::DiffConfig config;
    config.with_chaos = i % kChaosEvery == 0;
    const mb::gen::SeedOutcome outcome = rec.call("gen.differential", [&] {
      return mb::gen::run_differential(gen_seeds[i], params[i], programs[i],
                                       config);
    });
    checks.expect(ops[i], outcome.ok(),
                  tag + "oracle " + outcome.failed_oracle + " disagrees");
    checks.expect(ops[i], outcome.des_completed != programs[i].has_defect(),
                  tag + "DES completion contradicts the planted defect");
    if (!programs[i].has_defect()) {
      // Clean programs also run once on their own, apart from the
      // oracles: they must complete, with the serial arm's makespan.
      ClusterConfig cluster = mb::apps::tibidabo_cluster(params[i].ranks / 2);
      cluster.mpi.verify = false;  // verified in set-up
      const DesRun run = run_des(rec, cluster, programs[i].program, tally);
      checks.expect(ops[i],
                    run.result.completed &&
                        run.result.makespan_s == outcome.makespan_s,
                    tag + "clean program does not complete as the "
                          "differential's serial arm did");
    }
    if (i % kReplayEvery != 0) continue;
    const std::size_t replay_op = checks.op();
    const std::string text = rec.call("json.write", [&] {
      return mb::gen::to_json(mb::gen::make_bundle(outcome, config, ctx.seed));
    });
    const mb::gen::ReproBundle bundle = rec.call(
        "json.read", [&] { return mb::gen::bundle_from_json(text); });
    const std::string again =
        rec.call("json.write", [&] { return mb::gen::to_json(bundle); });
    tally.json_bytes += static_cast<double>(text.size() + again.size());
    checks.expect(replay_op, again == text,
                  tag + "mb-repro bundle does not re-serialize identically");
    const mb::gen::ReplayOutcome replay = rec.call(
        "gen.replay", [&] { return mb::gen::replay_bundle(bundle); });
    checks.expect(replay_op, replay.match(), tag + "replay mismatch");
  }
  rec.close();
  round.hwm_after_des_mb = to_mb(read_mem().hwm);

  tally.into(round);
  checks.finish();
  return round;
}

constexpr std::pair<std::string_view, RoundFn> kWorkloads[] = {
    {"bigdft-alltoallv", &bigdft_round},
    {"halo-4k", &halo_round},
    {"fuzz-oracles", &fuzz_round},
};

}  // namespace

RoundFn find_workload(std::string_view name) {
  for (const auto& [n, fn] : kWorkloads)
    if (n == name) return fn;
  return nullptr;
}

std::vector<std::string_view> workload_names() {
  std::vector<std::string_view> names;
  for (const auto& w : kWorkloads) names.push_back(w.first);
  return names;
}

}  // namespace perfbench
