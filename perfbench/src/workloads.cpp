#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <thread>

#include "exp/engine.hpp"
#include "exp/registry.hpp"
#include "exp/shard.hpp"
#include "exp/spec.hpp"
#include "layers.hpp"
#include "obs/telemetry.hpp"
#include "pipeline.hpp"
#include "stats.hpp"
#include "svc/job.hpp"
#include "svc/server.hpp"
#include "svc/worker_pool.hpp"
#include "timed_adversary.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {
namespace {

using amo::usize;
using amo::exp::run_report;
using amo::exp::run_spec;
using counts = std::vector<std::pair<std::string, std::uint64_t>>;

constexpr usize setup_reps = 9;       ///< set-up is repeated; its median is reported
constexpr usize min_iterations = 3;   ///< per untraced window, whatever its length
constexpr std::uint64_t sample_period = 61;  ///< 1 decision in 61 is clocked

// kk_solo
constexpr usize kk_n = usize{1} << 20;
constexpr usize kk_warmup_n = usize{1} << 14;
constexpr usize kk_m = 16;

// replica_sweep
constexpr usize sweep_n = 256;
constexpr usize sweep_m = 4;
constexpr usize sweep_seeds = 32;
constexpr usize sweep_replicas = 64;
constexpr usize sweep_shards = 8;
const std::vector<std::string> sweep_scenarios = {
    "kk/random+crash", "kk/stale_view", "iterative/random+crash",
    "wa/random+crash"};

// model_por, and the probe instance that times the model layer on the
// workloads that do not run it.
constexpr amo::model::model_config por_cfg{5, 3, 3, amo::selection_rule::paper_rank,
                                           amo::kk_mode::plain, 2};
constexpr amo::model::model_config probe_cfg{4, 3, 3, amo::selection_rule::paper_rank,
                                             amo::kk_mode::plain, 2};
/// min_effectiveness of the brute-force row plain/n5m3b3f2 in BENCH_model.json.
constexpr usize por_min_effectiveness = 1;
/// Simulated executions of the model_por instance that time sim/core/sets
/// at its n and m (the model checker itself does not run kk_process).
constexpr usize por_sim_runs = 20000;

usize pool_workers() {
  return std::clamp<usize>(std::thread::hardware_concurrency(), 1, 4);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double per_unit_us(double seconds, std::uint64_t units) {
  return units == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(units);
}

double mean_ns(std::uint64_t ns, std::uint64_t samples) {
  return samples == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(samples);
}

/// Totals of one measured pass over a workload's inputs.
struct pass {
  double wall_s = 0.0;
  std::uint64_t steps = 0;   ///< scheduled steps (model: transitions fired)
  std::uint64_t units = 0;   ///< (cell, replica) units completed
  std::uint64_t states = 0;  ///< system states visited
  std::uint64_t colfmt_bytes = 0;
  counts exact;              ///< counts that must repeat bit-identically
};

/// Records one checked operation.
void attempt(workload_result& out, bool ok, const std::string& what) {
  ++out.attempted;
  if (ok) return;
  ++out.failed;
  if (out.problems.size() < 16) out.problems.push_back(what);
}

/// Pins a pass's exact counts: the first pass of a run sets them, every
/// later pass must reproduce them.
void pin_counts(workload_result& out, const counts& c) {
  if (out.fingerprint.empty()) {
    out.fingerprint = c;
  } else if (c != out.fingerprint) {
    out.problems.push_back("exact counts differ between passes of one run");
  }
}

/// "" when the unit's report passes every check its algorithm family owes.
std::string unit_problem(const run_report& r) {
  if (!r.quiescent) return "did not quiesce";
  switch (r.algo) {
    case amo::exp::algo_family::wa_iterative:
      return r.wa_complete ? "" : "write-all incomplete";
    case amo::exp::algo_family::kk:
      if (!r.at_most_once) return "at-most-once violated";
      // Theorem 4.1: effectiveness >= n - (beta + m - 2), crashes or not.
      if (r.effectiveness + r.beta + r.m < r.n + 2) {
        return "effectiveness " + std::to_string(r.effectiveness) +
               " below n-(beta+m-2)";
      }
      return "";
    default:
      return r.at_most_once ? "" : "at-most-once violated";
  }
}

std::string describe(const run_report& r) {
  return r.label + " n=" + std::to_string(r.n) + " m=" + std::to_string(r.m) +
         " seed=" + std::to_string(r.seed);
}

/// One executed run or unit as a checked operation.
void check_unit(workload_result& out, const run_report& r) {
  const std::string problem = unit_problem(r);
  attempt(out, problem.empty(),
          problem.empty() ? problem : describe(r) + ": " + problem);
}

/// Builds a context `setup_reps` times, keeping the last; returns the
/// median build time. Destroying the previous context is not timed.
template <class Ctx, class Make>
std::unique_ptr<Ctx> timed_setup(Make make, double& setup_s) {
  std::vector<double> times;
  std::unique_ptr<Ctx> ctx;
  for (usize i = 0; i < setup_reps; ++i) {
    ctx.reset();
    amo::stopwatch clock;
    ctx = make();
    times.push_back(clock.seconds());
  }
  setup_s = median(times);
  return ctx;
}

/// Untraced passes until the window has elapsed (at least min_iterations).
template <class F>
std::vector<pass> measure(double seconds, F&& one_pass) {
  std::vector<pass> passes;
  amo::stopwatch window;
  while (passes.size() < min_iterations || window.seconds() < seconds) {
    passes.push_back(one_pass());
  }
  return passes;
}

std::string summary_line(const char* name, const char* unit,
                         const std::vector<double>& v) {
  const summary s = summarize(v);
  std::string passes;
  for (const double x : v) {
    char one[32];
    std::snprintf(one, sizeof one, " %.6g", x);
    passes += one;
  }
  char buf[256];
  if (s.tail_percentile > 0) {
    std::snprintf(buf, sizeof buf, "%-16s median %.6g %s, p%g %.6g (%zu passes)",
                  name, s.median, unit, s.tail_percentile, s.tail, s.count);
  } else {
    std::snprintf(buf, sizeof buf,
                  "%-16s median %.6g %s (%zu passes; too few for a tail "
                  "percentile)",
                  name, s.median, unit, s.count);
  }
  return buf + std::string("\n    passes:") + passes;
}

void add_end_to_end(workload_result& out, double setup_s,
                    const std::vector<pass>& passes) {
  std::vector<double> steps, units, states, bytes;
  for (const pass& p : passes) {
    steps.push_back(static_cast<double>(p.steps) / p.wall_s);
    units.push_back(static_cast<double>(p.units) / p.wall_s);
    states.push_back(static_cast<double>(p.states) / p.wall_s);
    bytes.push_back(static_cast<double>(p.colfmt_bytes) /
                    static_cast<double>(std::max<std::uint64_t>(p.units, 1)));
  }
  out.metrics = {
      {"setup_s", setup_s, "s"},
      {"steps_per_s", median(steps), "1/s"},
      {"units_per_s", median(units), "1/s"},
      {"states_per_s", median(states), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"bytes_per_unit", median(bytes), "B"},
  };
  out.notes.push_back(summary_line("steps_per_s", "1/s", steps));
  out.notes.push_back(summary_line("units_per_s", "1/s", units));
  out.notes.push_back(summary_line("states_per_s", "1/s", states));
}

/// Everything a traced run gathers before it is turned into metrics.
struct layer_inputs {
  adversary_tally tally;
  std::uint64_t work_ops = 0;
  usize n = 0;
  usize m = 0;
  std::uint64_t seed = 0;
  stage_times stages;           ///< summed over the traced passes
  std::uint64_t traced_passes = 0;
  std::uint64_t units = 0;      ///< per pass
  std::uint64_t cells = 0;      ///< per pass
  std::uint64_t colfmt_bytes = 0;  ///< per pass
  double unit_span_s = 0.0;     ///< summed over the traced passes
  std::uint64_t steals = 0;     ///< summed over the traced passes
  usize workers = 1;
  model_costs model;
  std::vector<double> traced_wall;
  std::vector<double> untraced_wall;
};

void add_per_layer(workload_result& out, const layer_inputs& in) {
  std::vector<metric_value>& mv = out.metrics;
  const adversary_tally& t = in.tally;
  mv.push_back({"sim.decide_ns", mean_ns(t.decide_ns, t.decide_samples), "ns"});
  mv.push_back({"sim.decisions", static_cast<double>(t.decisions), "count"});
  for (usize k = 0; k < action_kind_names.size(); ++k) {
    mv.push_back({std::string("core.step_ns.") + action_kind_names[k],
                  mean_ns(t.step_ns[k], t.step_samples[k]), "ns"});
  }
  for (usize k = 0; k < action_kind_names.size(); ++k) {
    mv.push_back({std::string("core.actions.") + action_kind_names[k],
                  static_cast<double>(t.actions[k]), "count"});
  }
  mv.push_back({"core.work_ops", static_cast<double>(in.work_ops), "count"});

  set_op_counts ops;
  ops.try_inserts = t.actions[2];   // gatherTry reads next_q into TRY
  ops.free_erases = t.actions[2];   // gatherDone erases done_q entries from FREE
  ops.try_contains = t.actions[0];  // check probes TRY
  ops.free_selects = t.actions[1];  // one compNext select per announce
  ops.free_ranks = t.actions[1];
  const set_costs sc = replay_sets(in.n, in.m, ops, in.seed);
  mv.push_back({"sets.try_insert_ns", sc.try_insert_ns, "ns"});
  mv.push_back({"sets.try_contains_ns", sc.try_contains_ns, "ns"});
  mv.push_back({"sets.free_select_ns", sc.free_select_ns, "ns"});
  mv.push_back({"sets.free_erase_ns", sc.free_erase_ns, "ns"});
  mv.push_back({"sets.free_rank_ns", sc.free_rank_ns, "ns"});
  mv.push_back({"sets.working_set_bytes",
                static_cast<double>(set_working_set_bytes(in.n, in.m)), "B"});
  out.notes.push_back("sets replay checksum " + std::to_string(sc.checksum));

  mv.push_back({"analysis.checker_record_ns",
                checker_record_ns(in.n, in.m, in.seed), "ns"});

  const std::uint64_t units = in.units * in.traced_passes;
  const stage_times& s = in.stages;
  mv.push_back({"svc.execute_us_per_unit", per_unit_us(s.execute_s, units), "us"});
  mv.push_back({"exp.render_us_per_unit", per_unit_us(s.render_s, units), "us"});
  mv.push_back({"exp.reparse_us_per_unit", per_unit_us(s.reparse_s, units), "us"});
  mv.push_back({"exp.encode_us_per_unit", per_unit_us(s.encode_s, units), "us"});
  mv.push_back({"svc.write_us_per_unit", per_unit_us(s.write_s, units), "us"});
  mv.push_back({"exp.merge_us_per_unit", per_unit_us(s.merge_s, units), "us"});
  const double pool_capacity_s = static_cast<double>(in.workers) * s.execute_s;
  mv.push_back({"svc.pool_busy_ratio",
                pool_capacity_s > 0 ? in.unit_span_s / pool_capacity_s : 0.0,
                "ratio"});
  mv.push_back({"svc.pool_steals",
                static_cast<double>(in.steals) /
                    static_cast<double>(std::max<std::uint64_t>(in.traced_passes, 1)),
                "count"});
  mv.push_back({"exp.units", static_cast<double>(in.units), "count"});
  mv.push_back({"exp.cells", static_cast<double>(in.cells), "count"});
  mv.push_back({"exp.colfmt_bytes", static_cast<double>(in.colfmt_bytes), "B"});

  const amo::model::explore_result& mr = in.model.result;
  mv.push_back({"model.ns_per_state",
                mr.states == 0 ? 0.0
                               : in.model.pooled_s * 1e9 / static_cast<double>(mr.states),
                "ns"});
  mv.push_back({"model.pool_speedup",
                in.model.pooled_s > 0 ? in.model.serial_s / in.model.pooled_s : 0.0,
                "x"});
  mv.push_back({"model.states", static_cast<double>(mr.states), "count"});
  mv.push_back({"model.transitions", static_cast<double>(mr.transitions), "count"});
  mv.push_back({"model.sleep_pruned",
                static_cast<double>(in.model.stats.sleep_pruned), "count"});
  mv.push_back({"model.full_states",
                static_cast<double>(in.model.stats.full_states), "count"});
  mv.push_back({"model.peak_frontier",
                static_cast<double>(in.model.stats.peak_frontier), "count"});

  const double traced = median(in.traced_wall);
  const double untraced = median(in.untraced_wall);
  mv.push_back({"trace.overhead_s", traced - untraced, "s"});
  mv.push_back({"trace.overhead_share",
                untraced > 0 ? (traced - untraced) / untraced : 0.0, "ratio"});
}

/// Appends a traced tally's exact counts to a pass's.
void add_tally_counts(counts& c, const adversary_tally& t) {
  c.emplace_back("decisions", t.decisions);
  for (usize k = 0; k < action_kind_names.size(); ++k) {
    c.emplace_back(std::string("actions.") + action_kind_names[k], t.actions[k]);
  }
}

/// Alternates untraced and traced passes until the window has elapsed (at
/// least one pair). Each traced pass runs inside an obs::session whose spans
/// and counters are folded into `in`, and its exact counts are pinned.
template <class Plain, class Traced>
void traced_window(double seconds, workload_result& out, layer_inputs& in,
                   Plain&& plain, Traced&& traced) {
  amo::stopwatch window;
  while (in.traced_passes == 0 || window.seconds() < seconds) {
    in.untraced_wall.push_back(plain().wall_s);
    amo::obs::session session;
    const pass p = traced();
    in.traced_wall.push_back(p.wall_s);
    const trace_fold f = fold_trace(session.sink());
    if (!f.error.empty()) out.problems.push_back(f.error);
    if (f.dropped != 0) out.problems.push_back("trace ring dropped events");
    in.unit_span_s += f.unit_span_s;
    in.steals += f.steals;
    in.units = p.units;
    in.colfmt_bytes = p.colfmt_bytes;
    pin_counts(out, p.exact);
    ++in.traced_passes;
  }
}

/// The record path of a one-unit workload: render, re-parse, encode,
/// write, merge. False with `error` on any failure, or when the merge does
/// not give back exactly one cell of one unit.
bool record_one(const run_spec& spec, const run_report& r,
                const std::string& path, stage_times& t, std::uint64_t& bytes,
                std::string& error) {
  amo::stopwatch clock;
  const std::string doc = render_unit_document(spec, r);
  t.render_s += clock.seconds();
  std::string encoded;
  merged_output merged;
  if (!encode_colfmt(doc, encoded, t, error) ||
      !write_artifact(path, encoded, t, error) ||
      !merge_artifacts({path}, merged, t, error)) {
    return false;
  }
  bytes = encoded.size();
  if (merged.cells != 1 || merged.units != 1) {
    error = "merge of one unit gave " + std::to_string(merged.cells) +
            " cells / " + std::to_string(merged.units) + " units";
    return false;
  }
  return true;
}

/// Times explore_por on the probe instance for the workloads that do not
/// run the model checker, so every traced run reports the model layer.
void probe_model(workload_result& out, layer_inputs& in) {
  amo::svc::worker_pool pool(in.workers);
  attempt(out, measure_model(probe_cfg, pool, in.model),
          "model probe: pooled and serial explore_por disagree");
}

// ----- kk_solo ---------------------------------------------------------

run_spec kk_spec(std::uint64_t seed, usize n) {
  run_spec s;
  s.label = "kk_solo";
  s.algo = amo::exp::algo_family::kk;
  s.n = n;
  s.m = kk_m;
  s.beta = kk_m;
  s.crash_budget = 0;
  s.adversary = {"random", seed};
  return s;
}

struct kk_ctx {
  run_spec spec;
  std::string path;
};

/// One pass: the run (decorated when `adv` is given), then its record path.
pass kk_pass(const kk_ctx& c, workload_result& out, amo::sim::adversary* adv,
             stage_times& t, run_report& rep) {
  pass p;
  amo::stopwatch clock;
  rep = adv != nullptr ? amo::exp::run(c.spec, *adv) : amo::exp::run(c.spec);
  t.execute_s += clock.seconds();
  check_unit(out, rep);
  std::string error;
  if (!record_one(c.spec, rep, c.path, t, p.colfmt_bytes, error)) {
    out.problems.push_back("kk_solo record path: " + error);
  }
  p.wall_s = clock.seconds();
  p.steps = rep.total_steps;
  p.units = 1;
  p.states = rep.total_steps;
  p.exact = {{"steps", rep.total_steps},
             {"crashes", rep.crashes},
             {"work_ops", rep.total_work.total()},
             {"effectiveness", rep.effectiveness},
             {"colfmt_bytes", p.colfmt_bytes}};
  return p;
}

workload_result run_kk_solo(const workload_options& opt) {
  workload_result out;
  double setup_s = 0.0;
  const auto ctx = timed_setup<kk_ctx>(
      [&] {
        auto c = std::make_unique<kk_ctx>();
        c->spec = kk_spec(opt.seed, kk_n);
        c->path = opt.work_dir + "/kk_solo.amoc";
        // Warm-up: a 1/64-size run through the same path faults in code
        // and allocator arenas before anything is timed.
        kk_ctx warm{kk_spec(opt.seed, kk_warmup_n), c->path};
        workload_result ignored;
        stage_times t;
        run_report rep;
        kk_pass(warm, ignored, nullptr, t, rep);
        return c;
      },
      setup_s);

  if (!opt.trace) {
    const std::vector<pass> passes = measure(opt.seconds, [&] {
      stage_times t;
      run_report rep;
      pass p = kk_pass(*ctx, out, nullptr, t, rep);
      pin_counts(out, p.exact);
      return p;
    });
    add_end_to_end(out, setup_s, passes);
    return out;
  }

  layer_inputs in;
  in.n = kk_n;
  in.m = kk_m;
  in.seed = opt.seed;
  in.cells = 1;
  in.workers = pool_workers();
  run_report plain;
  traced_window(
      opt.seconds, out, in,
      [&] {
        stage_times t;
        return kk_pass(*ctx, out, nullptr, t, plain);
      },
      [&] {
        const std::unique_ptr<amo::sim::adversary> inner =
            amo::exp::make_adversary(ctx->spec.adversary);
        adversary_tally tally;
        timed_adversary adv(*inner, sample_period, tally);
        run_report traced;
        pass p = kk_pass(*ctx, out, &adv, in.stages, traced);
        attempt(out, amo::exp::equivalent(plain, traced),
                "decorated kk_solo run differs from the plain run");
        add_tally_counts(p.exact, tally);
        in.tally += tally;
        in.work_ops = traced.total_work.total();
        return p;
      });
  // The counts are reported per pass; the clocks stay summed over passes.
  for (std::uint64_t& a : in.tally.actions) a /= in.traced_passes;
  in.tally.decisions /= in.traced_passes;
  probe_model(out, in);
  add_per_layer(out, in);
  return out;
}

// ----- replica_sweep ---------------------------------------------------

amo::svc::job sweep_job(std::uint64_t seed, usize seeds, usize replicas) {
  amo::svc::job j;
  j.scenarios = sweep_scenarios;
  j.params.n = sweep_n;
  j.params.m = sweep_m;
  j.params.seed = seed;
  j.params.seeds = seeds;
  j.params.replicas = replicas;
  j.scheduled_only = true;
  j.no_timing = true;  // wall clocks would break the byte-identity check
  return j;
}

std::vector<amo::svc::job> shard_jobs(const amo::svc::job& whole, usize k) {
  std::vector<amo::svc::job> jobs;
  for (usize i = 0; i < k; ++i) {
    amo::svc::job j = whole;
    j.have_shard = true;
    j.shard = {i, k};
    jobs.push_back(j);
  }
  return jobs;
}

struct sweep_ctx {
  std::unique_ptr<amo::svc::worker_pool> pool;
  amo::svc::job whole;
  std::vector<amo::svc::job> shards;
  std::vector<std::string> paths;
};

/// Runs the shard jobs one after another, then merges their artifacts.
/// Stage clocks accumulate into `t`. Traced passes split render_output into
/// its three public calls so each is clocked; `unit_reports` (when given)
/// receives every unit's report at its global unit index.
pass sweep_pass(const sweep_ctx& c, workload_result& out, bool traced,
                stage_times& t, std::string& merged_json,
                std::vector<run_report>* unit_reports) {
  pass p;
  const double clocked_before = t.total();
  std::uint64_t work = 0;
  std::uint64_t effectiveness = 0;
  std::uint64_t cells = 0;
  for (usize i = 0; i < c.shards.size(); ++i) {
    amo::stopwatch clock;
    const amo::svc::job_result r = amo::svc::execute_job(c.shards[i], *c.pool);
    t.execute_s += clock.seconds();
    if (!r.ok()) {
      attempt(out, false, "shard " + std::to_string(i) + ": " + r.error);
      continue;
    }
    cells = r.cells_total;
    for (usize k = 0; k < r.runs().size(); ++k) {
      const run_report& rep = r.runs()[k];
      check_unit(out, rep);
      p.steps += rep.total_steps;
      work += rep.total_work.total();
      effectiveness += rep.effectiveness;
      if (unit_reports != nullptr) (*unit_reports)[r.units[k].unit] = rep;
    }
    p.units += r.runs().size();

    std::string bytes;
    std::string error;
    bool ok = true;
    if (traced) {
      clock.reset();
      const std::string json = r.render_json();
      t.render_s += clock.seconds();
      ok = encode_colfmt(json, bytes, t, error);
      if (ok && i == 0) {
        std::string direct;
        if (!r.render_output(amo::exp::record_format::colfmt, direct, error) ||
            direct != bytes) {
          out.problems.push_back("split render differs from render_output");
        }
      }
    } else {
      clock.reset();
      ok = r.render_output(amo::exp::record_format::colfmt, bytes, error);
      t.render_s += clock.seconds();
    }
    ok = ok && write_artifact(c.paths[i], bytes, t, error);
    if (!ok) out.problems.push_back("shard " + std::to_string(i) + ": " + error);
    p.colfmt_bytes += bytes.size();
  }
  merged_output merged;
  std::string error;
  if (!merge_artifacts(c.paths, merged, t, error)) {
    out.problems.push_back(error);
  }
  merged_json = std::move(merged.json);
  p.wall_s = t.total() - clocked_before;
  p.states = p.steps;
  p.exact = {{"units", p.units},     {"cells", cells},
             {"steps", p.steps},     {"work_ops", work},
             {"effectiveness", effectiveness},
             {"colfmt_bytes", p.colfmt_bytes}};
  return p;
}

workload_result run_replica_sweep(const workload_options& opt) {
  workload_result out;
  double setup_s = 0.0;
  const auto ctx = timed_setup<sweep_ctx>(
      [&] {
        auto c = std::make_unique<sweep_ctx>();
        c->pool = std::make_unique<amo::svc::worker_pool>(pool_workers());
        c->whole = sweep_job(opt.seed, sweep_seeds, sweep_replicas);
        c->shards = shard_jobs(c->whole, sweep_shards);
        for (usize i = 0; i < sweep_shards; ++i) {
          c->paths.push_back(opt.work_dir + "/replica_sweep." +
                             std::to_string(i) + ".amoc");
        }
        // Warm-up: the grid's first seed (256 units) through the same path,
        // on a 1-worker pool that runs inline, as model_por's warm-up does.
        sweep_ctx warm;
        warm.pool = std::make_unique<amo::svc::worker_pool>(1);
        warm.shards = shard_jobs(sweep_job(opt.seed, 1, sweep_replicas), 2);
        warm.paths = {c->paths[0], c->paths[1]};
        workload_result ignored;
        stage_times t;
        std::string merged;
        sweep_pass(warm, ignored, false, t, merged, nullptr);
        return c;
      },
      setup_s);

  // The reference the merged output must equal byte for byte: the same
  // grid executed unsharded. Computed outside every clock.
  const amo::svc::job_result whole = amo::svc::execute_job(ctx->whole, *ctx->pool);
  if (!whole.ok()) {
    out.problems.push_back("unsharded reference: " + whole.error);
    return out;
  }
  const std::string reference = whole.render_json();
  const usize units_total = whole.units_total;
  auto check_merge = [&](const std::string& merged) {
    attempt(out, merged == reference,
            "merged shards differ from the unsharded execute_job output");
  };

  if (!opt.trace) {
    const std::vector<pass> passes = measure(opt.seconds, [&] {
      stage_times t;
      std::string merged;
      pass p = sweep_pass(*ctx, out, false, t, merged, nullptr);
      check_merge(merged);
      pin_counts(out, p.exact);
      return p;
    });
    add_end_to_end(out, setup_s, passes);
    return out;
  }

  layer_inputs in;
  in.n = sweep_n;
  in.m = sweep_m;
  in.seed = opt.seed;
  in.workers = ctx->pool->size();
  std::vector<run_report> unit_reports(units_total);
  auto checked_pass = [&](bool traced, stage_times& t) {
    std::string merged;
    pass p = sweep_pass(*ctx, out, traced, t, merged,
                        traced ? &unit_reports : nullptr);
    check_merge(merged);
    return p;
  };
  traced_window(
      opt.seconds, out, in,
      [&] {
        stage_times t;
        return checked_pass(false, t);
      },
      [&] { return checked_pass(true, in.stages); });

  // sim/core: every unit of the grid again, one at a time through exp::run
  // under the timed decorator; each report must equal the pipeline's.
  std::vector<run_spec> grid;
  for (const std::string& name : ctx->whole.scenarios) {
    const std::vector<run_spec> c = amo::exp::scenario_cells(name, ctx->whole.params);
    grid.insert(grid.end(), c.begin(), c.end());
  }
  in.cells = grid.size();
  for (const amo::exp::unit_ref& u : amo::exp::shard_units(grid, {0, 1})) {
    const run_spec spec = amo::exp::replica_spec(grid[u.cell], u.replica);
    const std::unique_ptr<amo::sim::adversary> inner =
        amo::exp::make_adversary(spec.adversary);
    timed_adversary adv(*inner, sample_period, in.tally);
    const run_report rep = amo::exp::run(spec, adv);
    attempt(out, amo::exp::equivalent(rep, unit_reports[u.unit]),
            describe(rep) + ": decorated replay differs from the sweep");
    in.work_ops += rep.total_work.total();
  }
  add_tally_counts(out.fingerprint, in.tally);
  probe_model(out, in);
  add_per_layer(out, in);
  return out;
}

// ----- model_por -------------------------------------------------------

run_spec por_spec(const amo::model::model_config& cfg) {
  run_spec s;
  s.label = "model_por";
  s.algo = amo::exp::algo_family::model_explore_por;
  s.n = cfg.n;
  s.m = cfg.m;
  s.beta = cfg.beta;
  s.crash_budget = cfg.crash_budget;
  return s;
}

struct por_ctx {
  std::unique_ptr<amo::svc::worker_pool> pool;
  run_spec spec;
  std::string path;
};

pass por_pass(const por_ctx& c, workload_result& out, stage_times& t,
              run_report& rep) {
  pass p;
  amo::stopwatch clock;
  rep = amo::exp::run_por(c.spec, *c.pool);
  t.execute_s += clock.seconds();
  // quiescent == complete and acyclic; at_most_once == no duplicate anywhere.
  attempt(out,
          rep.quiescent && rep.at_most_once &&
              rep.effectiveness == por_min_effectiveness,
          "model_por verdict: quiescent=" + std::to_string(rep.quiescent) +
              " at_most_once=" + std::to_string(rep.at_most_once) +
              " min_effectiveness=" + std::to_string(rep.effectiveness));
  std::string error;
  if (!record_one(c.spec, rep, c.path, t, p.colfmt_bytes, error)) {
    out.problems.push_back("model_por record path: " + error);
  }
  p.wall_s = clock.seconds();
  p.steps = rep.total_steps;
  p.units = 1;
  p.states = rep.total_work.local_ops;  // run_por's mapping of states visited
  p.exact = {{"states", p.states},
             {"transitions", rep.total_steps},
             {"effectiveness", rep.effectiveness},
             {"colfmt_bytes", p.colfmt_bytes}};
  return p;
}

workload_result run_model_por(const workload_options& opt) {
  workload_result out;
  double setup_s = 0.0;
  const auto ctx = timed_setup<por_ctx>(
      [&] {
        auto c = std::make_unique<por_ctx>();
        c->pool = std::make_unique<amo::svc::worker_pool>(pool_workers());
        c->spec = por_spec(por_cfg);
        c->path = opt.work_dir + "/model_por.amoc";
        // Warm-up: the probe instance through the same path, on a 1-worker
        // pool that runs inline: a short burst on every worker makes the
        // set-up time much noisier than the passes.
        por_ctx warm{std::make_unique<amo::svc::worker_pool>(1),
                     por_spec(probe_cfg), c->path};
        workload_result ignored;
        stage_times t;
        run_report rep;
        por_pass(warm, ignored, t, rep);
        return c;
      },
      setup_s);

  if (!opt.trace) {
    const std::vector<pass> passes = measure(opt.seconds, [&] {
      stage_times t;
      run_report rep;
      pass p = por_pass(*ctx, out, t, rep);
      pin_counts(out, p.exact);
      return p;
    });
    add_end_to_end(out, setup_s, passes);
    return out;
  }

  layer_inputs in;
  in.n = por_cfg.n;
  in.m = por_cfg.m;
  in.seed = opt.seed;
  in.cells = 1;
  in.workers = ctx->pool->size();
  run_report plain;
  traced_window(
      opt.seconds, out, in,
      [&] {
        stage_times t;
        return por_pass(*ctx, out, t, plain);
      },
      [&] {
        run_report traced;
        pass p = por_pass(*ctx, out, in.stages, traced);
        attempt(out, amo::exp::equivalent(plain, traced),
                "traced model_por report differs from the untraced one");
        return p;
      });

  // The model layer itself, with its reduction statistics and the pool's
  // speed-up over a serial frontier.
  attempt(out, measure_model(por_cfg, *ctx->pool, in.model),
          "model_por: pooled and serial explore_por disagree");
  const amo::model::explore_result& mr = in.model.result;
  attempt(out,
          mr.complete && !mr.duplicate_found && !mr.cycle_found &&
              mr.states == plain.total_work.local_ops &&
              mr.transitions == plain.total_steps &&
              mr.min_effectiveness == plain.effectiveness,
          "explore_por disagrees with exp::run_por");
  out.fingerprint.emplace_back("sleep_pruned", in.model.stats.sleep_pruned);
  out.fingerprint.emplace_back("full_states", in.model.stats.full_states);
  out.fingerprint.emplace_back("peak_frontier", in.model.stats.peak_frontier);

  // sim/core/sets at this instance's n and m: the same KK instance run on
  // the production simulator under seeded random schedules with crashes.
  run_spec sim = kk_spec(opt.seed, por_cfg.n);
  sim.label = "model_por/sim";
  sim.m = por_cfg.m;
  sim.beta = por_cfg.beta;
  sim.crash_budget = por_cfg.crash_budget;
  sim.adversary.name = "random+crash:1/8";
  for (usize i = 0; i < por_sim_runs; ++i) {
    const run_spec spec = amo::exp::replica_spec(sim, i);
    const std::unique_ptr<amo::sim::adversary> inner =
        amo::exp::make_adversary(spec.adversary);
    timed_adversary adv(*inner, sample_period, in.tally);
    const run_report rep = amo::exp::run(spec, adv);
    check_unit(out, rep);
    in.work_ops += rep.total_work.total();
  }
  add_per_layer(out, in);
  return out;
}

}  // namespace

const std::vector<metric_def>& end_to_end_metrics() {
  static const std::vector<metric_def> defs = {
      {"setup_s", "s"},         {"steps_per_s", "1/s"},
      {"units_per_s", "1/s"},   {"states_per_s", "1/s"},
      {"peak_rss_mb", "MB"},    {"bytes_per_unit", "B"}};
  return defs;
}

const std::vector<metric_def>& per_layer_metrics() {
  static const std::vector<metric_def> defs = {
      {"sim.decide_ns", "ns"},
      {"sim.decisions", "count"},
      {"core.step_ns.local_compute", "ns"},
      {"core.step_ns.announce", "ns"},
      {"core.step_ns.gather", "ns"},
      {"core.step_ns.perform", "ns"},
      {"core.step_ns.record", "ns"},
      {"core.actions.local_compute", "count"},
      {"core.actions.announce", "count"},
      {"core.actions.gather", "count"},
      {"core.actions.perform", "count"},
      {"core.actions.record", "count"},
      {"core.work_ops", "count"},
      {"sets.try_insert_ns", "ns"},
      {"sets.try_contains_ns", "ns"},
      {"sets.free_select_ns", "ns"},
      {"sets.free_erase_ns", "ns"},
      {"sets.free_rank_ns", "ns"},
      {"sets.working_set_bytes", "B"},
      {"analysis.checker_record_ns", "ns"},
      {"svc.execute_us_per_unit", "us"},
      {"exp.render_us_per_unit", "us"},
      {"exp.reparse_us_per_unit", "us"},
      {"exp.encode_us_per_unit", "us"},
      {"svc.write_us_per_unit", "us"},
      {"exp.merge_us_per_unit", "us"},
      {"svc.pool_busy_ratio", "ratio"},
      {"svc.pool_steals", "count"},
      {"exp.units", "count"},
      {"exp.cells", "count"},
      {"exp.colfmt_bytes", "B"},
      {"model.ns_per_state", "ns"},
      {"model.pool_speedup", "x"},
      {"model.states", "count"},
      {"model.transitions", "count"},
      {"model.sleep_pruned", "count"},
      {"model.full_states", "count"},
      {"model.peak_frontier", "count"},
      {"trace.overhead_s", "s"},
      {"trace.overhead_share", "ratio"}};
  return defs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"kk_solo", "replica_sweep",
                                                 "model_por"};
  return names;
}

workload_result run_workload(std::string_view name,
                             const workload_options& opt) {
  std::filesystem::create_directories(opt.work_dir);
  if (name == "kk_solo") return run_kk_solo(opt);
  if (name == "replica_sweep") return run_replica_sweep(opt);
  if (name == "model_por") return run_model_por(opt);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace perfbench
