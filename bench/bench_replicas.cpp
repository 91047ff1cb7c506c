// Replica throughput: each grid's engine path against the reference path its
// floor was set against, with every charged op count bit-identical.
//
// Two comparisons, split by schedule class:
//
//   repl/xR    n=256 m=3  — seed-independent adversaries (round_robin,
//              stale_view, announce_crash): every replica's schedule is
//              identical, so the sweep runs each cell's replicas as one
//              block that runs once and copies the report R ways.
//              Reference: each unit through plain exp::run; engine: the
//              serial exp::sweep. Cost is ~1 unit for R, i.e. ~R x. Gates
//              the >= 3x floor at R >= 8.
//   mix/xR     n=256 m=3  — all six classes through the same two paths,
//              reported for context: the seeded half runs one exp::run per
//              unit on both sides, so the composition of a real grid
//              decides where between 1x and R x it lands.
//   seeded/xR  n=256 m=3  — seed-dependent adversaries (random,
//              random+crash, block64): each replica is its own execution.
//              exp::run binds these adversary types statically, so
//              decide() and step() inline into the scheduler loop and the
//              adversary's state stays in registers. Reference: the same
//              units through exp::run with the adversary behind a
//              forwarding sim::adversary decorator, which runs the same
//              loop type-erased. Gates the >= 1.1x floor at R >= 8.
//   bigm/xR    n=256 m=33 — wide-word seeded cells, same comparison as
//              seeded; gates the ">= 1x at m >= 32" floor.
//
// Each row alternates the reference and engine passes at least kReps times
// and until the row has run for kMinRowSeconds, keeps each side's fastest,
// and reports their units/second, the ratio, and whether the two sides
// agree: exp::equivalent per unit (every charged op count included) on
// every row, and for the sweep rows also the no-timing aggregate JSON byte
// for byte, the reference's units folded per cell as the sweep folds them.
// bit_identical gates in CI.
#include <memory>
#include <span>
#include <thread>

#include "bench_common.hpp"
#include "exp/engine.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"

namespace {

using namespace amo;

/// Each rep times one reference and one engine pass back to back, and each
/// side keeps its fastest rep: a load spike on a shared box then hits both
/// sides of a rep alike instead of one side's whole series. Short rows (a
/// seeded x8 pass is ~1.5 ms) repeat until the row has run for
/// kMinRowSeconds, so their fastest pass is as settled as a long row's.
constexpr int kReps = 7;
constexpr double kMinRowSeconds = 0.2;

exp::run_spec cell(const char* label, const char* adv, std::uint64_t seed,
                   usize m, usize replicas) {
  exp::run_spec s;
  s.label = label;
  s.algo = exp::algo_family::kk;
  s.n = 256;
  s.m = m;
  s.beta = 3;
  s.crash_budget = 2;
  s.replicas = replicas;
  s.adversary = {adv, seed};
  return s;
}

/// Seed-independent schedule classes: the block runs once and copies.
std::vector<exp::run_spec> repl_grid(usize replicas) {
  std::vector<exp::run_spec> cells;
  cells.push_back(cell("batch/round_robin", "round_robin", 1, 3, replicas));
  cells.push_back(cell("batch/stale_view", "stale_view:2", 2, 3, replicas));
  cells.push_back(cell("batch/announce_crash", "announce_crash", 3, 3, replicas));
  return cells;
}

/// Seed-dependent schedule classes: one execution per replica.
std::vector<exp::run_spec> seeded_grid(usize replicas) {
  std::vector<exp::run_spec> cells;
  cells.push_back(cell("batch/random", "random", 7919, 3, replicas));
  cells.push_back(cell("batch/random_crash", "random+crash", 15'838, 3, replicas));
  cells.push_back(cell("batch/block64", "block64", 23'757, 3, replicas));
  return cells;
}

/// Every schedule class above — what a realistic grid sees.
std::vector<exp::run_spec> mix_grid(usize replicas) {
  std::vector<exp::run_spec> cells = repl_grid(replicas);
  std::vector<exp::run_spec> seeded = seeded_grid(replicas);
  cells.insert(cells.end(), seeded.begin(), seeded.end());
  return cells;
}

/// Wide-word cells: m=33 puts every process set past the word-parallel
/// threshold.
std::vector<exp::run_spec> bigm_grid(usize replicas) {
  std::vector<exp::run_spec> cells;
  cells.push_back(cell("batch/bigm_random", "random", 7919, 33, replicas));
  cells.push_back(cell("batch/bigm_block64", "block64", 23'757, 33, replicas));
  return cells;
}

/// Forwards every decision to an inner adversary. The engine binds only
/// the seeded adversaries' own types statically, so a run through this
/// decorator takes the type-erased scheduler loop.
class forwarding_adversary final : public sim::adversary {
 public:
  explicit forwarding_adversary(sim::adversary& inner) : inner_(inner) {}
  sim::decision decide(const sim::sched_view& v) override {
    return inner_.decide(v);
  }
  [[nodiscard]] const char* name() const override { return inner_.name(); }

 private:
  sim::adversary& inner_;
};

/// How one side of a row runs its grid.
enum class path : std::uint8_t {
  sweep,       ///< serial exp::sweep
  run_erased,  ///< each unit through exp::run behind forwarding_adversary
  run_bound,   ///< each unit through plain exp::run
};

/// One side of the comparison and its fastest pass so far.
struct timed_side {
  explicit timed_side(path p) : how(p) {}

  path how;
  double best = 0.0;
  double spent = 0.0;        ///< wall time of every pass so far
  exp::sweep_result result;  ///< reports of the fastest pass (cells: sweeps)

  void run(const std::vector<exp::run_spec>& cells) {
    exp::sweep_result cur;
    if (how == path::sweep) {
      exp::sweep_options serial;
      serial.pool_size = 1;
      cur = exp::sweep(cells, serial);
    } else {
      stopwatch clock;
      for (const exp::unit_ref& u : exp::shard_units(cells, {0, 1})) {
        const exp::run_spec s = exp::replica_spec(cells[u.cell], u.replica);
        if (how == path::run_bound) {
          cur.reports.push_back(exp::run(s));
        } else {
          const std::unique_ptr<sim::adversary> inner =
              exp::make_adversary(s.adversary);
          forwarding_adversary erased(*inner);
          cur.reports.push_back(exp::run(s, erased));
        }
      }
      cur.wall_seconds = clock.seconds();
    }
    spent += cur.wall_seconds;
    if (result.reports.empty() || cur.wall_seconds < best) {
      best = cur.wall_seconds;
      result = std::move(cur);
    }
  }
};

/// Per-unit reports folded per cell exactly as exp::sweep folds them.
exp::sweep_result fold_units(const std::vector<exp::run_spec>& cells,
                             const std::vector<exp::run_report>& reports) {
  exp::sweep_result folded;
  folded.reports = reports;
  usize first = 0;
  for (const exp::run_spec& c : cells) {
    exp::cell_report cr;
    cr.first = first;
    cr.replicas = exp::resolved_replicas(c);
    cr.stats = exp::fold_replicas(
        std::span<const exp::run_report>(reports).subspan(first, cr.replicas));
    first += cr.replicas;
    folded.cells.push_back(cr);
  }
  return folded;
}

std::string aggregate_json(const std::vector<exp::run_spec>& cells,
                           const exp::sweep_result& swept) {
  exp::json_writer json;
  exp::add_cell_records(json, swept, exp::grid_fingerprint(cells),
                        /*include_timing=*/false);
  return json.dump();
}

/// Unit-by-unit exp::equivalent. The seed and adversary name are identity,
/// not outcome: a caller-owned adversary is echoed by its own name only.
bool all_equivalent(const std::vector<exp::run_report>& a,
                    const std::vector<exp::run_report>& b) {
  if (a.size() != b.size()) return false;
  for (usize i = 0; i < a.size(); ++i) {
    if (!exp::equivalent(a[i], b[i])) return false;
  }
  return true;
}

}  // namespace

int main() {
  stopwatch total;
  benchx::print_title(
      "Replica throughput  (engine path vs the reference path of each floor)",
      "claim: running seed-independent replicas once and binding seeded\n"
      "adversaries statically both beat their reference paths; charged op\n"
      "counts stay bit-identical");

  const unsigned hc = std::thread::hardware_concurrency();

  benchx::json_report json;
  text_table t({"grid", "replicas", "units", "reference", "ref u/s",
                "engine u/s", "speedup", "identical?"});
  bool all_identical = true;
  bool floors_ok = true;

  struct grid_def {
    const char* name;
    std::vector<exp::run_spec> (*make)(usize);
    bool dispatch;  ///< reference = type-erased exp::run, else plain exp::run
    double floor;   ///< min speedup required at R >= 8; 0 = informational
  };
  const grid_def grids[] = {{"repl", &repl_grid, false, 3.0},
                            {"seeded", &seeded_grid, true, 1.1},
                            {"mix", &mix_grid, false, 0.0},
                            {"bigm", &bigm_grid, true, 1.0}};

  for (const grid_def& g : grids) {
    for (const usize replicas : {usize{1}, usize{2}, usize{8}, usize{32},
                                 usize{64}}) {
      const std::vector<exp::run_spec> cells = g.make(replicas);
      const usize units = exp::unit_count(cells);

      timed_side reference{g.dispatch ? path::run_erased : path::run_bound};
      timed_side engine{g.dispatch ? path::run_bound : path::sweep};
      for (int rep = 0;
           rep < kReps || reference.spent + engine.spent < kMinRowSeconds;
           ++rep) {
        reference.run(cells);
        engine.run(cells);
      }

      const bool identical =
          all_equivalent(reference.result.reports, engine.result.reports) &&
          (g.dispatch ||
           aggregate_json(cells, fold_units(cells, reference.result.reports)) ==
               aggregate_json(cells, engine.result));
      all_identical = all_identical && identical;

      const double reference_ups =
          reference.best > 0 ? units / reference.best : 0.0;
      const double engine_ups = engine.best > 0 ? units / engine.best : 0.0;
      const double speedup =
          reference_ups > 0 ? engine_ups / reference_ups : 0.0;
      // Floors bind at R >= 8, where replica blocks amortise their one
      // exp::run pass; the narrower rows are context.
      if (g.floor > 0.0 && replicas >= 8) {
        floors_ok = floors_ok && speedup >= g.floor;
      }

      usize duplicates = 0;
      for (const exp::run_report& r : engine.result.reports) {
        duplicates += r.perform_events - r.effectiveness;
      }

      const char* reference_name = g.dispatch ? "type_erased" : "exp_run";
      t.add_row({g.name, fmt_count(replicas), fmt_count(units), reference_name,
                 fmt_count(static_cast<usize>(reference_ups)),
                 fmt_count(static_cast<usize>(engine_ups)),
                 fmt(speedup, 2) + "x", benchx::yesno(identical)});

      json.add(
          {{"experiment", benchx::json_report::str("E_batched_replicas")},
           {"scenario", benchx::json_report::str(std::string(g.name) + "/x" +
                                                 std::to_string(replicas))},
           {"reference", benchx::json_report::str(reference_name)},
           {"replicas", benchx::json_report::num(std::uint64_t{replicas})},
           {"cells", benchx::json_report::num(std::uint64_t{cells.size()})},
           {"units", benchx::json_report::num(std::uint64_t{units})},
           {"hardware_concurrency",
            benchx::json_report::num(std::uint64_t{hc})},
           {"duplicates", benchx::json_report::num(std::uint64_t{duplicates})},
           {"reference_wall_seconds", benchx::json_report::num(reference.best)},
           {"engine_wall_seconds", benchx::json_report::num(engine.best)},
           {"reference_units_per_second",
            benchx::json_report::num(reference_ups)},
           {"engine_units_per_second", benchx::json_report::num(engine_ups)},
           {"engine_speedup", benchx::json_report::num(speedup)},
           {"bit_identical", benchx::json_report::boolean(identical)}});
    }
  }

  benchx::print_table(t);
  std::printf("\nserial runs (pool=1): speedup isolates the engine path, not "
              "thread scheduling.\nrepl = run-once-replicate classes; mix = "
              "all six; seeded = static vs type-erased\ndispatch; bigm = the "
              "same at m=33.\n");

  if (json.write("BENCH_replicas.json")) {
    std::printf("[%zu records -> BENCH_replicas.json]\n", json.size());
  }
  std::printf("\n[bench_replicas done in %.1fs; bit-identical %s, floors "
              "(R>=8: repl>=3x, seeded>=1.1x, bigm>=1x) %s]\n",
              total.seconds(), benchx::yesno(all_identical).c_str(),
              benchx::yesno(floors_ok).c_str());
  return (all_identical && floors_ok) ? 0 : 1;
}
