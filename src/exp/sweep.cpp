#include "exp/sweep.hpp"

#include <memory>
#include <span>

#include "exp/engine.hpp"
#include "obs/telemetry.hpp"
#include "sim/trace.hpp"
#include "svc/worker_pool.hpp"
#include "util/stopwatch.hpp"

namespace amo::exp {

bool seed_independent(const run_spec& cell) {
  if (cell.driver != driver_kind::scheduled) return false;
  if (cell.memory != memory_kind::sim) return false;
  if (cell.free_set != free_set_kind::bitset) return false;
  if (cell.record_trace) return false;
  if (cell.n == 0 || cell.m == 0) return false;
  if (cell.algo == algo_family::ao2) {
    if (cell.m != 2) return false;
  } else if (cell.algo != algo_family::kk) {
    return false;
  }
  // The answer follows the type make_adversary builds, so the engine's
  // grammar is the only one. Names it rejects (nullptr) and adversary types
  // not listed here — the seeded ones included — run each replica through
  // exp::run, which throws exactly as every unit would.
  const std::unique_ptr<sim::adversary> adv = make_adversary(cell.adversary);
  const sim::adversary* a = adv.get();
  return dynamic_cast<const sim::round_robin_adversary*>(a) != nullptr ||
         dynamic_cast<const sim::stale_view_adversary*>(a) != nullptr ||
         dynamic_cast<const sim::announce_crash_adversary*>(a) != nullptr ||
         dynamic_cast<const sim::scripted_adversary*>(a) != nullptr ||
         dynamic_cast<const sim::replay_adversary*>(a) != nullptr;
}

namespace {

/// One pool task: units[first .. first+count). count > 1 only for a replica
/// block of one seed-independent cell.
struct unit_task {
  usize first = 0;
  usize count = 1;
};

/// Groups the unit list into pool tasks: each maximal run of consecutive
/// units of the same seed-independent cell becomes one replica block,
/// everything else a single unit. Grouping is a pure function of (units,
/// cells), so every shard slices into the same blocks wherever its units
/// are adjacent.
std::vector<unit_task> plan_unit_tasks(const std::vector<run_spec>& cells,
                                       const std::vector<unit_ref>& units) {
  std::vector<unit_task> tasks;
  tasks.reserve(units.size());
  // Units are cell-major, so asking only when the cell changes builds one
  // probe adversary per cell rather than one per replica.
  usize probed = cells.size();
  bool cell_replicates = false;
  usize i = 0;
  while (i < units.size()) {
    usize j = i + 1;
    if (units[i].cell != probed) {
      probed = units[i].cell;
      cell_replicates = seed_independent(cells[probed]);
    }
    if (cell_replicates) {
      while (j < units.size() && units[j].cell == units[i].cell) ++j;
    }
    tasks.push_back({i, j - i});
    i = j;
  }
  return tasks;
}

}  // namespace

unit_run_result run_units(const std::vector<run_spec>& cells,
                          const std::vector<unit_ref>& units,
                          svc::worker_pool& pool) {
  unit_run_result out;
  out.reports.resize(units.size());

  // POR cells invert the parallelism: each unit is one whole-state-graph
  // exploration whose frontier wants the pool to itself, and nesting
  // run_indexed inside a pool task would deadlock. When the sweep is all
  // POR, run the units serially on the caller thread and hand each one the
  // pool. Reports are bit-identical either way (the POR frontier is
  // deterministic at any pool size), so mixed sweeps lose nothing but
  // frontier parallelism by taking the generic path below (where POR cells
  // run with a serial frontier, pool = nullptr).
  const bool all_por = [&] {
    for (const unit_ref& u : units) {
      if (cells[u.cell].algo != algo_family::model_explore_por) return false;
    }
    return !units.empty();
  }();
  if (all_por) {
    for (usize i = 0; i < units.size(); ++i) {
      const unit_ref& u = units[i];
      obs::span sp("sweep", "unit");
      sp.arg("cell", static_cast<std::uint64_t>(u.cell));
      sp.arg("replica", static_cast<std::uint64_t>(u.replica));
      out.reports[i] = run_por(replica_spec(cells[u.cell], u.replica), pool);
    }
    out.pool_size = pool.size();
    return out;
  }

  const std::vector<unit_task> tasks = plan_unit_tasks(cells, units);
  out.pool_size = pool.run_indexed(tasks.size(), [&](usize t) {
    const unit_task& tk = tasks[t];
    const unit_ref& u = units[tk.first];
    if (tk.count == 1) {
      obs::span sp("sweep", "unit");
      sp.arg("cell", static_cast<std::uint64_t>(u.cell));
      sp.arg("replica", static_cast<std::uint64_t>(u.replica));
      out.reports[tk.first] = run(replica_spec(cells[u.cell], u.replica));
      return;
    }
    obs::span sp("sweep", "replica_block");
    sp.arg("cell", static_cast<std::uint64_t>(u.cell));
    sp.arg("replicas", static_cast<std::uint64_t>(tk.count));
    // Replicas of a seed-independent schedule are the same execution,
    // differing only in the echoed seed.
    const run_report base = run(replica_spec(cells[u.cell], u.replica));
    for (usize k = 0; k < tk.count; ++k) {
      run_report& rep = out.reports[tk.first + k];
      rep = base;
      rep.seed = replica_seed(cells[u.cell].adversary.seed,
                              units[tk.first + k].replica);
    }
  });
  return out;
}

sweep_result sweep(const std::vector<run_spec>& cells, svc::worker_pool& pool) {
  sweep_result out;
  out.cells.reserve(cells.size());

  // Flatten to (cell, replica) units so replicas steal across the pool
  // exactly like cells do. The full unit list is cell-major, so reports in
  // unit order are exactly the flattened [cells[i].first, +replicas) layout.
  const std::vector<unit_ref> units = shard_units(cells, shard_ref{0, 1});
  usize first = 0;
  for (const run_spec& c : cells) {
    cell_report cr;
    cr.first = first;
    cr.replicas = resolved_replicas(c);
    first += cr.replicas;
    out.cells.push_back(cr);
  }

  stopwatch clock;
  unit_run_result ur = run_units(cells, units, pool);
  out.reports = std::move(ur.reports);
  out.pool_size = ur.pool_size;
  out.wall_seconds = clock.seconds();

  for (cell_report& cr : out.cells) {
    cr.stats = fold_replicas(
        std::span<const run_report>(out.reports).subspan(cr.first, cr.replicas));
  }
  return out;
}

sweep_result sweep(const std::vector<run_spec>& cells, const sweep_options& opt) {
  svc::worker_pool pool(opt.pool_size);
  return sweep(cells, pool);
}

}  // namespace amo::exp
