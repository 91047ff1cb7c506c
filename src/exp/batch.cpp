#include "exp/batch.hpp"

#include <cassert>
#include <memory>
#include <string_view>
#include <vector>

#include "analysis/amo_checker.hpp"
#include "analysis/collision_ledger.hpp"
#include "core/kk_process.hpp"
#include "exp/engine.hpp"
#include "exp/harvest.hpp"
#include "mem/sim_memory.hpp"
#include "sets/lane_free_set.hpp"
#include "sim/scheduler.hpp"
#include "util/fastdiv.hpp"
#include "util/parse.hpp"
#include "util/prng.hpp"
#include "util/stopwatch.hpp"

namespace amo::exp {

namespace {

/// The decoded shape of a seeded (lane-kernel) adversary. The kernel inlines
/// the decide() bodies of sim::random_adversary and sim::block_adversary
/// verbatim (same branches, same draw-consumption order), so these two
/// parameters sets are all it needs.
struct seeded_plan {
  enum class kind : std::uint8_t { random, block };
  kind what = kind::random;
  std::uint64_t crash_num = 0;    ///< random: crash probability numerator
  std::uint64_t crash_den = 1000; ///< random: crash probability denominator
  usize quantum = 1;              ///< block: actions per quantum (>= 1)
};

/// Adversary-name arm of the classification: which execution strategy the
/// batched engine uses for this schedule, mirroring make_adversary's
/// grammar exactly. Names make_adversary would reject classify as
/// not_batchable, so the scalar fallback preserves the exact throw.
batch_class classify_adversary(const std::string& name, seeded_plan& plan) {
  const std::string_view sv = name;
  // Seed-independent schedules: every replica is the same execution (the
  // adversary factories ignore the seed), so run once and replicate.
  if (name == "round_robin" || name == "stale_view" ||
      name == "announce_crash") {
    return batch_class::replicate;
  }
  if (sv.starts_with("stale_view:")) {
    std::uint64_t leader = 0;
    if (!parse_u64(sv.substr(11), leader)) return batch_class::not_batchable;
    return batch_class::replicate;
  }
  // scripted:/replay: traces are deterministic scripts; a malformed trace
  // throws inside the replicated scalar run, same as every scalar unit would.
  if (sv.starts_with("scripted:") || sv.starts_with("replay:")) {
    return batch_class::replicate;
  }
  // Seeded schedules: the lane kernel reproduces each replica's stream.
  if (name == "random") {
    plan = {seeded_plan::kind::random, 0, 1000, 1};
    return batch_class::lanes;
  }
  if (name == "random+crash") {
    plan = {seeded_plan::kind::random, 1, 500, 1};
    return batch_class::lanes;
  }
  if (sv.starts_with("random+crash:")) {
    const std::string_view rest = sv.substr(13);
    const usize slash = rest.find('/');
    std::uint64_t num = 0;
    std::uint64_t den = 0;
    if (slash == std::string_view::npos ||
        !parse_u64(rest.substr(0, slash), num) ||
        !parse_u64(rest.substr(slash + 1), den) || den == 0) {
      return batch_class::not_batchable;
    }
    plan = {seeded_plan::kind::random, num, den, 1};
    return batch_class::lanes;
  }
  if (name == "block4") {
    plan = {seeded_plan::kind::block, 0, 1000, 4};
    return batch_class::lanes;
  }
  if (name == "block64") {
    plan = {seeded_plan::kind::block, 0, 1000, 64};
    return batch_class::lanes;
  }
  if (sv.starts_with("block:")) {
    std::uint64_t quantum = 0;
    if (!parse_u64(sv.substr(6), quantum)) return batch_class::not_batchable;
    plan = {seeded_plan::kind::block, 0, 1000,
            quantum == 0 ? usize{1} : static_cast<usize>(quantum)};
    return batch_class::lanes;
  }
  return batch_class::not_batchable;
}

using lane_proc = kk_process<sim_memory, lane_free_set>;

/// Everything one replica lane owns: its PRNG stream, adversary state,
/// register file, checker, ledger, processes, and scheduler state. Lanes
/// are fully independent — only the FREE bitmaps share the SoA arena.
struct lane {
  explicit lane(std::uint64_t seed) : rng(seed) {}

  xoshiro256 rng;
  bounded_draw pick;  ///< runnable-size draws
  bounded_draw coin;  ///< crash-chance draws (constant bound crash_den)
  process_id block_current = 0;
  usize block_remaining = 0;

  std::unique_ptr<sim_memory> mem;
  std::unique_ptr<amo_checker> checker;
  std::unique_ptr<collision_ledger> ledger;
  std::vector<std::unique_ptr<lane_proc>> procs;

  std::vector<process_id> runnable;
  usize total_steps = 0;
  usize crashes = 0;
  bool live = true;
};

void rebuild_runnable(lane& ls) {
  ls.runnable.clear();
  for (const auto& p : ls.procs) {
    if (p->runnable()) ls.runnable.push_back(p->id());
  }
}

/// Drives one lane from its current state to quiescence, crash-exhaustion
/// or the step limit: sim::scheduler::run's loop with the adversary's
/// decide() inlined. The PRNG, draw caches and block-quantum state live in
/// locals whose address never escapes, so the optimizer keeps the whole
/// decision stream in registers across step() calls (the lane struct's
/// fields would be spilled and reloaded around every opaque hook call);
/// they are written back once at the end.
void run_lane(lane& ls, const seeded_plan& plan, usize crash_budget,
              usize limit) {
  xoshiro256 rng = ls.rng;
  bounded_draw pick = ls.pick;
  bounded_draw coin = ls.coin;
  process_id block_current = ls.block_current;
  usize block_remaining = ls.block_remaining;
  usize total_steps = ls.total_steps;
  usize crashes = ls.crashes;

  while (!ls.runnable.empty() && total_steps < limit) {
    const usize sz = ls.runnable.size();
    process_id pid = 1;
    bool want_crash = false;
    if (plan.what == seeded_plan::kind::random) {
      pid = ls.runnable[static_cast<usize>(
          pick.below(rng, static_cast<std::uint64_t>(sz)))];
      // Short-circuit order matters: the chance draw is only consumed while
      // crashes are possible, exactly as in random_adversary::decide.
      if (plan.crash_num > 0 && crashes < crash_budget &&
          coin.below(rng, plan.crash_den) < plan.crash_num) {
        want_crash = true;
      }
    } else {
      // block_adversary::decide: continue the current quantum if its owner
      // is still runnable, else re-pick (consuming one draw) and start a
      // new one. The runnable list is exactly {p : p->runnable()} at every
      // iteration (it is rebuilt on each transition out of runnable), so
      // the owner probe is the O(1) equivalent of decide()'s list scan.
      if (block_remaining > 0 && block_current != 0 &&
          ls.procs[block_current - 1]->runnable()) {
        --block_remaining;
        pid = block_current;
      } else {
        block_current = ls.runnable[static_cast<usize>(
            pick.below(rng, static_cast<std::uint64_t>(sz)))];
        block_remaining = plan.quantum - 1;
        pid = block_current;
      }
    }

    lane_proc* target = ls.procs[pid - 1].get();
    assert(target->runnable());
    if (want_crash && crashes < crash_budget) {
      target->crash();
      ++crashes;
      rebuild_runnable(ls);
      continue;
    }
    target->step();
    ++total_steps;
    if (!target->runnable()) rebuild_runnable(ls);
  }

  ls.rng = rng;
  ls.pick = pick;
  ls.coin = coin;
  ls.block_current = block_current;
  ls.block_remaining = block_remaining;
  ls.total_steps = total_steps;
  ls.crashes = crashes;
}

std::vector<run_report> run_lane_block(const run_spec& cell,
                                       std::span<const usize> replicas,
                                       const seeded_plan& plan) {
  run_spec s = cell;
  if (s.algo == algo_family::ao2) {
    // Same normalization as the scalar engine; m == 2 was checked by
    // classify_batch, so this cannot throw.
    s.beta = 1;
    s.rule = selection_rule::two_ends;
  }
  const usize num_lanes = replicas.size();
  const usize limit = s.max_steps != 0 ? s.max_steps
                                       : sim::default_step_limit(s.n, s.m);

  // One arena lane per (replica, pid): replica r's process pid owns arena
  // lane r*m + pid-1, so a bitmap row interleaves all FREE sets of the block.
  lane_free_arena arena(static_cast<job_id>(s.n), num_lanes * s.m);

  std::vector<lane> lanes;
  lanes.reserve(num_lanes);
  for (usize l = 0; l < num_lanes; ++l) {
    lanes.emplace_back(replica_seed(s.adversary.seed, replicas[l]));
    lane& ls = lanes.back();
    ls.mem = std::make_unique<sim_memory>(s.m, s.n);
    ls.checker = std::make_unique<amo_checker>(s.n);
    ls.ledger = std::make_unique<collision_ledger>(s.m, s.n);
    ls.procs.reserve(s.m);
    for (process_id pid = 1; pid <= s.m; ++pid) {
      kk_config cfg;
      cfg.pid = pid;
      cfg.num_processes = s.m;
      cfg.beta = s.beta;
      cfg.mode = kk_mode::plain;
      cfg.rule = s.rule;
      kk_hooks kh;
      amo_checker* ck = ls.checker.get();
      kh.on_perform = [ck](process_id p, job_id j) { ck->record(p, j); };
      collision_ledger* lg = ls.ledger.get();
      kh.on_collision = [lg, ck](process_id p, job_id j, process_id announcer,
                                 bool via_done) {
        lg->record(p, j, announcer, via_done, *ck);
      };
      ls.procs.push_back(std::make_unique<lane_proc>(
          *ls.mem, cfg, arena.view(l * s.m + (pid - 1)), nullptr,
          std::move(kh)));
    }
    rebuild_runnable(ls);
  }

  // Drive each lane to completion before touching the next: lanes share no
  // mutable state, so the order is free to choose, and running one lane's
  // automaton straight through keeps its registers, TRY entries and
  // arena rows cache-hot instead of cycling the whole block's working set.
  stopwatch clock;
  for (lane& ls : lanes) {
    run_lane(ls, plan, s.crash_budget, limit);
    ls.live = false;
  }
  const double wall = clock.seconds();

  std::vector<run_report> out;
  out.reserve(num_lanes);
  for (usize l = 0; l < num_lanes; ++l) {
    lane& ls = lanes[l];
    run_report rep;
    echo_spec(rep, s);
    // Parameterized seeded names are echoed verbatim — the parameters ARE
    // the identity (mirrors the scalar engine's echo policy; scripted:/
    // replay: prefixes never reach the lane kernel).
    rep.adversary = s.adversary.name;
    rep.seed = replica_seed(s.adversary.seed, replicas[l]);
    rep.total_steps = ls.total_steps;
    rep.quiescent = ls.runnable.empty();
    // The block runs as one pass; attribute wall time evenly. diff/merge
    // treat wall_seconds as non-deterministic, so this is presentation only.
    rep.wall_seconds = wall / static_cast<double>(num_lanes);
    harvest_checker(rep, *ls.checker);
    harvest_kk(rep, ls.procs);
    rep.worst_pair_ratio = ls.ledger->worst_pair_ratio();
    out.push_back(std::move(rep));
  }
  return out;
}

}  // namespace

batch_class classify_batch(const run_spec& cell) {
  if (cell.driver != driver_kind::scheduled) return batch_class::not_batchable;
  if (cell.memory != memory_kind::sim) return batch_class::not_batchable;
  if (cell.free_set != free_set_kind::bitset) return batch_class::not_batchable;
  if (cell.record_trace) return batch_class::not_batchable;
  if (cell.n == 0 || cell.m == 0) return batch_class::not_batchable;
  if (cell.algo == algo_family::ao2) {
    if (cell.m != 2) return batch_class::not_batchable;
  } else if (cell.algo != algo_family::kk) {
    return batch_class::not_batchable;
  }
  seeded_plan plan;
  return classify_adversary(cell.adversary.name, plan);
}

std::vector<run_report> run_replica_block(const run_spec& cell,
                                          std::span<const usize> replicas) {
  assert(!replicas.empty());
  seeded_plan plan;
  const batch_class cls = classify_adversary(cell.adversary.name, plan);
  assert(classify_batch(cell) == cls && cls != batch_class::not_batchable);

  if (cls == batch_class::replicate) {
    // One scalar pass; replicas of a seed-independent schedule are the same
    // execution, differing only in the echoed seed.
    run_report base = run(replica_spec(cell, replicas.front()));
    std::vector<run_report> out;
    out.reserve(replicas.size());
    for (const usize r : replicas) {
      out.push_back(base);
      out.back().seed = replica_seed(cell.adversary.seed, r);
    }
    return out;
  }
  return run_lane_block(cell, replicas, plan);
}

}  // namespace amo::exp
