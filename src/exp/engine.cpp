#include "exp/engine.hpp"

#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "analysis/amo_checker.hpp"
#include "analysis/collision_ledger.hpp"
#include "baselines/tas_executor.hpp"
#include "baselines/write_all_baselines.hpp"
#include "core/iterative_kk.hpp"
#include "core/wa_iterative_kk.hpp"
#include "mem/atomic_memory.hpp"
#include "mem/sim_memory.hpp"
#include "model/dpor.hpp"
#include "model/explorer.hpp"
#include "sets/fenwick_rank_set.hpp"
#include "sets/ostree.hpp"
#include "sim/scheduler.hpp"
#include "util/math.hpp"
#include "util/parse.hpp"
#include "util/stopwatch.hpp"

namespace amo::exp {

namespace {

[[noreturn]] void bad_spec(const std::string& why) {
  throw std::invalid_argument("exp::run: " + why);
}

void echo_spec(run_report& rep, const run_spec& s) {
  rep.label = s.label;
  rep.algo = s.algo;
  rep.driver = s.driver;
  rep.memory = s.memory;
  rep.free_set = s.free_set;
  rep.n = s.n;
  rep.m = s.m;
  rep.beta = s.beta == 0 ? s.m : s.beta;
  rep.eps_inv = s.eps_inv;
  rep.crash_budget = s.crash_budget;
}

/// Echoes the spec's own adversary. For scripted:/replay: specs only the
/// prefix is echoed — the embedded trace can run to megabytes and is
/// reproducible from the spec. Parameterized names (block:16, ...) are
/// echoed verbatim: the parameters ARE the identity.
void echo_adversary(run_report& rep, const adversary_spec& a) {
  if (std::string_view(a.name).starts_with("scripted:") ||
      std::string_view(a.name).starts_with("replay:")) {
    rep.adversary = a.name.substr(0, a.name.find(':'));
  } else {
    rep.adversary = a.name;
  }
  rep.seed = a.seed;
}

/// AO2 is KK_beta with the two-ends selection rule at its only valid
/// operating point; normalize so the report echoes resolved values.
void normalize_ao2(run_spec& s) {
  if (s.algo != algo_family::ao2) return;
  if (s.m != 2) bad_spec("ao2 is the two-process building block (m must be 2)");
  s.beta = 1;
  s.rule = selection_rule::two_ends;
}

void harvest_checker(run_report& rep, const amo_checker& checker) {
  rep.effectiveness = checker.distinct();
  rep.perform_events = checker.total_events();
  rep.at_most_once = checker.ok();
  rep.duplicate = checker.first_duplicate();
}

/// Aggregates KK_beta per-process tallies; shared by every memory backend
/// and driver.
template <class Proc>
void harvest_kk(run_report& rep, const std::vector<std::unique_ptr<Proc>>& procs) {
  usize stopped = 0;
  for (const auto& p : procs) {
    rep.per_process.push_back(p->stats());
    rep.total_work += p->stats().work;
    rep.total_collisions +=
        p->stats().collisions_try + p->stats().collisions_done;
    if (p->status() == kk_status::end) ++rep.terminated;
    if (p->status() == kk_status::stop) ++stopped;
  }
  rep.crashes = stopped;
}

template <class Proc>
void harvest_iter(run_report& rep, const std::vector<std::unique_ptr<Proc>>& procs) {
  usize stopped = 0;
  for (const auto& p : procs) {
    rep.total_work += p->stats().work;
    rep.total_collisions += p->stats().collisions;
    if (p->finished()) ++rep.terminated;
    if (!p->runnable() && !p->finished()) ++stopped;
  }
  rep.crashes = stopped;
}

/// True if thread `pid` must take stop_p now, given its observable
/// progress: evaluated at every action boundary, like the simulation
/// adversary between transitions. A crashed thread takes no more actions,
/// so an announced job stays stuck in its next register.
bool should_crash(const crash_spec& c, process_id pid, const automaton& a) {
  switch (c.what) {
    case crash_spec::kind::none:
      return false;
    case crash_spec::kind::after_actions: {
      if (pid > c.per_thread.size()) return false;
      const usize at = c.per_thread[pid - 1];
      return at != 0 && a.step_count() >= at;
    }
    case crash_spec::kind::after_first_announce:
      return pid <= c.count && a.announce_count() >= 1;
  }
  return false;
}

/// The one OS-thread loop: each thread drives its automaton to completion,
/// checking the crash policy at every action boundary.
template <class Proc>
void drive_threads(std::vector<std::unique_ptr<Proc>>& procs,
                   const crash_spec& crashes) {
  std::vector<std::jthread> threads;
  threads.reserve(procs.size());
  for (process_id pid = 1; pid <= procs.size(); ++pid) {
    Proc* proc = procs[pid - 1].get();
    threads.emplace_back([proc, pid, &crashes] {
      while (proc->runnable()) {
        if (should_crash(crashes, pid, *proc)) {
          proc->crash();
          break;
        }
        proc->step();
      }
    });
  }  // jthreads join on scope exit
}

/// Runs the processes under the scheduled driver and records the liveness
/// outcome. A type-erased adversary drives them as automata; a concrete one
/// (see run_kk_sim_bitset) drives the concrete process type, so decide()
/// and step() inline into the scheduler loop.
template <class Proc, class Adv>
void drive_scheduled(run_report& rep,
                     const std::vector<std::unique_ptr<Proc>>& procs, Adv& adv,
                     usize crash_budget, usize limit) {
  using P = std::conditional_t<std::is_same_v<Adv, sim::adversary>, automaton,
                               Proc>;
  std::vector<P*> handles;
  handles.reserve(procs.size());
  for (const auto& p : procs) handles.push_back(p.get());
  sim::scheduler<P> sched(std::move(handles));
  const sim::run_result res = sched.run(adv, crash_budget, limit);
  rep.total_steps = res.total_steps;
  rep.quiescent = res.quiescent;
  // rep.crashes is recomputed from process status by the harvest helpers
  // (identical to res.crashes; kept in one place).
}

/// Drives `procs` to completion under the spec's driver: the adversary-
/// scheduled simulator, or OS threads honoring the spec's crash policy. The
/// one place the driver dichotomy and the step-limit policy exist: an
/// explicit spec.max_steps wins; otherwise the defensive default limit,
/// times `limit_scale` for algorithms that run multiple levels.
template <class Proc, class Adv>
void drive_spec(run_report& rep, std::vector<std::unique_ptr<Proc>>& procs,
                const run_spec& s, Adv* adv, usize limit_scale = 1) {
  if (s.driver == driver_kind::scheduled) {
    const usize limit = s.max_steps != 0
                            ? s.max_steps
                            : sim::default_step_limit(s.n, s.m) * limit_scale;
    drive_scheduled(rep, procs, *adv, s.crash_budget, limit);
  } else {
    drive_threads(procs, s.crashes);
  }
}

/// Work/termination/crash tally for the baseline automatons (which expose
/// work() and the automaton probes, not the kk/iter stats structs).
template <class Proc>
void harvest_automata(run_report& rep,
                      const std::vector<std::unique_ptr<Proc>>& procs) {
  usize crashed = 0;
  for (const auto& p : procs) {
    rep.total_work += p->work();
    if (p->next_action() == action_kind::terminated) ++rep.terminated;
    if (p->next_action() == action_kind::crashed) ++crashed;
  }
  rep.crashes = crashed;
}

template <class M, rank_set FS>
std::vector<std::unique_ptr<kk_process<M, FS>>> build_kk_procs(
    M& mem, const run_spec& s, amo_checker& checker, collision_ledger* ledger,
    const run_hooks* hooks) {
  std::vector<std::unique_ptr<kk_process<M, FS>>> procs;
  procs.reserve(s.m);
  for (process_id pid = 1; pid <= s.m; ++pid) {
    kk_config cfg;
    cfg.pid = pid;
    cfg.num_processes = s.m;
    cfg.beta = s.beta;
    cfg.mode = kk_mode::plain;
    cfg.rule = s.rule;
    kk_hooks kh;
    kh.on_perform = [&checker, hooks](process_id p, job_id j) {
      checker.record(p, j);
      if (hooks != nullptr && hooks->on_perform) hooks->on_perform(p, j);
    };
    if (ledger != nullptr) {
      kh.on_collision = [ledger, &checker](process_id p, job_id j,
                                           process_id announcer, bool via_done) {
        ledger->record(p, j, announcer, via_done, checker);
      };
    }
    procs.push_back(
        std::make_unique<kk_process<M, FS>>(mem, cfg, nullptr, std::move(kh)));
  }
  return procs;
}

template <class M, rank_set FS, class Adv = sim::adversary>
void run_kk_impl(const run_spec& s, Adv* adv, const run_hooks* hooks,
                 run_report& rep) {
  M mem(s.m, s.n);
  amo_checker checker(s.n);
  // The collision ledger is scheduled-driver only: it is not thread-safe,
  // and under real threads the interleaving is not reproducible anyway.
  const bool want_ledger = s.driver == driver_kind::scheduled;
  collision_ledger ledger(want_ledger ? s.m : 1, want_ledger ? s.n : 1);
  auto procs = build_kk_procs<M, FS>(mem, s, checker,
                                     want_ledger ? &ledger : nullptr, hooks);

  stopwatch clock;
  drive_spec(rep, procs, s, adv);
  rep.wall_seconds = clock.seconds();

  harvest_checker(rep, checker);
  harvest_kk(rep, procs);
  if (s.driver == driver_kind::os_threads) {
    rep.total_steps = rep.total_work.actions;
  }
  if (want_ledger) rep.worst_pair_ratio = ledger.worst_pair_ratio();
}

/// KK over sim_memory with bitset FREE sets, the seeded-sweep workhorse.
/// The seeded adversary types bind once per run to their concrete final
/// type, so the scheduler loop inlines decide() and step(); every other
/// adversary — decorators, trace recorders, the seed-independent schedules —
/// runs the same loop type-erased.
void run_kk_sim_bitset(const run_spec& s, sim::adversary* adv,
                       const run_hooks* hooks, run_report& rep) {
  if (auto* r = dynamic_cast<sim::random_adversary*>(adv)) {
    run_kk_impl<sim_memory, bitset_rank_set>(s, r, hooks, rep);
  } else if (auto* b = dynamic_cast<sim::block_adversary*>(adv)) {
    run_kk_impl<sim_memory, bitset_rank_set>(s, b, hooks, rep);
  } else {
    run_kk_impl<sim_memory, bitset_rank_set>(s, adv, hooks, rep);
  }
}

template <class M>
void run_iter_impl(const run_spec& s, sim::adversary* adv,
                   const run_hooks* hooks, run_report& rep) {
  const bool write_all = s.algo == algo_family::wa_iterative;
  iterative_shared<M> shared(make_iterative_plan(s.n, s.m, s.eps_inv));
  rep.num_levels = shared.plan.levels.size();
  rep.beta = shared.plan.beta;

  amo_checker checker(s.n);
  write_all_array wa(write_all ? s.n : 1);

  std::vector<std::unique_ptr<iterative_process<M>>> procs;
  procs.reserve(s.m);
  for (process_id pid = 1; pid <= s.m; ++pid) {
    typename iterative_process<M>::perform_fn fn;
    if (write_all) {
      fn = [&wa, hooks, pid](job_id j) {
        wa.set(j);
        if (hooks != nullptr && hooks->on_perform) hooks->on_perform(pid, j);
      };
    } else {
      fn = [&checker, hooks, pid](job_id j) {
        checker.record(pid, j);
        if (hooks != nullptr && hooks->on_perform) hooks->on_perform(pid, j);
      };
    }
    procs.push_back(std::make_unique<iterative_process<M>>(
        shared, pid, write_all, std::move(fn)));
  }

  stopwatch clock;
  // The iterated algorithm runs 3 + 1/eps levels; scale the default limit.
  drive_spec(rep, procs, s, adv, shared.plan.levels.size() + 1);
  rep.wall_seconds = clock.seconds();

  harvest_checker(rep, checker);
  harvest_iter(rep, procs);
  if (s.driver == driver_kind::os_threads) {
    rep.total_steps = rep.total_work.actions;
  }
  if (write_all) {
    rep.wa_written = wa.count_set();
    rep.wa_complete = wa.complete();
    rep.effectiveness = rep.wa_written;
    // Write-All duplicates are legal; report the true do-action count so
    // perform_events means the same thing in every family.
    rep.perform_events = 0;
    for (const auto& p : procs) rep.perform_events += p->perform_count();
  }
}

void run_tas_impl(const run_spec& s, sim::adversary* adv, const run_hooks* hooks,
                  run_report& rep) {
  baseline::tas_board board(s.n);
  amo_checker checker(s.n);
  std::vector<std::unique_ptr<baseline::tas_process>> procs;
  procs.reserve(s.m);
  for (process_id pid = 1; pid <= s.m; ++pid) {
    procs.push_back(std::make_unique<baseline::tas_process>(
        board, s.m, pid, [&checker, hooks](process_id p, job_id j) {
          checker.record(p, j);
          if (hooks != nullptr && hooks->on_perform) hooks->on_perform(p, j);
        }));
  }

  stopwatch clock;
  drive_spec(rep, procs, s, adv);
  rep.wall_seconds = clock.seconds();

  harvest_checker(rep, checker);
  harvest_automata(rep, procs);
  if (s.driver == driver_kind::os_threads) {
    rep.total_steps = rep.total_work.actions;
  }
}

/// The three registers-model Write-All baseline automatons. They write the
/// shared array directly (no per-perform callback exists), so
/// run_hooks.on_perform is not observable here.
template <class Proc>
void run_wa_baseline_impl(const run_spec& s, sim::adversary* adv,
                          run_report& rep) {
  write_all_array wa(s.n);
  std::unique_ptr<baseline::wa_count_tree> tree;
  std::vector<std::unique_ptr<Proc>> procs;
  procs.reserve(s.m);
  for (process_id pid = 1; pid <= s.m; ++pid) {
    if constexpr (std::is_same_v<Proc, baseline::wa_split_scan_process>) {
      procs.push_back(std::make_unique<Proc>(wa, s.m, pid));
    } else if constexpr (std::is_same_v<Proc,
                                        baseline::wa_progress_tree_process>) {
      if (!tree) {
        tree = std::make_unique<baseline::wa_count_tree>(ceil_div(s.n, 64));
      }
      procs.push_back(std::make_unique<Proc>(wa, *tree, pid, 64));
    } else {
      procs.push_back(std::make_unique<Proc>(wa, pid));
    }
  }

  stopwatch clock;
  drive_spec(rep, procs, s, adv);
  rep.wall_seconds = clock.seconds();

  harvest_automata(rep, procs);
  rep.wa_written = wa.count_set();
  rep.wa_complete = wa.complete();
  rep.effectiveness = rep.wa_written;
  // Duplicate writes are legal (and, for wa_trivial, the design): report
  // the true do-action count, same meaning as in every other family.
  rep.perform_events = 0;
  for (const auto& p : procs) rep.perform_events += p->perform_count();
}

/// Exhaustive (or partial-order-reduced) exploration mapped onto the
/// run_report vocabulary: total_steps = transitions, total_work.local_ops =
/// states visited, terminated = quiescent states, effectiveness = the
/// minimum job count over all quiescent states (the exhaustively-proven
/// worst case), quiescent = "fully explored and acyclic", at_most_once =
/// "no duplicate anywhere". For model_explore_por, `pool` (may be null)
/// drives the exploration frontier; the report is bit-identical at any
/// pool size.
void run_model_impl(const run_spec& s, run_report& rep,
                    svc::worker_pool* pool) {
  if (s.n > model::max_jobs || s.m > model::max_procs) {
    bad_spec("model_explore handles n <= " + std::to_string(model::max_jobs) +
             ", m <= " + std::to_string(model::max_procs) + " only");
  }
  model::model_config cfg;
  cfg.n = s.n;
  cfg.m = s.m;
  cfg.beta = s.beta == 0 ? s.m : s.beta;
  cfg.rule = s.rule;
  cfg.mode = kk_mode::plain;
  cfg.crash_budget = s.crash_budget;

  stopwatch clock;
  model::explore_result res;
  if (s.algo == algo_family::model_explore_por) {
    model::por_options opt;
    opt.cfg = cfg;
    if (s.max_steps != 0) opt.max_states = s.max_steps;
    opt.pool = pool;
    res = model::explore_por(opt);
  } else {
    model::explore_options opt;
    opt.cfg = cfg;
    if (s.max_steps != 0) opt.max_states = s.max_steps;
    res = model::explore(opt);
  }
  rep.wall_seconds = clock.seconds();

  rep.adversary = "exhaustive";
  rep.seed = 0;
  rep.total_steps = res.transitions;
  rep.total_work.local_ops = res.states;
  rep.quiescent = res.complete && !res.cycle_found;
  rep.terminated = res.quiescent_states;
  rep.at_most_once = !res.duplicate_found;
  rep.effectiveness = res.min_effectiveness;
  rep.perform_events = rep.effectiveness;
}

run_report run_impl(run_spec s, sim::adversary* adv, const run_hooks* hooks,
                    svc::worker_pool* por_pool = nullptr) {
  // Family validation runs before the degenerate-universe shortcut: an
  // invalid spec must throw, not return a vacuously passing report.
  normalize_ao2(s);
  const bool wa_baseline = s.algo == algo_family::wa_trivial ||
                           s.algo == algo_family::wa_split_scan ||
                           s.algo == algo_family::wa_progress_tree;
  const bool model_family = s.algo == algo_family::model_explore ||
                            s.algo == algo_family::model_explore_por;
  if ((wa_baseline || model_family) && s.driver != driver_kind::scheduled) {
    bad_spec("write-all baselines and model_explore run under the scheduled "
             "driver only");
  }

  if (s.n == 0 || s.m == 0) {
    // Degenerate universes run to (vacuous) quiescence immediately; the
    // legacy entry points accepted them, so the engine does too.
    run_report rep;
    echo_spec(rep, s);
    rep.adversary = s.adversary.name;
    rep.seed = s.adversary.seed;
    rep.wa_complete = s.algo == algo_family::wa_iterative ||
                      s.algo == algo_family::wa_trivial ||
                      s.algo == algo_family::wa_split_scan ||
                      s.algo == algo_family::wa_progress_tree;
    return rep;
  }
  if (s.driver == driver_kind::os_threads) {
    s.memory = memory_kind::atomic;  // sim_memory is not thread-safe
  }
  if (s.free_set != free_set_kind::bitset &&
      !(s.algo == algo_family::kk && s.memory == memory_kind::sim)) {
    bad_spec("fenwick/ostree free sets are supported for kk over sim memory only");
  }
  run_report rep;
  echo_spec(rep, s);

  if (model_family) {
    // No adversary to resolve: the explorer IS every adversary at once.
    run_model_impl(s, rep, por_pool);
    return rep;
  }

  // Scheduled driver: resolve the adversary, optionally wrapped to record.
  std::unique_ptr<sim::adversary> owned;
  std::unique_ptr<sim::recording_adversary> recorder;
  sim::trace recorded;
  if (s.driver == driver_kind::scheduled) {
    if (adv == nullptr) {
      owned = make_adversary(s.adversary);
      if (!owned) bad_spec("unknown adversary '" + s.adversary.name + "'");
      adv = owned.get();
      echo_adversary(rep, s.adversary);
    } else {
      rep.adversary = adv->name();
    }
    if (s.record_trace) {
      recorder = std::make_unique<sim::recording_adversary>(*adv, recorded);
      adv = recorder.get();
    }
  }

  switch (s.algo) {
    case algo_family::kk:
    case algo_family::ao2:
      if (s.memory == memory_kind::sim) {
        switch (s.free_set) {
          case free_set_kind::bitset:
            run_kk_sim_bitset(s, adv, hooks, rep);
            break;
          case free_set_kind::fenwick:
            run_kk_impl<sim_memory, fenwick_rank_set>(s, adv, hooks, rep);
            break;
          case free_set_kind::ostree:
            run_kk_impl<sim_memory, ostree>(s, adv, hooks, rep);
            break;
        }
      } else {
        run_kk_impl<atomic_memory, bitset_rank_set>(s, adv, hooks, rep);
      }
      break;
    case algo_family::iterative:
    case algo_family::wa_iterative:
      if (s.memory == memory_kind::sim) {
        run_iter_impl<sim_memory>(s, adv, hooks, rep);
      } else {
        run_iter_impl<atomic_memory>(s, adv, hooks, rep);
      }
      break;
    case algo_family::tas:
      run_tas_impl(s, adv, hooks, rep);
      break;
    case algo_family::wa_trivial:
      run_wa_baseline_impl<baseline::wa_trivial_process>(s, adv, rep);
      break;
    case algo_family::wa_split_scan:
      run_wa_baseline_impl<baseline::wa_split_scan_process>(s, adv, rep);
      break;
    case algo_family::wa_progress_tree:
      run_wa_baseline_impl<baseline::wa_progress_tree_process>(s, adv, rep);
      break;
    case algo_family::model_explore:
    case algo_family::model_explore_por:
      break;  // handled before adversary resolution
  }

  if (s.record_trace) rep.trace = std::move(recorded);
  return rep;
}

}  // namespace

std::unique_ptr<sim::adversary> make_adversary(const adversary_spec& spec) {
  const std::string& name = spec.name;
  if (name == "announce_crash") {
    return std::make_unique<sim::announce_crash_adversary>();
  }
  // Parameterized families: random+crash:<num>/<den>, block:<quantum>,
  // stale_view:<leader_actions>.
  const std::string_view sv = name;
  if (sv.starts_with("random+crash:")) {
    const std::string_view rest = sv.substr(13);
    const usize slash = rest.find('/');
    std::uint64_t num = 0;
    std::uint64_t den = 0;
    if (slash == std::string_view::npos || !parse_u64(rest.substr(0, slash), num) ||
        !parse_u64(rest.substr(slash + 1), den) || den == 0) {
      return nullptr;
    }
    return std::make_unique<sim::random_adversary>(spec.seed, num, den);
  }
  if (sv.starts_with("block:")) {
    std::uint64_t quantum = 0;
    if (!parse_u64(sv.substr(6), quantum)) return nullptr;
    return std::make_unique<sim::block_adversary>(spec.seed, quantum);
  }
  if (sv.starts_with("stale_view:")) {
    std::uint64_t leader = 0;
    if (!parse_u64(sv.substr(11), leader)) return nullptr;
    return std::make_unique<sim::stale_view_adversary>(leader);
  }
  constexpr std::string_view kScripted = "scripted:";
  constexpr std::string_view kReplay = "replay:";
  if (name.starts_with(kScripted)) {
    sim::trace t;
    if (!sim::trace::parse(std::string_view(name).substr(kScripted.size()), t)) {
      return nullptr;
    }
    std::vector<sim::scripted_adversary::entry> script;
    script.reserve(t.size());
    for (const sim::trace_event& e : t.events()) {
      script.push_back({e.pid, e.what == sim::decision::kind::crash});
    }
    return std::make_unique<sim::scripted_adversary>(std::move(script));
  }
  if (name.starts_with(kReplay)) {
    sim::trace t;
    if (!sim::trace::parse(std::string_view(name).substr(kReplay.size()), t)) {
      return nullptr;
    }
    return std::make_unique<sim::replay_adversary>(std::move(t));
  }
  for (const sim::adversary_factory& f : sim::standard_adversaries()) {
    if (name == f.label) return f.make(spec.seed);
  }
  return nullptr;
}

run_report run(const run_spec& spec) { return run_impl(spec, nullptr, nullptr); }

run_report run(const run_spec& spec, const run_hooks& hooks) {
  return run_impl(spec, nullptr, &hooks);
}

run_report run(const run_spec& spec, sim::adversary& adv) {
  return run_impl(spec, &adv, nullptr);
}

run_report run(const run_spec& spec, sim::adversary& adv, const run_hooks& hooks) {
  return run_impl(spec, &adv, &hooks);
}

run_report replay(const run_spec& spec, const sim::trace& t) {
  run_spec s = spec;
  s.record_trace = true;
  sim::replay_adversary adv(t);
  return run(s, adv);
}

run_report run_por(const run_spec& spec, svc::worker_pool& pool) {
  if (spec.algo != algo_family::model_explore_por) {
    throw std::invalid_argument(
        "run_por drives model_explore_por only; use run() for everything else");
  }
  return run_impl(spec, nullptr, nullptr, &pool);
}

}  // namespace amo::exp
