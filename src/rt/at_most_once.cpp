// The facade runs every call through exp::run on the os_threads driver: m
// OS threads, each driving one automaton against atomic_memory, with the
// caller's callback attached as the engine's on_perform hook.
#include "rt/at_most_once.hpp"

#include <algorithm>
#include <atomic>

#include "exp/engine.hpp"

namespace amo {

namespace {

exp::run_spec thread_spec(exp::algo_family algo, usize n, usize m) {
  exp::run_spec spec;
  spec.algo = algo;
  spec.driver = exp::driver_kind::os_threads;
  spec.n = n;
  spec.m = m;
  return spec;
}

/// Runs `spec` with `job` at every do action and folds the engine report
/// into the facade's. Per-thread buckets collect performed ids without
/// locking (each worker appends only to its own); they merge after the
/// join.
run_report run_collecting(const exp::run_spec& spec, const run_config& cfg,
                          const std::function<void(job_id)>& job) {
  std::vector<std::vector<job_id>> buckets(
      cfg.collect_performed ? cfg.num_threads : 0);
  exp::run_hooks hooks;
  hooks.on_perform = [&job, &buckets, &cfg](process_id p, job_id j) {
    if (cfg.collect_performed) buckets[p - 1].push_back(j);
    if (job) job(j);
  };
  const exp::run_report raw = exp::run(spec, hooks);

  run_report out;
  if (cfg.collect_performed) {
    for (auto& b : buckets) {
      out.performed.insert(out.performed.end(), b.begin(), b.end());
    }
    std::sort(out.performed.begin(), out.performed.end());
  }
  out.jobs_performed = raw.effectiveness;
  out.jobs_unperformed = cfg.num_jobs - raw.effectiveness;
  out.at_most_once = raw.at_most_once;
  out.threads_finished = raw.terminated;
  out.wall_seconds = raw.wall_seconds;
  out.total_shared_ops = raw.total_work.shared_reads + raw.total_work.shared_writes;
  return out;
}

}  // namespace

run_report perform_at_most_once(const run_config& cfg,
                                const std::function<void(job_id)>& job) {
  exp::run_spec spec =
      thread_spec(exp::algo_family::kk, cfg.num_jobs, cfg.num_threads);
  spec.beta = cfg.beta;
  return run_collecting(spec, cfg, job);
}

run_report perform_at_most_once_iterative(
    const run_config& cfg, unsigned eps_inv,
    const std::function<void(job_id)>& job) {
  exp::run_spec spec =
      thread_spec(exp::algo_family::iterative, cfg.num_jobs, cfg.num_threads);
  spec.eps_inv = eps_inv;
  return run_collecting(spec, cfg, job);
}

write_all_report write_all(const write_all_config& cfg,
                           const std::function<void(job_id)>& slot) {
  exp::run_spec spec = thread_spec(exp::algo_family::wa_iterative,
                                   cfg.num_slots, cfg.num_threads);
  spec.eps_inv = cfg.eps_inv;
  std::atomic<usize> invocations{0};
  exp::run_hooks hooks;
  hooks.on_perform = [&slot, &invocations](process_id, job_id j) {
    invocations.fetch_add(1, std::memory_order_relaxed);
    if (slot) slot(j);
  };
  const exp::run_report raw = exp::run(spec, hooks);

  write_all_report out;
  out.complete = raw.wa_complete;
  out.slots_written = raw.wa_written;
  out.callback_invocations = invocations.load(std::memory_order_relaxed);
  out.wall_seconds = raw.wall_seconds;
  return out;
}

}  // namespace amo
