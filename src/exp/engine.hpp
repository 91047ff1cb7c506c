// exp::run — the one run driver.
//
// Every way this repository executes the paper's algorithms goes through
// here: plain KK_beta / IterativeKK(eps) / WA_IterativeKK(eps), over
// sim_memory or atomic_memory, driven by the Section 2.1 adversary-scheduled
// simulator or by real OS threads (the public facade in rt/at_most_once.hpp
// included), so the checker / collision-ledger / stats aggregation exists
// exactly once.
//
// Scheduled runs are deterministic functions of their spec (all randomness
// is seeded); setting spec.record_trace additionally captures the decision
// trace, and replay() re-executes it through a replay adversary —
// equivalent(original, replayed) must hold.
//
// Scheduled runs go through the one loop, sim::scheduler<P>::run<A>, in two
// instantiations. KK over sim_memory with bitset FREE sets whose adversary
// is a sim::random_adversary or sim::block_adversary (the seeded
// schedules) binds both types statically, so decide() and step() inline;
// everything else — decorators such as a timing or recording wrapper, the
// seed-independent schedules, the other families — runs it over automaton
// and the virtual sim::adversary. Both produce the same reports.
#pragma once

#include <functional>
#include <memory>

#include "exp/spec.hpp"
#include "sim/adversary.hpp"

namespace amo::svc {
class worker_pool;
}  // namespace amo::svc

namespace amo::exp {

/// Optional observation hooks; not part of a spec's value identity.
struct run_hooks {
  /// Invoked at every do_{p,j} action on REAL jobs (after the at-most-once
  /// checker records it). Under os_threads it runs on the worker thread and
  /// must be thread-safe across distinct jobs. In write-all mode it fires
  /// for duplicate executions too (by design).
  std::function<void(process_id, job_id)> on_perform;
};

/// Constructs the adversary `spec` names (see adversary_spec for the
/// recognized names); returns nullptr for an unknown name or a malformed
/// scripted:/replay: trace.
[[nodiscard]] std::unique_ptr<sim::adversary> make_adversary(
    const adversary_spec& spec);

/// Runs one execution. Throws std::invalid_argument when the spec names an
/// unknown adversary or combines os_threads with sim memory knobs that make
/// no sense (fenwick/ostree free sets are scheduled×sim only).
run_report run(const run_spec& spec);
run_report run(const run_spec& spec, const run_hooks& hooks);

/// Scheduled-driver variants taking a caller-owned adversary (for scripted
/// or otherwise hand-built schedules); spec.adversary is ignored.
run_report run(const run_spec& spec, sim::adversary& adv);
run_report run(const run_spec& spec, sim::adversary& adv, const run_hooks& hooks);

/// Re-runs `spec` with its adversary replaced by a faithful replay of `t`
/// (recording again, so the result's trace can be compared to `t`).
run_report replay(const run_spec& spec, const sim::trace& t);

/// model_explore_por only: runs the POR checker with `pool` driving the
/// exploration frontier. The report is bit-identical to plain run(spec) —
/// which explores serially — at any pool size; use this entry point when a
/// pool is available and the call is NOT already inside a pool task (the
/// frontier issues its own run_indexed batches). Throws std::invalid_argument
/// for any other algo family.
run_report run_por(const run_spec& spec, svc::worker_pool& pool);

}  // namespace amo::exp
