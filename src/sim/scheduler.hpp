// The execution engine for the I/O-automaton model of Section 2.1: at each
// round the adversary names a runnable process, which then executes exactly
// one transition. Because every transition touches shared memory at most
// once, the resulting sequence is a linearization of the concurrent system —
// precisely the executions quantified over in the paper's proofs.
//
// This is the only scheduler loop in the library. It is a template over the
// process type P and (per run) the adversary type A, and exp::run
// instantiates it two ways: over the concrete kk_process and a concrete
// seeded adversary (random_adversary, block_adversary) for KK over
// sim_memory with bitset FREE sets, so step() and decide() inline into the
// loop; and type-erased — P = automaton, A = sim::adversary — for
// everything else, decorators around an adversary included.
#pragma once

#include <cassert>
#include <concepts>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/automaton.hpp"
#include "sim/adversary.hpp"
#include "util/types.hpp"

namespace amo::sim {

struct run_result {
  usize total_steps = 0;
  usize crashes = 0;
  /// True when every process reached `end` or `stop` (a finite fair
  /// execution); false when the step limit cut the run short.
  bool quiescent = false;
};

template <class P = automaton>
  requires std::derived_from<P, automaton>
class scheduler {
 public:
  /// Processes must be indexed so that processes[i]->id() == i+1.
  explicit scheduler(std::vector<P*> processes)
      : processes_(processes.begin(), processes.end()) {
    for (usize i = 0; i < processes_.size(); ++i) {
      assert(processes_[i] != nullptr);
      assert(processes_[i]->id() == i + 1 && "processes must be pid-ordered");
    }
    runnable_.reserve(processes_.size());
    is_runnable_.assign(processes_.size(), 0);
  }

  /// Runs under `adv` until no process is runnable or `max_steps` actions
  /// executed. `crash_budget` is the paper's f (at most m-1 makes sense;
  /// the scheduler enforces whatever is passed). Throws std::logic_error,
  /// naming the adversary, if a decision names a pid outside [1..m] or a
  /// process that is not runnable.
  template <std::derived_from<adversary> A>
  run_result run(A& adv, usize crash_budget, usize max_steps) {
    if constexpr (std::is_final_v<A> && std::copyable<A>) {
      // A concrete adversary runs as a local copy, written back at the end.
      // The copy's address never escapes, so its PRNG and quantum state stay
      // in registers across the opaque step() calls; the caller's object
      // would be spilled and reloaded around every one of them.
      A local = adv;
      const run_result res = loop(local, crash_budget, max_steps);
      adv = local;
      return res;
    } else {
      return loop(adv, crash_budget, max_steps);
    }
  }

 private:
  [[nodiscard]] P& proc(process_id pid) const {
    return *static_cast<P*>(processes_[pid - 1]);
  }

  template <class A>
  run_result loop(A& adv, usize crash_budget, usize max_steps) {
    run_result result;
    rebuild_runnable();
    while (!runnable_.empty() && result.total_steps < max_steps) {
      const sched_view view{processes_, runnable_, result.total_steps,
                            result.crashes, crash_budget};
      const decision d = adv.decide(view);
      if (d.pid < 1 || d.pid > processes_.size() ||
          is_runnable_[d.pid - 1] == 0) {
        throw std::logic_error(std::string("adversary '") + adv.name() +
                               "' named process " + std::to_string(d.pid) +
                               ", which is not a runnable process in [1.." +
                               std::to_string(processes_.size()) + "]");
      }
      P& target = proc(d.pid);
      if (d.what == decision::kind::crash && result.crashes < crash_budget) {
        target.crash();
        ++result.crashes;
        rebuild_runnable();
        continue;
      }
      target.step();
      ++result.total_steps;
      if (!target.runnable()) rebuild_runnable();
    }
    result.quiescent = runnable_.empty();
    return result;
  }

  void rebuild_runnable() {
    runnable_.clear();
    for (process_id pid = 1; pid <= processes_.size(); ++pid) {
      const bool r = proc(pid).runnable();
      is_runnable_[pid - 1] = r ? 1 : 0;
      if (r) runnable_.push_back(pid);
    }
  }

  std::vector<automaton*> processes_;  ///< what the adversary's view shows
  std::vector<process_id> runnable_;
  std::vector<std::uint8_t> is_runnable_;  ///< by pid-1; mirrors runnable_
};

/// A defensive per-run action limit for wait-freedom tests: generous enough
/// that no correct execution hits it (Theorem 5.6 implies O(nm log n log m)
/// actions), small enough that a livelock is caught quickly.
[[nodiscard]] usize default_step_limit(usize n, usize m);

}  // namespace amo::sim
