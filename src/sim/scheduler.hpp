// The execution engine for the I/O-automaton model of Section 2.1: at each
// round the adversary names a runnable process, which then executes exactly
// one transition. Because every transition touches shared memory at most
// once, the resulting sequence is a linearization of the concurrent system —
// precisely the executions quantified over in the paper's proofs.
#pragma once

#include <cstdint>
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

class scheduler {
 public:
  /// Processes must be indexed so that processes[i]->id() == i+1.
  explicit scheduler(std::vector<automaton*> processes);

  /// Runs under `adv` until no process is runnable or `max_steps` actions
  /// executed. `crash_budget` is the paper's f (at most m-1 makes sense;
  /// the scheduler enforces whatever is passed). Throws std::logic_error,
  /// naming the adversary, if a decision names a pid outside [1..m] or a
  /// process that is not runnable.
  run_result run(adversary& adv, usize crash_budget, usize max_steps);

 private:
  void rebuild_runnable();

  std::vector<automaton*> processes_;
  std::vector<process_id> runnable_;
  std::vector<std::uint8_t> is_runnable_;  ///< by pid-1; mirrors runnable_
};

/// A defensive per-run action limit for wait-freedom tests: generous enough
/// that no correct execution hits it (Theorem 5.6 implies O(nm log n log m)
/// actions), small enough that a livelock is caught quickly.
[[nodiscard]] usize default_step_limit(usize n, usize m);

}  // namespace amo::sim
