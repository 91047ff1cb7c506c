#include "sim/scheduler.hpp"

#include <cassert>
#include <stdexcept>
#include <string>

#include "util/math.hpp"

namespace amo::sim {

scheduler::scheduler(std::vector<automaton*> processes)
    : processes_(std::move(processes)) {
  for (usize i = 0; i < processes_.size(); ++i) {
    assert(processes_[i] != nullptr);
    assert(processes_[i]->id() == i + 1 && "processes must be pid-ordered");
  }
  runnable_.reserve(processes_.size());
  is_runnable_.assign(processes_.size(), 0);
}

void scheduler::rebuild_runnable() {
  runnable_.clear();
  for (const automaton* p : processes_) {
    const bool r = p->runnable();
    is_runnable_[p->id() - 1] = r ? 1 : 0;
    if (r) runnable_.push_back(p->id());
  }
}

run_result scheduler::run(adversary& adv, usize crash_budget, usize max_steps) {
  run_result result;
  rebuild_runnable();
  while (!runnable_.empty() && result.total_steps < max_steps) {
    const sched_view view{processes_, runnable_, result.total_steps,
                          result.crashes, crash_budget};
    const decision d = adv.decide(view);
    if (d.pid < 1 || d.pid > processes_.size() || is_runnable_[d.pid - 1] == 0) {
      throw std::logic_error(std::string("adversary '") + adv.name() +
                             "' named process " + std::to_string(d.pid) +
                             ", which is not a runnable process in [1.." +
                             std::to_string(processes_.size()) + "]");
    }
    automaton* target = processes_[d.pid - 1];
    if (d.what == decision::kind::crash && result.crashes < crash_budget) {
      target->crash();
      ++result.crashes;
      rebuild_runnable();
      continue;
    }
    target->step();
    ++result.total_steps;
    if (!target->runnable()) rebuild_runnable();
  }
  result.quiescent = runnable_.empty();
  return result;
}

usize default_step_limit(usize n, usize m) {
  // Theorem 5.6 bounds total work (hence actions) by O(nm log n log m) for
  // beta >= 3m^2; smaller beta can only reduce collisions' job-progress but
  // actions stay within the same envelope in practice. A x64 safety factor
  // keeps false livelock alarms out while still catching real ones fast.
  const std::uint64_t lg_n = clamped_log2(n == 0 ? 1 : n);
  const std::uint64_t lg_m = clamped_log2(m == 0 ? 1 : m);
  return static_cast<usize>(64 * (n + 16) * (m + 1) * lg_n * lg_m);
}

}  // namespace amo::sim
