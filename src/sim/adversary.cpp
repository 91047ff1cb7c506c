#include "sim/adversary.hpp"

#include <array>

namespace amo::sim {

decision round_robin_adversary::decide(const sched_view& v) {
  const process_id pid = v.runnable[cursor_ % v.runnable.size()];
  ++cursor_;
  return {decision::kind::step, pid};
}

random_adversary::random_adversary(std::uint64_t seed, std::uint64_t crash_num,
                                   std::uint64_t crash_den)
    : rng_(seed), crash_num_(crash_num), crash_den_(crash_den) {}

decision random_adversary::decide(const sched_view& v) {
  const process_id pid =
      v.runnable[static_cast<usize>(pick_.below(rng_, v.runnable.size()))];
  if (crash_num_ > 0 && v.crashes_used < v.crash_budget &&
      coin_.below(rng_, crash_den_) < crash_num_) {
    return {decision::kind::crash, pid};
  }
  return {decision::kind::step, pid};
}

block_adversary::block_adversary(std::uint64_t seed, usize quantum)
    : rng_(seed), quantum_(quantum == 0 ? 1 : quantum) {}

decision block_adversary::decide(const sched_view& v) {
  // Continue the current quantum if its owner is still runnable.
  if (remaining_ > 0 && current_ != 0) {
    for (const process_id pid : v.runnable) {
      if (pid == current_) {
        --remaining_;
        return {decision::kind::step, pid};
      }
    }
  }
  current_ = v.runnable[static_cast<usize>(rng_.below(v.runnable.size()))];
  remaining_ = quantum_ - 1;
  return {decision::kind::step, current_};
}

stale_view_adversary::stale_view_adversary(usize leader_actions)
    : leader_actions_(leader_actions) {}

decision stale_view_adversary::decide(const sched_view& v) {
  const process_id leader = v.runnable.front();
  if (v.processes[leader - 1]->step_count() < leader_actions_) {
    return {decision::kind::step, leader};
  }
  const process_id pid = v.runnable[cursor_ % v.runnable.size()];
  ++cursor_;
  return {decision::kind::step, pid};
}

scripted_adversary scripted_adversary::steps(std::vector<process_id> pids) {
  std::vector<entry> script;
  script.reserve(pids.size());
  for (const process_id pid : pids) script.push_back({pid, false});
  return scripted_adversary(std::move(script));
}

decision scripted_adversary::decide(const sched_view& v) {
  while (cursor_ < script_.size()) {
    const entry e = script_[cursor_];
    ++cursor_;
    for (const process_id r : v.runnable) {
      if (r == e.pid) {
        return {e.crash ? decision::kind::crash : decision::kind::step, e.pid};
      }
    }
    // Scripted process already finished/crashed: skip the entry.
  }
  const process_id pid = v.runnable[fallback_++ % v.runnable.size()];
  return {decision::kind::step, pid};
}

decision announce_crash_adversary::decide(const sched_view& v) {
  const usize m = v.processes.size();
  for (const process_id pid : v.runnable) {
    if (pid == m) continue;  // the survivor runs last
    // Run q until its first announce is in shared memory, then crash it.
    if (v.processes[pid - 1]->announce_count() == 0) {
      return {decision::kind::step, pid};
    }
    if (v.crashes_used < v.crash_budget) {
      return {decision::kind::crash, pid};
    }
    // Out of crash credits (f < m-1): just keep stepping the survivor set
    // round-robin; the bound still holds, it is simply not tight.
    return {decision::kind::step, pid};
  }
  return {decision::kind::step, v.runnable.back()};
}

namespace {

std::unique_ptr<adversary> make_round_robin(std::uint64_t) {
  return std::make_unique<round_robin_adversary>();
}
std::unique_ptr<adversary> make_random(std::uint64_t seed) {
  return std::make_unique<random_adversary>(seed);
}
std::unique_ptr<adversary> make_random_crashy(std::uint64_t seed) {
  return std::make_unique<random_adversary>(seed, 1, 500);
}
std::unique_ptr<adversary> make_block4(std::uint64_t seed) {
  return std::make_unique<block_adversary>(seed, 4);
}
std::unique_ptr<adversary> make_block64(std::uint64_t seed) {
  return std::make_unique<block_adversary>(seed, 64);
}
std::unique_ptr<adversary> make_stale(std::uint64_t) {
  return std::make_unique<stale_view_adversary>(50000);
}

constexpr std::array<adversary_factory, 6> kStandard{{
    {"round_robin", &make_round_robin},
    {"random", &make_random},
    {"random+crash", &make_random_crashy},
    {"block4", &make_block4},
    {"block64", &make_block64},
    {"stale_view", &make_stale},
}};

}  // namespace

std::span<const adversary_factory> standard_adversaries() { return kStandard; }

}  // namespace amo::sim
