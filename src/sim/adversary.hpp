// The omniscient on-line adversary of Section 2.1: before every transition
// it inspects the complete state of every process (it "has complete
// knowledge of the algorithm executed by the processes") and decides which
// runnable process takes the next step, or spends one of its f crash
// credits on a process.
//
// The library ships the schedules the paper's analysis cares about:
//   round_robin      — fair lock-step interleaving
//   random           — seeded uniform choice, optional random crashes
//   block            — one process runs a quantum of consecutive actions
//   stale_view       — a leader races ahead alone, then laggards wake with
//                      stale FREE views (maximizes DONE-collisions)
//   announce_crash   — the Theorem 4.4 worst case: crash each of processes
//                      1..m-1 right after its first announce, run process m
//                      solo; yields exactly n-(beta+m-2) jobs performed
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/automaton.hpp"
#include "util/fastdiv.hpp"
#include "util/prng.hpp"
#include "util/types.hpp"

namespace amo::sim {

/// What the scheduler exposes to the adversary each round.
struct sched_view {
  /// All processes, indexable by pid-1 (omniscient access).
  std::span<automaton* const> processes;
  /// Ids of currently runnable processes, ascending.
  std::span<const process_id> runnable;
  usize total_steps = 0;
  usize crashes_used = 0;
  usize crash_budget = 0;  ///< f; crashes_used never exceeds this
};

/// One scheduling decision.
struct decision {
  enum class kind : std::uint8_t { step, crash };
  kind what = kind::step;
  process_id pid = 1;  ///< must be runnable (scheduler::run throws otherwise)
};

class adversary {
 public:
  virtual ~adversary() = default;
  /// Called with at least one runnable process; returns the next decision.
  /// A crash decision is only honored while crashes_used < crash_budget
  /// (the scheduler downgrades an over-budget crash to a step).
  virtual decision decide(const sched_view& v) = 0;
  /// Human-readable name for bench tables.
  [[nodiscard]] virtual const char* name() const = 0;
};

/// Fair lock-step rotation over runnable processes.
class round_robin_adversary final : public adversary {
 public:
  decision decide(const sched_view& v) override;
  [[nodiscard]] const char* name() const override { return "round_robin"; }

 private:
  usize cursor_ = 0;
};

/// Uniformly random runnable process each round; with probability
/// crash_num/crash_den (and while budget lasts) crashes it instead. Both
/// draws go through a bounded_draw cache, so they are divide-free yet
/// bit-identical to xoshiro256::below / chance.
class random_adversary final : public adversary {
 public:
  explicit random_adversary(std::uint64_t seed, std::uint64_t crash_num = 0,
                            std::uint64_t crash_den = 1000);
  decision decide(const sched_view& v) override;
  [[nodiscard]] const char* name() const override { return "random"; }

 private:
  xoshiro256 rng_;
  bounded_draw pick_;  ///< runnable-size draws
  bounded_draw coin_;  ///< crash-chance draws (constant bound crash_den)
  std::uint64_t crash_num_;
  std::uint64_t crash_den_;
};

/// Picks a random runnable process and runs it for `quantum` consecutive
/// actions before re-picking. Large quanta create divergent FREE views.
class block_adversary final : public adversary {
 public:
  block_adversary(std::uint64_t seed, usize quantum);
  decision decide(const sched_view& v) override;
  [[nodiscard]] const char* name() const override { return "block"; }

 private:
  xoshiro256 rng_;
  usize quantum_;
  process_id current_ = 0;
  usize remaining_ = 0;
};

/// Lets the lowest-id runnable process execute `leader_actions` actions
/// solo, then rotates through everyone. Laggards then hold maximally stale
/// FREE views: nearly every candidate they pick is already in DONE, which
/// is the collision pattern the work analysis of Section 5 bounds.
class stale_view_adversary final : public adversary {
 public:
  explicit stale_view_adversary(usize leader_actions);
  decision decide(const sched_view& v) override;
  [[nodiscard]] const char* name() const override { return "stale_view"; }

 private:
  usize leader_actions_;
  usize cursor_ = 0;
};

/// Replays an explicit pid script (crashes prefixed with `crash=true`), then
/// falls back to round-robin. The workhorse for writing regression tests
/// that pin down an exact interleaving (see tests/test_kk_two_process.cpp);
/// entries naming non-runnable processes are skipped.
class scripted_adversary final : public adversary {
 public:
  struct entry {
    process_id pid = 1;
    bool crash = false;
  };

  explicit scripted_adversary(std::vector<entry> script)
      : script_(std::move(script)) {}

  /// Convenience: steps only, given as a pid sequence.
  static scripted_adversary steps(std::vector<process_id> pids);

  decision decide(const sched_view& v) override;
  [[nodiscard]] const char* name() const override { return "scripted"; }

 private:
  std::vector<entry> script_;
  usize cursor_ = 0;
  usize fallback_ = 0;
};

/// The explicit adversarial strategy from the proof of Theorem 4.4: for
/// q = 1..m-1 in turn, run q until it completes its first announce
/// (setNext), then crash it — each crashed process leaves a distinct job
/// stuck in its next-register. Then run process m alone to termination.
/// Process m's TRY always contains the m-1 stuck jobs, so it stops as soon
/// as |FREE \ TRY| < beta, leaving exactly beta+m-2 jobs unperformed.
class announce_crash_adversary final : public adversary {
 public:
  decision decide(const sched_view& v) override;
  [[nodiscard]] const char* name() const override { return "announce_crash"; }
};

/// Convenience factory set used by sweep tests/benches.
struct adversary_factory {
  const char* label;
  std::unique_ptr<adversary> (*make)(std::uint64_t seed);
};

/// The standard sweep: round_robin, random (no crash), random (with
/// crashes), block(4), block(64), stale_view.
std::span<const adversary_factory> standard_adversaries();

}  // namespace amo::sim
