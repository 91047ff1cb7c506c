// Tests for the simulation engine itself: scheduler step/crash mechanics,
// adversary behaviors, step limits, fairness of round-robin.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/automaton.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"

namespace amo {
namespace {

/// Toy automaton: counts down `budget` steps, then terminates.
class countdown final : public automaton {
 public:
  countdown(process_id pid, usize budget) : pid_(pid), left_(budget) {}

  void step() override {
    ++steps_;
    if (left_ > 0) --left_;
  }
  [[nodiscard]] bool runnable() const override { return !crashed_ && left_ > 0; }
  void crash() override { crashed_ = true; }
  [[nodiscard]] process_id id() const override { return pid_; }
  [[nodiscard]] action_kind next_action() const override {
    return action_kind::local_compute;
  }
  [[nodiscard]] usize announce_count() const override { return 0; }
  [[nodiscard]] usize perform_count() const override { return 0; }
  [[nodiscard]] usize step_count() const override { return steps_; }

  usize steps_ = 0;
  bool crashed_ = false;

 private:
  process_id pid_;
  usize left_;
};

std::vector<automaton*> handles(std::vector<std::unique_ptr<countdown>>& v) {
  std::vector<automaton*> out;
  for (auto& p : v) out.push_back(p.get());
  return out;
}

TEST(Scheduler, RunsToQuiescence) {
  std::vector<std::unique_ptr<countdown>> procs;
  for (process_id p = 1; p <= 3; ++p) {
    procs.push_back(std::make_unique<countdown>(p, 10));
  }
  sim::scheduler sched(handles(procs));
  sim::round_robin_adversary adv;
  const auto result = sched.run(adv, 0, 1000);
  EXPECT_TRUE(result.quiescent);
  EXPECT_EQ(result.total_steps, 30u);
  EXPECT_EQ(result.crashes, 0u);
  for (auto& p : procs) EXPECT_FALSE(p->runnable());
}

TEST(Scheduler, StepLimitCutsRunShort) {
  std::vector<std::unique_ptr<countdown>> procs;
  procs.push_back(std::make_unique<countdown>(1, 1000));
  sim::scheduler sched(handles(procs));
  sim::round_robin_adversary adv;
  const auto result = sched.run(adv, 0, 50);
  EXPECT_FALSE(result.quiescent);
  EXPECT_EQ(result.total_steps, 50u);
}

TEST(Scheduler, RoundRobinIsFair) {
  std::vector<std::unique_ptr<countdown>> procs;
  for (process_id p = 1; p <= 4; ++p) {
    procs.push_back(std::make_unique<countdown>(p, 100));
  }
  sim::scheduler sched(handles(procs));
  sim::round_robin_adversary adv;
  sched.run(adv, 0, 200);
  // 200 steps over 4 processes: exactly 50 each.
  for (auto& p : procs) EXPECT_EQ(p->steps_, 50u);
}

TEST(Scheduler, CrashBudgetEnforced) {
  std::vector<std::unique_ptr<countdown>> procs;
  for (process_id p = 1; p <= 4; ++p) {
    procs.push_back(std::make_unique<countdown>(p, 1000000));
  }
  sim::scheduler sched(handles(procs));
  // Crash-hungry adversary: tries to crash on every decision.
  sim::random_adversary adv(99, 1, 1);
  const auto result = sched.run(adv, 2, 10000);
  EXPECT_EQ(result.crashes, 2u);
  usize crashed = 0;
  for (auto& p : procs) crashed += p->crashed_ ? 1 : 0;
  EXPECT_EQ(crashed, 2u);
  // With the budget spent, the remaining two must still be stepped.
  EXPECT_FALSE(result.quiescent);
  EXPECT_EQ(result.total_steps, 10000u);
}

/// Misbehaving adversary: names the same pid on every decision, as a step
/// or as a crash, whether or not that process can still act.
class fixed_pid_adversary final : public sim::adversary {
 public:
  fixed_pid_adversary(process_id pid, sim::decision::kind what)
      : pid_(pid), what_(what) {}
  sim::decision decide(const sim::sched_view&) override { return {what_, pid_}; }
  [[nodiscard]] const char* name() const override { return "fixed_pid"; }

 private:
  process_id pid_;
  sim::decision::kind what_;
};

/// Runs `adv` and returns the std::logic_error message ("" if none thrown).
std::string run_error(sim::scheduler& sched, sim::adversary& adv,
                      usize crash_budget) {
  try {
    sched.run(adv, crash_budget, 100000);
  } catch (const std::logic_error& e) {
    return e.what();
  }
  return "";
}

TEST(Scheduler, StepOnTerminatedProcessFailsClosed) {
  std::vector<std::unique_ptr<countdown>> procs;
  for (process_id p = 1; p <= 3; ++p) {
    procs.push_back(std::make_unique<countdown>(p, 5));
  }
  sim::scheduler sched(handles(procs));
  fixed_pid_adversary adv(1, sim::decision::kind::step);
  const std::string err = run_error(sched, adv, 0);
  EXPECT_NE(err.find("fixed_pid"), std::string::npos) << err;
  // Process 1 took its 5 steps; the 6th decision named it terminated and
  // was refused instead of stepping a finished automaton to the cap.
  EXPECT_EQ(procs[0]->steps_, 5u);
  EXPECT_EQ(procs[1]->steps_, 0u);
}

TEST(Scheduler, CrashOnCrashedProcessFailsClosed) {
  std::vector<std::unique_ptr<countdown>> procs;
  for (process_id p = 1; p <= 3; ++p) {
    procs.push_back(std::make_unique<countdown>(p, 5));
  }
  sim::scheduler sched(handles(procs));
  fixed_pid_adversary adv(2, sim::decision::kind::crash);
  const std::string err = run_error(sched, adv, 2);
  EXPECT_NE(err.find("fixed_pid"), std::string::npos) << err;
  // The first crash is honored; the second names an already-crashed
  // process and must not spend the remaining budget.
  EXPECT_TRUE(procs[1]->crashed_);
  EXPECT_FALSE(procs[0]->crashed_);
  EXPECT_FALSE(procs[2]->crashed_);
}

TEST(Scheduler, PidOutsideRangeFailsClosed) {
  for (const process_id bad : {process_id{0}, process_id{3}}) {
    std::vector<std::unique_ptr<countdown>> procs;
    for (process_id p = 1; p <= 2; ++p) {
      procs.push_back(std::make_unique<countdown>(p, 5));
    }
    sim::scheduler sched(handles(procs));
    fixed_pid_adversary adv(bad, sim::decision::kind::step);
    const std::string err = run_error(sched, adv, 0);
    EXPECT_NE(err.find("fixed_pid"), std::string::npos) << "pid " << bad;
    for (auto& p : procs) EXPECT_EQ(p->steps_, 0u);
  }
}

TEST(Scheduler, AllCrashedIsQuiescent) {
  std::vector<std::unique_ptr<countdown>> procs;
  for (process_id p = 1; p <= 2; ++p) {
    procs.push_back(std::make_unique<countdown>(p, 1000000));
  }
  sim::scheduler sched(handles(procs));
  sim::random_adversary adv(7, 1, 1);
  const auto result = sched.run(adv, 2, 100000);
  EXPECT_TRUE(result.quiescent);
  EXPECT_EQ(result.crashes, 2u);
}

TEST(Adversary, BlockRunsQuanta) {
  std::vector<std::unique_ptr<countdown>> procs;
  for (process_id p = 1; p <= 2; ++p) {
    procs.push_back(std::make_unique<countdown>(p, 64));
  }
  sim::scheduler sched(handles(procs));
  sim::block_adversary adv(5, 8);
  const auto result = sched.run(adv, 0, 1000);
  EXPECT_TRUE(result.quiescent);
  EXPECT_EQ(result.total_steps, 128u);
}

TEST(Adversary, StaleViewFavorsLeaderFirst) {
  std::vector<std::unique_ptr<countdown>> procs;
  for (process_id p = 1; p <= 3; ++p) {
    procs.push_back(std::make_unique<countdown>(p, 1000));
  }
  sim::scheduler sched(handles(procs));
  sim::stale_view_adversary adv(100);
  sched.run(adv, 0, 100);
  EXPECT_EQ(procs[0]->steps_, 100u);
  EXPECT_EQ(procs[1]->steps_, 0u);
  EXPECT_EQ(procs[2]->steps_, 0u);
}

TEST(Adversary, ScriptedFollowsScriptThenFallsBack) {
  std::vector<std::unique_ptr<countdown>> procs;
  for (process_id p = 1; p <= 3; ++p) {
    procs.push_back(std::make_unique<countdown>(p, 10));
  }
  sim::scheduler sched(handles(procs));
  auto adv = sim::scripted_adversary::steps({2, 2, 2, 3});
  sched.run(adv, 0, 6);
  // Script: three steps for p2, one for p3; fallback round-robin then
  // supplies steps 5-6 to p1 and p2.
  EXPECT_EQ(procs[0]->steps_, 1u);
  EXPECT_EQ(procs[1]->steps_, 4u);
  EXPECT_EQ(procs[2]->steps_, 1u);
}

TEST(Adversary, ScriptedCrashEntriesHonored) {
  std::vector<std::unique_ptr<countdown>> procs;
  for (process_id p = 1; p <= 2; ++p) {
    procs.push_back(std::make_unique<countdown>(p, 100));
  }
  sim::scheduler sched(handles(procs));
  sim::scripted_adversary adv({{1, false}, {2, true}, {1, false}});
  const auto result = sched.run(adv, 1, 10);
  EXPECT_EQ(result.crashes, 1u);
  EXPECT_TRUE(procs[1]->crashed_);
  EXPECT_FALSE(procs[0]->crashed_);
}

TEST(Adversary, ScriptedSkipsFinishedProcesses) {
  std::vector<std::unique_ptr<countdown>> procs;
  procs.push_back(std::make_unique<countdown>(1, 1));
  procs.push_back(std::make_unique<countdown>(2, 5));
  sim::scheduler sched(handles(procs));
  // Script names p1 repeatedly even after it finishes; entries must be
  // skipped in favor of later ones.
  auto adv = sim::scripted_adversary::steps({1, 1, 1, 2, 2});
  const auto result = sched.run(adv, 0, 100);
  EXPECT_TRUE(result.quiescent);
  EXPECT_EQ(procs[0]->steps_, 1u);
  EXPECT_EQ(procs[1]->steps_, 5u);
}

TEST(Adversary, StandardFactoryProducesAll) {
  const auto factories = sim::standard_adversaries();
  EXPECT_EQ(factories.size(), 6u);
  for (const auto& f : factories) {
    auto adv = f.make(42);
    ASSERT_NE(adv, nullptr);
    EXPECT_STRNE(adv->name(), "");
  }
}

TEST(Adversary, DefaultStepLimitGenerous) {
  // Must exceed any plausible action count for the given size.
  EXPECT_GT(sim::default_step_limit(1000, 4), 1000u * 4u);
  EXPECT_GT(sim::default_step_limit(16, 2), 1000u);
}

}  // namespace
}  // namespace amo
