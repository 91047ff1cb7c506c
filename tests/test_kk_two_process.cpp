// The two-process regime: KK_2 (paper rank rule) and the AO2 baseline
// ([26]-style two-ends rule, exp::algo_family::ao2). Exercises the
// collision paths of Lemma 4.1's proof with hand-crafted schedules.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/amo_checker.hpp"
#include "core/kk_process.hpp"
#include "exp/engine.hpp"
#include "mem/sim_memory.hpp"
#include "sim/scheduler.hpp"

namespace amo {
namespace {

using sim_kk = kk_process<sim_memory>;

using sim::scripted_adversary;

/// AO2 on n jobs with crash budget f; the engine fixes m = 2 and beta = 1.
exp::run_spec ao2_spec(usize n, usize f) {
  exp::run_spec s;
  s.algo = exp::algo_family::ao2;
  s.n = n;
  s.m = 2;
  s.crash_budget = f;
  return s;
}

TEST(KkTwoProcess, SimultaneousAnnouncementOfSameJobIsResolved) {
  // Force both processes to announce before either gathers: with n small
  // enough that their Fig. 2 picks collide (n < 2m-1 = 3 -> rank p), both
  // pick their own rank; use n = 2, m = 2 so picks are jobs 1 and 2 (no
  // collision), then n = 1 in the next test for the direct collision.
  const usize n = 2;
  sim_memory mem(2, n);
  amo_checker checker(n);
  std::vector<std::unique_ptr<sim_kk>> procs;
  for (process_id pid = 1; pid <= 2; ++pid) {
    kk_config cfg;
    cfg.pid = pid;
    cfg.num_processes = 2;
    cfg.beta = 1;
    kk_hooks hooks;
    hooks.on_perform = [&checker](process_id p, job_id j) { checker.record(p, j); };
    procs.push_back(std::make_unique<sim_kk>(mem, cfg, nullptr, std::move(hooks)));
  }
  std::vector<automaton*> handles{procs[0].get(), procs[1].get()};
  sim::scheduler sched(handles);
  // Interleave action-by-action (perfect lockstep).
  auto adv = scripted_adversary::steps({1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2});
  const auto result = sched.run(adv, 0, 100000);
  EXPECT_TRUE(result.quiescent);
  EXPECT_TRUE(checker.ok());
  EXPECT_EQ(checker.distinct(), 2u);
}

TEST(KkTwoProcess, TryCollisionPreventsDuplicate) {
  // Script: p1 announces job j; p2 announces the same j (n=1 forces it);
  // both then gather and check — exactly one scenario of Lemma 4.1 Case 2.
  // Neither may perform j twice; in fact with both announcements visible
  // before either check, NEITHER performs (mutual TRY hit) and both
  // terminate (avail = 0 < beta).
  const usize n = 1;
  sim_memory mem(2, n);
  amo_checker checker(n);
  std::vector<std::unique_ptr<sim_kk>> procs;
  for (process_id pid = 1; pid <= 2; ++pid) {
    kk_config cfg;
    cfg.pid = pid;
    cfg.num_processes = 2;
    cfg.beta = 1;
    kk_hooks hooks;
    hooks.on_perform = [&checker](process_id p, job_id j) { checker.record(p, j); };
    procs.push_back(std::make_unique<sim_kk>(mem, cfg, nullptr, std::move(hooks)));
  }
  std::vector<automaton*> handles{procs[0].get(), procs[1].get()};
  sim::scheduler sched(handles);
  // p1: compNext, setNext; p2: compNext, setNext; then lockstep.
  auto adv = scripted_adversary::steps({1, 1, 2, 2});
  const auto result = sched.run(adv, 0, 100000);
  EXPECT_TRUE(result.quiescent);
  EXPECT_TRUE(checker.ok());
  EXPECT_EQ(checker.distinct(), 0u);  // the meeting job is sacrificed
  EXPECT_GE(procs[0]->stats().collisions_try + procs[1]->stats().collisions_try, 1u);
}

TEST(KkTwoProcess, DoneCollisionDetectedThroughLog) {
  // p1 performs job j fully (announce..record) while p2 sleeps holding the
  // same candidate; p2 must detect j through p1's done log (DONE hit), not
  // through TRY (p1 has already moved on) — Lemma 4.1 Case 2, second branch.
  const usize n = 4;  // small: p1 and p2 pick overlapping prefixes
  sim_memory mem(2, n);
  amo_checker checker(n);
  std::vector<std::unique_ptr<sim_kk>> procs;
  for (process_id pid = 1; pid <= 2; ++pid) {
    kk_config cfg;
    cfg.pid = pid;
    cfg.num_processes = 2;
    cfg.beta = 1;
    kk_hooks hooks;
    hooks.on_perform = [&checker](process_id p, job_id j) { checker.record(p, j); };
    procs.push_back(std::make_unique<sim_kk>(mem, cfg, nullptr, std::move(hooks)));
  }
  std::vector<automaton*> handles{procs[0].get(), procs[1].get()};
  sim::scheduler sched(handles);
  // p2 computes its pick (job 2) but does NOT announce it yet. p1 then runs
  // to completion, performing all four jobs (p2 wrote nothing, so p1 sees no
  // TRY conflicts). When p2 wakes it announces its stale pick, gathers, and
  // must detect job 2 through p1's done log: a DONE hit — Lemma 4.1 Case 2,
  // second branch (the announcement in next_1 has long been overwritten).
  std::vector<process_id> script{2};
  for (int i = 0; i < 60; ++i) script.push_back(1);
  auto adv = scripted_adversary::steps(std::move(script));
  const auto result = sched.run(adv, 0, 100000);
  EXPECT_TRUE(result.quiescent);
  EXPECT_TRUE(checker.ok());
  EXPECT_EQ(checker.distinct(), n);  // p1 performed everything
  EXPECT_GE(procs[1]->stats().collisions_done, 1u);
}

TEST(KkTwoProcess, Ao2EffectivenessIsNearOptimal) {
  // [26]'s two-process algorithm: effectiveness n-1 (only the meeting job).
  for (const std::uint64_t seed : {1ull, 9ull, 42ull}) {
    sim::random_adversary adv(seed);
    const auto report = exp::run(ao2_spec(501, 0), adv);
    ASSERT_TRUE(report.quiescent);
    EXPECT_TRUE(report.at_most_once);
    EXPECT_GE(report.effectiveness, 500u);
    EXPECT_LE(report.effectiveness, 501u);
  }
}

TEST(KkTwoProcess, Ao2SafeUnderOneCrash) {
  for (const std::uint64_t seed : {3ull, 13ull, 23ull}) {
    sim::random_adversary adv(seed, 1, 200);
    const auto report = exp::run(ao2_spec(400, 1), adv);
    ASSERT_TRUE(report.quiescent);
    EXPECT_TRUE(report.at_most_once);
    // One crash can strand one announced job; one more may be sacrificed at
    // the meeting point.
    EXPECT_GE(report.effectiveness, 398u);
  }
}

TEST(KkTwoProcess, Ao2SweepsFromOppositeEnds) {
  // Verify the two-ends structure: the first jobs performed by p1 are a
  // prefix, by p2 a suffix.
  const usize n = 100;
  sim_memory mem(2, n);
  std::vector<job_id> by_p1;
  std::vector<job_id> by_p2;
  std::vector<std::unique_ptr<sim_kk>> procs;
  for (process_id pid = 1; pid <= 2; ++pid) {
    kk_config cfg;
    cfg.pid = pid;
    cfg.num_processes = 2;
    cfg.beta = 1;
    cfg.rule = selection_rule::two_ends;
    kk_hooks hooks;
    hooks.on_perform = [&by_p1, &by_p2](process_id p, job_id j) {
      (p == 1 ? by_p1 : by_p2).push_back(j);
    };
    procs.push_back(std::make_unique<sim_kk>(mem, cfg, nullptr, std::move(hooks)));
  }
  std::vector<automaton*> handles{procs[0].get(), procs[1].get()};
  sim::scheduler sched(handles);
  sim::random_adversary adv(99);
  sched.run(adv, 0, 1000000);
  ASSERT_FALSE(by_p1.empty());
  ASSERT_FALSE(by_p2.empty());
  EXPECT_EQ(by_p1.front(), 1u);
  EXPECT_EQ(by_p2.front(), n);
  // Monotone sweeps.
  for (usize i = 1; i < by_p1.size(); ++i) EXPECT_LT(by_p1[i - 1], by_p1[i]);
  for (usize i = 1; i < by_p2.size(); ++i) EXPECT_GT(by_p2[i - 1], by_p2[i]);
}

TEST(KkTwoProcess, KkBeatsKknsFormulaAtScale) {
  // Headline C11 at m = 2... the formula collapses to n-1 there, equal to
  // AO2; the real gap appears at larger m and is covered by
  // bench_comparison. Here: KK_2's n-2 is within one job of AO2's n-1.
  exp::run_spec opt;
  opt.n = 300;
  opt.m = 2;
  sim::round_robin_adversary adv;
  const auto kk = exp::run(opt, adv);
  sim::random_adversary adv2(4);
  const auto ao2 = exp::run(ao2_spec(300, 0), adv2);
  EXPECT_GE(kk.effectiveness + 1, ao2.effectiveness);
}

}  // namespace
}  // namespace amo
