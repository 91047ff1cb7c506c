// Real-concurrency tests: the same automaton code on std::atomic registers
// with genuine OS-thread interleavings. Safety (no duplicate do) must hold
// on every run; Lemma 4.2 gives a hard effectiveness floor whenever all
// surviving threads terminate.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "analysis/bounds.hpp"
#include "exp/engine.hpp"

namespace amo {
namespace {

usize hw_threads() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 4 : hc;
}

/// An os_threads run of `algo` on n jobs and m threads, crash-free.
exp::run_spec thread_spec(exp::algo_family algo, usize n, usize m) {
  exp::run_spec s;
  s.algo = algo;
  s.driver = exp::driver_kind::os_threads;
  s.n = n;
  s.m = m;
  return s;
}

exp::crash_spec after_actions(std::vector<usize> per_thread) {
  return {exp::crash_spec::kind::after_actions, std::move(per_thread), 0};
}

exp::crash_spec after_first_announce(usize count) {
  return {exp::crash_spec::kind::after_first_announce, {}, count};
}

TEST(Threads, AtMostOnceAcrossRepeatedRuns) {
  const usize m = std::min<usize>(hw_threads(), 8);
  for (int round = 0; round < 8; ++round) {
    const auto report =
        exp::run(thread_spec(exp::algo_family::kk, 20000, m));
    ASSERT_TRUE(report.at_most_once)
        << "duplicate job " << report.duplicate << " in round " << round;
    EXPECT_EQ(report.terminated, m);
    EXPECT_GE(report.effectiveness, bounds::kk_effectiveness(20000, m, m));
    EXPECT_LE(report.effectiveness, 20000u);
  }
}

TEST(Threads, JobFunctionSeesEachJobOnce) {
  const usize n = 8000;
  const usize m = std::min<usize>(hw_threads(), 6);
  std::vector<std::atomic<std::uint32_t>> hits(n + 1);
  exp::run_hooks hooks;
  hooks.on_perform = [&hits](process_id, job_id j) {
    hits[j].fetch_add(1, std::memory_order_relaxed);
  };
  const auto report =
      exp::run(thread_spec(exp::algo_family::kk, n, m), hooks);
  ASSERT_TRUE(report.at_most_once);
  usize performed = 0;
  for (job_id j = 1; j <= n; ++j) {
    const auto h = hits[j].load(std::memory_order_relaxed);
    ASSERT_LE(h, 1u) << "job " << j << " executed " << h << " times";
    performed += h;
  }
  EXPECT_EQ(performed, report.effectiveness);
}

TEST(Threads, CrashInjectionAfterAnnounce) {
  // Threads 1..m-1 crash right after their first announce — the thread-
  // runtime version of the Theorem 4.4 adversary. The survivor must finish,
  // and effectiveness must be >= the bound (scheduling noise usually makes
  // it land above the simulated tight value, never below).
  const usize n = 5000;
  const usize m = 4;
  exp::run_spec spec = thread_spec(exp::algo_family::kk, n, m);
  spec.crashes = after_first_announce(m - 1);
  const auto report = exp::run(spec);
  ASSERT_TRUE(report.at_most_once);
  EXPECT_EQ(report.crashes, m - 1);
  EXPECT_EQ(report.terminated, 1u);
  EXPECT_GE(report.effectiveness, bounds::kk_effectiveness(n, m, m));
  EXPECT_LE(report.effectiveness, bounds::effectiveness_upper(n, 0));
}

TEST(Threads, CrashInjectionMidRun) {
  const usize n = 10000;
  const usize m = std::min<usize>(hw_threads(), 6);
  std::vector<usize> at(m, 0);
  for (usize i = 0; i + 1 < m; ++i) at[i] = 500 * (i + 1);  // survivor: last
  exp::run_spec spec = thread_spec(exp::algo_family::kk, n, m);
  spec.crashes = after_actions(at);
  const auto report = exp::run(spec);
  ASSERT_TRUE(report.at_most_once) << "duplicate " << report.duplicate;
  EXPECT_GE(report.terminated, 1u);
  EXPECT_GE(report.effectiveness, bounds::kk_effectiveness(n, m, m));
}

TEST(Threads, SingleThreadDegeneratesToSequential) {
  exp::run_spec spec = thread_spec(exp::algo_family::kk, 3000, 1);
  spec.beta = 1;
  const auto report = exp::run(spec);
  EXPECT_TRUE(report.at_most_once);
  EXPECT_EQ(report.effectiveness, 3000u);
}

TEST(Threads, IterativeAtMostOnce) {
  const usize m = std::min<usize>(hw_threads(), 6);
  for (int round = 0; round < 4; ++round) {
    exp::run_spec spec = thread_spec(exp::algo_family::iterative, 30000, m);
    spec.eps_inv = 2;
    const auto report = exp::run(spec);
    ASSERT_TRUE(report.at_most_once)
        << "duplicate real job " << report.duplicate << " round " << round;
    EXPECT_EQ(report.terminated, m);
    const double loss =
        30000.0 - static_cast<double>(report.effectiveness);
    EXPECT_LE(loss, bounds::iterative_loss_envelope(30000, m, 2));
  }
}

TEST(Threads, WriteAllCompletesUnderConcurrency) {
  const usize m = std::min<usize>(hw_threads(), 6);
  for (int round = 0; round < 4; ++round) {
    const auto report =
        exp::run(thread_spec(exp::algo_family::wa_iterative, 20000, m));
    EXPECT_TRUE(report.wa_complete)
        << report.wa_written << "/20000 in round " << round;
  }
}

TEST(Threads, WriteAllWithCrashes) {
  const usize m = 5;
  exp::run_spec spec = thread_spec(exp::algo_family::wa_iterative, 10000, m);
  spec.crashes = after_actions({2000, 4000, 0, 6000, 0});
  const auto report = exp::run(spec);
  EXPECT_TRUE(report.wa_complete);
  EXPECT_EQ(report.wa_written, 10000u);
}

TEST(CrashSpec, EachPolicyCrashesExactlyItsThreads) {
  // n is large enough that no KK thread can terminate within 7 actions,
  // and every KK thread announces among its first actions (its FREE view
  // starts full), so each policy's crash count is exact.
  exp::run_spec spec = thread_spec(exp::algo_family::kk, 2000, 3);
  EXPECT_EQ(exp::run(spec).crashes, 0u);

  spec.crashes = after_actions({5, 0, 7});
  const auto by_actions = exp::run(spec);
  EXPECT_TRUE(by_actions.at_most_once);
  EXPECT_EQ(by_actions.crashes, 2u);
  EXPECT_EQ(by_actions.terminated, 1u);

  spec.crashes = after_first_announce(2);
  const auto by_announce = exp::run(spec);
  EXPECT_TRUE(by_announce.at_most_once);
  EXPECT_EQ(by_announce.crashes, 2u);
  EXPECT_EQ(by_announce.terminated, 1u);

  // A schedule shorter than m leaves the remaining threads uncrashed.
  spec.crashes = after_actions({5});
  EXPECT_EQ(exp::run(spec).crashes, 1u);
}

}  // namespace
}  // namespace amo
