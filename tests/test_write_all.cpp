// Write-All (Section 7 + baselines): WA_IterativeKK and every baseline must
// write all n cells whenever at least one process survives, under every
// schedule family; work accounting must be consistent.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "baselines/write_all_baselines.hpp"
#include "exp/engine.hpp"
#include "sim/scheduler.hpp"

namespace amo {
namespace {

class WaIterativeSweep
    : public ::testing::TestWithParam<std::tuple<usize, usize, usize, std::uint64_t>> {
};

TEST_P(WaIterativeSweep, CoversEveryCell) {
  const auto [n, m, f, seed] = GetParam();
  exp::run_spec opt;
  opt.n = n;
  opt.m = m;
  opt.eps_inv = 2;
  opt.algo = exp::algo_family::wa_iterative;
  opt.crash_budget = f;
  sim::random_adversary adv(seed, f > 0 ? 1 : 0, 300);
  const auto report = exp::run(opt, adv);
  ASSERT_TRUE(report.quiescent);
  ASSERT_LT(report.crashes, m) << "need one survivor";
  EXPECT_TRUE(report.wa_complete)
      << "cells written: " << report.wa_written << "/" << n;
  EXPECT_EQ(report.wa_written, n);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WaIterativeSweep,
    ::testing::Combine(::testing::Values<usize>(1024, 4096),
                       ::testing::Values<usize>(2, 4, 6),
                       ::testing::Values<usize>(0, 1),
                       ::testing::Values<std::uint64_t>(3, 17)));

TEST(WaIterative, SurvivesMassCrash) {
  // Crash all but one process aggressively; the survivor must finish the
  // array alone (its residual FREE view covers everything unwritten).
  exp::run_spec opt;
  opt.n = 2048;
  opt.m = 5;
  opt.eps_inv = 1;
  opt.algo = exp::algo_family::wa_iterative;
  opt.crash_budget = 4;
  sim::random_adversary adv(11, 1, 40);
  const auto report = exp::run(opt, adv);
  ASSERT_TRUE(report.quiescent);
  EXPECT_TRUE(report.wa_complete);
}

TEST(WaIterative, AnnounceCrashAdversaryStillCompletes) {
  // The at-most-once worst case (stuck announced jobs) must NOT hurt
  // Write-All: the survivor performs its whole residual FREE set, stuck
  // announcements included.
  exp::run_spec opt;
  opt.n = 1024;
  opt.m = 4;
  opt.eps_inv = 1;
  opt.algo = exp::algo_family::wa_iterative;
  opt.crash_budget = 3;
  sim::announce_crash_adversary adv;
  const auto report = exp::run(opt, adv);
  ASSERT_TRUE(report.quiescent);
  EXPECT_TRUE(report.wa_complete);
  EXPECT_EQ(report.wa_written, 1024u);
}

// ----- baselines -----

template <class Proc, class... Args>
std::pair<bool, op_counter> run_wa_baseline(usize n, usize m, usize f,
                                            std::uint64_t seed, Args&&... extra) {
  write_all_array wa(n);
  std::vector<std::unique_ptr<Proc>> procs;
  std::vector<automaton*> handles;
  for (process_id pid = 1; pid <= m; ++pid) {
    if constexpr (std::is_same_v<Proc, baseline::wa_split_scan_process>) {
      procs.push_back(std::make_unique<Proc>(wa, m, pid));
    } else {
      procs.push_back(std::make_unique<Proc>(wa, pid, std::forward<Args>(extra)...));
    }
    handles.push_back(procs.back().get());
  }
  sim::scheduler sched(handles);
  sim::random_adversary adv(seed, f > 0 ? 1 : 0, 200);
  const auto result = sched.run(adv, f, 400u * n * m + 100000u);
  op_counter total;
  for (const auto& p : procs) total += p->work();
  return {result.quiescent && wa.complete(), total};
}

TEST(WaBaselines, TrivialAlwaysCompletes) {
  for (const usize f : {usize{0}, usize{2}}) {
    const auto [ok, work] = run_wa_baseline<baseline::wa_trivial_process>(
        500, 3, f, 5);
    EXPECT_TRUE(ok);
    EXPECT_GE(work.shared_writes, 500u);
  }
}

TEST(WaBaselines, SplitScanCompletesUnderCrashes) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto [ok, work] =
        run_wa_baseline<baseline::wa_split_scan_process>(1000, 4, 3, seed);
    EXPECT_TRUE(ok) << "seed " << seed;
  }
}

TEST(WaBaselines, SplitScanWorkNearOptimalWithoutCrashes) {
  const auto [ok, work] =
      run_wa_baseline<baseline::wa_split_scan_process>(4000, 4, 0, 9);
  ASSERT_TRUE(ok);
  // n fresh writes + ~m*n help reads; far below trivial's m*n writes + but
  // bounded: total <= ~3*m*n.
  EXPECT_LE(work.total(), 3u * 4u * 4000u + 1000u);
}

TEST(WaBaselines, ProgressTreeCompletes) {
  for (const usize m : {usize{1}, usize{3}, usize{6}}) {
    write_all_array wa(777);
    baseline::wa_count_tree tree(ceil_div(777, 16));
    std::vector<std::unique_ptr<baseline::wa_progress_tree_process>> procs;
    std::vector<automaton*> handles;
    for (process_id pid = 1; pid <= m; ++pid) {
      procs.push_back(std::make_unique<baseline::wa_progress_tree_process>(
          wa, tree, pid, 16));
      handles.push_back(procs.back().get());
    }
    sim::scheduler sched(handles);
    sim::random_adversary adv(13);
    const auto result = sched.run(adv, 0, 2000000);
    ASSERT_TRUE(result.quiescent) << "m=" << m;
    EXPECT_TRUE(wa.complete());
  }
}

TEST(WaBaselines, ProgressTreeSurvivesCrashes) {
  write_all_array wa(512);
  baseline::wa_count_tree tree(ceil_div(512, 8));
  std::vector<std::unique_ptr<baseline::wa_progress_tree_process>> procs;
  std::vector<automaton*> handles;
  for (process_id pid = 1; pid <= 4; ++pid) {
    procs.push_back(std::make_unique<baseline::wa_progress_tree_process>(
        wa, tree, pid, 8));
    handles.push_back(procs.back().get());
  }
  sim::scheduler sched(handles);
  sim::random_adversary adv(21, 1, 100);
  const auto result = sched.run(adv, 3, 4000000);
  ASSERT_TRUE(result.quiescent);
  EXPECT_TRUE(wa.complete());
}

TEST(WriteAllArray, BasicsAndDiagnostics) {
  write_all_array wa(10);
  EXPECT_FALSE(wa.complete());
  EXPECT_EQ(wa.first_unset(), 1u);
  for (job_id j = 1; j <= 10; ++j) wa.set(j);
  EXPECT_TRUE(wa.complete());
  EXPECT_EQ(wa.count_set(), 10u);
  EXPECT_EQ(wa.first_unset(), no_job);
}

}  // namespace
}  // namespace amo
