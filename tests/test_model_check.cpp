// Exhaustive model checking of small KK_beta instances, plus co-simulation
// proving the compact model faithful to the production automaton.
//
// These tests verify — over EVERY schedule and crash placement, not a
// sample — that:
//   * no reachable state performs a job twice (Lemma 4.1),
//   * the worst quiescent state performs exactly n-(beta+m-2) jobs
//     (Theorem 4.4: lower bound AND tightness, simultaneously),
//   * the transition graph is acyclic for the paper's rule with beta >= m
//     (strong wait-freedom), but HAS cycles for the two-ends rule with
//     beta = 1 — the symmetric re-pick livelock that explains why the paper
//     requires beta >= m for termination.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "analysis/bounds.hpp"
#include "core/kk_process.hpp"
#include "mem/sim_memory.hpp"
#include "model/explorer.hpp"
#include "util/prng.hpp"

namespace amo {
namespace {

using model::explore;
using model::explore_options;

class ExhaustiveSweep
    : public ::testing::TestWithParam<std::tuple<usize, usize, usize, usize>> {};

TEST_P(ExhaustiveSweep, SafetyEffectivenessAndAcyclicity) {
  const auto [n, m, beta, f] = GetParam();
  explore_options opt;
  opt.cfg.n = n;
  opt.cfg.m = m;
  opt.cfg.beta = beta;
  opt.cfg.crash_budget = f;
  const auto r = explore(opt);
  ASSERT_TRUE(r.complete) << "state cap hit; shrink the instance";
  ASSERT_GT(r.states, 0u);

  // Lemma 4.1, exhaustively.
  EXPECT_FALSE(r.duplicate_found)
      << "duplicate perform reachable at n=" << n << " m=" << m;

  // Wait-freedom, strongest form: no infinite execution at all.
  EXPECT_FALSE(r.cycle_found) << "cycle in transition graph";

  // Theorem 4.4, exhaustively: min over ALL quiescent states.
  ASSERT_GT(r.quiescent_states, 0u);
  const usize floor_formula = bounds::kk_effectiveness(n, m, beta);
  EXPECT_GE(r.min_effectiveness, floor_formula);
  if (f == m - 1 && floor_formula > 0) {
    // With the full crash budget the bound is tight: some schedule achieves
    // exactly the floor (the announce-and-crash strategy is in the graph).
    EXPECT_EQ(r.min_effectiveness, floor_formula);
  }
  EXPECT_LE(r.max_effectiveness, n);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExhaustiveSweep,
    ::testing::Values(
        // n, m, beta, crash budget
        std::make_tuple(2, 2, 2, 1), std::make_tuple(3, 2, 2, 1),
        std::make_tuple(4, 2, 2, 1), std::make_tuple(5, 2, 2, 1),
        std::make_tuple(4, 2, 2, 0), std::make_tuple(4, 2, 3, 1),
        std::make_tuple(5, 2, 4, 1), std::make_tuple(3, 3, 3, 2),
        std::make_tuple(4, 3, 3, 0), std::make_tuple(4, 3, 3, 2),
        std::make_tuple(6, 2, 2, 1)));

TEST(ModelCheck, TwoEndsTwoProcessIsWaitFreeAndOptimal) {
  // Exhaustively established (and initially a surprise): the AO2 two-ends
  // rule with beta = 1 and m = 2 is NOT merely safe — its transition graph
  // is acyclic (wait-free), because opposite-end picks can only coincide on
  // the final remaining job, where both processes detect the mutual TRY hit
  // and terminate. And the worst quiescent state over all schedules and one
  // crash performs exactly n - 1 jobs: [26]'s optimal two-process
  // effectiveness, verified by enumeration.
  for (const usize n : {usize{2}, usize{3}, usize{4}, usize{5}, usize{6}}) {
    explore_options opt;
    opt.cfg.n = n;
    opt.cfg.m = 2;
    opt.cfg.beta = 1;
    opt.cfg.rule = selection_rule::two_ends;
    opt.cfg.crash_budget = 1;
    const auto r = explore(opt);
    ASSERT_TRUE(r.complete);
    EXPECT_FALSE(r.duplicate_found);
    EXPECT_FALSE(r.cycle_found) << "n=" << n;
    EXPECT_EQ(r.min_effectiveness, n - 1) << "n=" << n;
  }
}

TEST(ModelCheck, TwoEndsThreeProcessesBelowBetaMinimumHasLivelock) {
  // The beta >= m requirement, made sharp: with m = 3 and beta = 1 < m the
  // two-ends rule DOES admit an infinite execution (two same-side processes
  // can re-pick identically forever) — the explorer finds the cycle — while
  // safety still holds in every reachable state.
  explore_options opt;
  opt.cfg.n = 2;
  opt.cfg.m = 3;
  opt.cfg.beta = 1;
  opt.cfg.rule = selection_rule::two_ends;
  const auto r = explore(opt);
  ASSERT_TRUE(r.complete);
  EXPECT_TRUE(r.cycle_found);
  EXPECT_FALSE(r.duplicate_found);
}

TEST(ModelCheck, PaperRankBetaBelowMStillSafe) {
  // beta < m: termination is forfeit (cycles may exist) but safety must be
  // exhaustive-clean.
  explore_options opt;
  opt.cfg.n = 4;
  opt.cfg.m = 2;
  opt.cfg.beta = 1;
  const auto r = explore(opt);
  ASSERT_TRUE(r.complete);
  EXPECT_FALSE(r.duplicate_found);
}

class IterStepExhaustive
    : public ::testing::TestWithParam<std::tuple<usize, usize, usize, usize>> {};

TEST_P(IterStepExhaustive, SafetyAndLemma62OverAllInterleavings) {
  // IterStepKK (Section 6): the termination flag plus the final re-gather
  // must guarantee that no returned job can ever be performed (Lemma 6.2) —
  // the property the whole cross-level composition rests on. Verified here
  // for EVERY schedule and crash placement of small instances, in both the
  // at-most-once (output = FREE \ TRY) and Write-All (output = FREE) modes.
  const auto [n, m, beta, f] = GetParam();
  for (const kk_mode mode : {kk_mode::iter_step, kk_mode::wa_iter_step}) {
    explore_options opt;
    opt.cfg.n = n;
    opt.cfg.m = m;
    opt.cfg.beta = beta;
    opt.cfg.mode = mode;
    opt.cfg.crash_budget = f;
    const auto r = explore(opt);
    ASSERT_TRUE(r.complete) << "state cap hit";
    EXPECT_FALSE(r.duplicate_found) << "n=" << n << " m=" << m;
    if (mode == kk_mode::iter_step) {
      // In WA mode outputs may overlap performed jobs by design (FREE can
      // retain TRY members); in at-most-once mode Lemma 6.2 must hold.
      EXPECT_FALSE(r.lemma62_violated)
          << "Lemma 6.2 violated exhaustively at n=" << n << " m=" << m
          << " beta=" << beta << " f=" << f;
    }
    EXPECT_FALSE(r.cycle_found) << "iter-step livelock at n=" << n;
    ASSERT_GT(r.quiescent_states, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IterStepExhaustive,
    ::testing::Values(std::make_tuple(2, 2, 2, 1), std::make_tuple(3, 2, 2, 1),
                      std::make_tuple(4, 2, 2, 1), std::make_tuple(4, 2, 3, 1),
                      std::make_tuple(5, 2, 2, 0),
                      std::make_tuple(3, 3, 3, 1)));

TEST(ModelCheck, CrashBudgetMonotone) {
  // More crash credits can only lower (never raise) the worst case.
  usize prev_min = ~usize{0};
  for (const usize f : {usize{0}, usize{1}}) {
    explore_options opt;
    opt.cfg.n = 5;
    opt.cfg.m = 2;
    opt.cfg.beta = 2;
    opt.cfg.crash_budget = f;
    const auto r = explore(opt);
    ASSERT_TRUE(r.complete);
    EXPECT_LE(r.min_effectiveness, prev_min);
    prev_min = r.min_effectiveness;
  }
}

// ----- co-simulation: the model must agree with the production automaton -----

TEST(ModelFidelity, CoSimulationAgreesActionByAction) {
  // Drive kk_process<sim_memory> and kk_model with the same random schedule
  // and compare the full observable state after every action. Any semantic
  // drift between the two implementations of Fig. 2 shows up here.
  for (const std::uint64_t seed : {1ull, 7ull, 23ull, 99ull, 1234ull}) {
    const usize n = 6;
    const usize m = 2;
    const usize beta = 2;

    model::model_config mc;
    mc.n = n;
    mc.m = m;
    mc.beta = beta;
    model::sys_state ms = model::initial_state(mc);

    sim_memory mem(m, n);
    std::vector<std::unique_ptr<kk_process<sim_memory>>> procs;
    for (process_id pid = 1; pid <= m; ++pid) {
      kk_config cfg;
      cfg.pid = pid;
      cfg.num_processes = m;
      cfg.beta = beta;
      procs.push_back(
          std::make_unique<kk_process<sim_memory>>(mem, cfg, nullptr));
    }

    xoshiro256 rng(seed);
    for (usize step_no = 0; step_no < 2000; ++step_no) {
      // Pick a process runnable in BOTH worlds (they must agree on that).
      std::vector<process_id> runnable;
      for (process_id p = 1; p <= m; ++p) {
        ASSERT_EQ(procs[p - 1]->runnable(), model::runnable(ms, mc, p))
            << "runnable divergence at step " << step_no;
        if (procs[p - 1]->runnable()) runnable.push_back(p);
      }
      if (runnable.empty()) break;
      const process_id p =
          runnable[static_cast<usize>(rng.below(runnable.size()))];

      procs[p - 1]->step();
      ms = model::step(ms, mc, p);

      // Compare the observable state of process p and shared memory.
      const auto& prod = *procs[p - 1];
      const auto& mps = ms.procs[p - 1];
      ASSERT_EQ(static_cast<int>(prod.status()), static_cast<int>(mps.status))
          << "status divergence at step " << step_no << " seed " << seed;
      if (prod.status() != kk_status::end) {
        ASSERT_EQ(prod.current_next(), mps.next) << "NEXT divergence";
      }
      for (process_id q = 1; q <= m; ++q) {
        ASSERT_EQ(mem.peek_next(q), ms.next_reg[q - 1]) << "next[] divergence";
        ASSERT_EQ(mem.peek_done_row(q).size(), ms.row_len[q - 1])
            << "done-row length divergence";
      }
      // FREE/DONE sets as masks.
      model::job_mask free_mask = 0;
      for (const job_id j : prod.free_view().to_vector()) {
        free_mask |= static_cast<model::job_mask>(1u << (j - 1));
      }
      ASSERT_EQ(free_mask, mps.free) << "FREE divergence at step " << step_no;
      // Production keeps DONE implicitly as the jobs gone from FREE.
      const auto all_jobs = static_cast<model::job_mask>((1u << n) - 1);
      const auto done_mask = static_cast<model::job_mask>(all_jobs & ~free_mask);
      ASSERT_EQ(done_mask, mps.done) << "DONE divergence at step " << step_no;
    }
  }
}

TEST(ModelFidelity, CoSimulationAgreesInIterStepMode) {
  // Same co-simulation for IterStepKK: flag statuses, finalize gathers and
  // output sets must match between model and production automaton.
  for (const std::uint64_t seed : {2ull, 11ull, 77ull}) {
    const usize n = 5;
    const usize m = 2;
    const usize beta = 2;

    model::model_config mc;
    mc.n = n;
    mc.m = m;
    mc.beta = beta;
    mc.mode = kk_mode::iter_step;
    model::sys_state ms = model::initial_state(mc);

    sim_memory mem(m, n);
    std::vector<std::unique_ptr<kk_process<sim_memory>>> procs;
    for (process_id pid = 1; pid <= m; ++pid) {
      kk_config cfg;
      cfg.pid = pid;
      cfg.num_processes = m;
      cfg.beta = beta;
      cfg.mode = kk_mode::iter_step;
      procs.push_back(
          std::make_unique<kk_process<sim_memory>>(mem, cfg, nullptr));
    }

    xoshiro256 rng(seed);
    for (usize step_no = 0; step_no < 3000; ++step_no) {
      std::vector<process_id> runnable;
      for (process_id p = 1; p <= m; ++p) {
        ASSERT_EQ(procs[p - 1]->runnable(), model::runnable(ms, mc, p));
        if (procs[p - 1]->runnable()) runnable.push_back(p);
      }
      if (runnable.empty()) break;
      const process_id p =
          runnable[static_cast<usize>(rng.below(runnable.size()))];
      procs[p - 1]->step();
      ms = model::step(ms, mc, p);
      ASSERT_EQ(static_cast<int>(procs[p - 1]->status()),
                static_cast<int>(ms.procs[p - 1].status))
          << "status divergence at step " << step_no << " seed " << seed;
      ASSERT_EQ(mem.peek_flag(), ms.flag) << "flag divergence";
    }
    // Both worlds quiescent: outputs must match element for element.
    for (process_id p = 1; p <= m; ++p) {
      ASSERT_EQ(procs[p - 1]->status(), kk_status::end);
      ASSERT_TRUE(ms.procs[p - 1].has_output);
      model::job_mask prod_mask = 0;
      for (const job_id j : procs[p - 1]->output()) {
        prod_mask |= static_cast<model::job_mask>(1u << (j - 1));
      }
      ASSERT_EQ(prod_mask, ms.procs[p - 1].output)
          << "output divergence, seed " << seed;
    }
  }
}

TEST(ModelFidelity, FingerprintDistinguishesStates) {
  // Different reachable states should virtually never collide; sanity-check
  // a few hand-built near-identical states.
  model::model_config mc;
  mc.n = 4;
  mc.m = 2;
  mc.beta = 2;
  const auto s0 = model::initial_state(mc);
  auto s1 = model::step(s0, mc, 1);
  auto s2 = model::step(s0, mc, 2);
  const auto f0 = model::fingerprint_of(s0, mc);
  const auto f1 = model::fingerprint_of(s1, mc);
  const auto f2 = model::fingerprint_of(s2, mc);
  EXPECT_FALSE(f0 == f1);
  EXPECT_FALSE(f0 == f2);
  EXPECT_FALSE(f1 == f2);
  // Determinism.
  EXPECT_TRUE(f1 == model::fingerprint_of(model::step(s0, mc, 1), mc));
}

}  // namespace
}  // namespace amo
