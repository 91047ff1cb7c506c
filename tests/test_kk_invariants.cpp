// Step-level property tests of the KK_beta automaton: every observed status
// transition must be an edge of the Fig. 2 transition graph (plus the
// Section 6 flag states), and the state components must respect the
// monotonicity the correctness proofs lean on:
//   * |TRY_p| < m at all times (the paper's |TRY_p| <= m-1),
//   * FREE_p only shrinks (Section 3: "no job is removed from DONE_p or
//     added to FREE_p"),
//   * DONE_p, held implicitly as the jobs gone from FREE_p, only ever holds
//     jobs recorded in some shared done row, and a DONE collision at
//     `check` names such a job,
//   * announcements precede every perform, and NEXT is stable from
//     announcement through record.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>

#include "core/kk_process.hpp"
#include "mem/sim_memory.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"
#include "util/prng.hpp"

namespace amo {
namespace {

using sim_kk = kk_process<sim_memory>;
using edge = std::pair<kk_status, kk_status>;

/// The allowed edges of the plain-mode transition graph (Fig. 2).
const std::set<edge>& plain_edges() {
  using s = kk_status;
  static const std::set<edge> edges{
      {s::comp_next, s::set_next},    // picked a candidate
      {s::comp_next, s::end},         // |FREE \ TRY| < beta
      {s::set_next, s::gather_try},   //
      {s::gather_try, s::gather_try}, // loop over Q
      {s::gather_try, s::gather_done},
      {s::gather_done, s::gather_done},
      {s::gather_done, s::check},
      {s::check, s::perform},         // safe
      {s::check, s::comp_next},       // collision
      {s::perform, s::record},
      {s::record, s::comp_next},
  };
  return edges;
}

/// The iter-step graph: plain edges rerouted through the flag states.
const std::set<edge>& iter_edges() {
  using s = kk_status;
  static const std::set<edge> edges{
      {s::flag_poll, s::comp_next},     // flag clear
      {s::flag_poll, s::gather_try},    // flag set: begin finalize
      {s::comp_next, s::set_next},      //
      {s::comp_next, s::flag_raise},    // below beta
      {s::flag_raise, s::gather_try},   // finalize
      {s::set_next, s::gather_try},     //
      {s::gather_try, s::gather_try},   //
      {s::gather_try, s::gather_done},  //
      {s::gather_done, s::gather_done}, //
      {s::gather_done, s::check},       //
      {s::gather_done, s::end},         // finalize pass complete
      {s::check, s::flag_gate},         // safe: consult the flag
      {s::check, s::flag_poll},         // collision
      {s::flag_gate, s::perform},       // flag clear
      {s::flag_gate, s::gather_try},    // flag set: begin finalize
      {s::perform, s::record},
      {s::record, s::flag_poll},
  };
  return edges;
}

void run_and_check(kk_mode mode, usize n, usize m, usize beta,
                   std::uint64_t seed) {
  const auto& allowed = mode == kk_mode::plain ? plain_edges() : iter_edges();
  sim_memory mem(m, n);
  std::vector<std::unique_ptr<sim_kk>> procs;
  std::vector<job_id> announced(m + 1, no_job);
  for (process_id pid = 1; pid <= m; ++pid) {
    kk_config cfg;
    cfg.pid = pid;
    cfg.num_processes = m;
    cfg.beta = beta;
    cfg.mode = mode;
    kk_hooks hooks;
    hooks.on_announce = [&announced](process_id p, job_id j) {
      announced[p] = j;
    };
    hooks.on_perform = [&announced](process_id p, job_id j) {
      // Announce-before-perform, with an unchanged candidate.
      ASSERT_EQ(announced[p], j) << "perform without matching announcement";
    };
    procs.push_back(std::make_unique<sim_kk>(mem, cfg, nullptr, std::move(hooks)));
  }

  std::vector<usize> prev_free(m + 1);
  for (process_id pid = 1; pid <= m; ++pid) {
    prev_free[pid] = procs[pid - 1]->free_view().size();
  }

  xoshiro256 rng(seed);
  usize guard = 0;
  const usize limit = sim::default_step_limit(n, m) * 4;
  while (++guard < limit) {
    std::vector<process_id> runnable;
    for (process_id p = 1; p <= m; ++p) {
      if (procs[p - 1]->runnable()) runnable.push_back(p);
    }
    if (runnable.empty()) break;
    const process_id p = runnable[static_cast<usize>(rng.below(runnable.size()))];
    sim_kk& proc = *procs[p - 1];

    const kk_status before = proc.status();
    const usize done_collisions = proc.stats().collisions_done;
    proc.step();
    const kk_status after = proc.status();
    ASSERT_TRUE(allowed.contains({before, after}))
        << "illegal transition " << to_string(before) << " -> "
        << to_string(after) << " (mode " << static_cast<int>(mode) << ")";

    // Monotonicity and size invariants.
    ASSERT_LT(proc.try_view().size(), m) << "|TRY| reached m";
    const usize free_now = proc.free_view().size();
    ASSERT_LE(free_now, prev_free[p]) << "FREE grew";
    prev_free[p] = free_now;

    // Jobs recorded in any shared done row, as a mask over [1..n].
    const auto recorded = [&mem, m, n] {
      std::vector<bool> rec(n + 1, false);
      for (process_id q = 1; q <= m; ++q) {
        for (const job_id j : mem.peek_done_row(q)) rec[j] = true;
      }
      return rec;
    };
    if (before == kk_status::check &&
        proc.stats().collisions_done != done_collisions) {
      ASSERT_FALSE(proc.free_view().contains(proc.current_next()))
          << "DONE collision on a job still in FREE";
      ASSERT_TRUE(recorded()[proc.current_next()])
          << "DONE collision on job " << proc.current_next()
          << ", which nobody recorded";
    }
    if (guard % 37 == 0) {
      // Jobs leave FREE only when seen in a done row (the implicit DONE).
      const std::vector<bool> rec = recorded();
      for (job_id j = 1; j <= n; ++j) {
        if (!proc.free_view().contains(j)) {
          ASSERT_TRUE(rec[j]) << "job " << j << " left FREE unrecorded";
        }
      }
    }
  }
  ASSERT_LT(guard, limit) << "did not quiesce";
}

class InvariantSweep
    : public ::testing::TestWithParam<std::tuple<usize, usize, std::uint64_t>> {};

TEST_P(InvariantSweep, PlainModeTransitionsLegal) {
  const auto [n, m, seed] = GetParam();
  run_and_check(kk_mode::plain, n, m, m, seed);
}

TEST_P(InvariantSweep, IterStepModeTransitionsLegal) {
  const auto [n, m, seed] = GetParam();
  run_and_check(kk_mode::iter_step, n, m, m, seed);
}

TEST_P(InvariantSweep, WaIterStepModeTransitionsLegal) {
  const auto [n, m, seed] = GetParam();
  run_and_check(kk_mode::wa_iter_step, n, m, m, seed);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, InvariantSweep,
    ::testing::Combine(::testing::Values<usize>(50, 300),
                       ::testing::Values<usize>(1, 2, 5),
                       ::testing::Values<std::uint64_t>(3, 1337)));

TEST(KkInvariants, StatusStringsAreDistinct) {
  std::set<std::string> names;
  for (int s = 0; s <= static_cast<int>(kk_status::stop); ++s) {
    names.insert(to_string(static_cast<kk_status>(s)));
  }
  EXPECT_EQ(names.size(), static_cast<usize>(kk_status::stop) + 1);
}

}  // namespace
}  // namespace amo
