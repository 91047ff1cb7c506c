// Work complexity (Section 5): with beta >= 3m^2,
//  * pairwise collisions respect Lemma 5.5's 2*ceil(n/(m|q-p|)) bound,
//  * total collisions stay below Theorem 5.6's 4(n+1) lg m,
//  * total work stays within a constant of the n*m*lg n*lg m envelope.
// Also internal consistency of the work accounting itself, and pinned
// per-process kk_stats (charged work, actions, collisions by kind) on fixed
// seeds, so a representation change cannot move the cost model.
// Runs on the experiment engine (exp::run over run_spec cells), except the
// pinned-stats test, which drives kk_process directly to read its stats.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "analysis/bounds.hpp"
#include "core/kk_process.hpp"
#include "exp/engine.hpp"
#include "mem/sim_memory.hpp"
#include "sets/ostree.hpp"
#include "sim/adversary.hpp"
#include "sim/scheduler.hpp"

namespace amo {
namespace {

exp::run_spec kk_spec(usize n, usize m, usize beta,
                      const std::string& adversary, std::uint64_t seed = 1) {
  exp::run_spec s;
  s.algo = exp::algo_family::kk;
  s.n = n;
  s.m = m;
  s.beta = beta;
  s.adversary = {adversary, seed};
  return s;
}

class WorkSweep
    : public ::testing::TestWithParam<std::tuple<usize, usize, usize, std::uint64_t>> {
};

TEST_P(WorkSweep, CollisionBoundsHoldForBigBeta) {
  const auto [n, m, adversary_index, seed] = GetParam();
  const usize beta = 3 * m * m;  // the Section 5 regime
  if (beta + m >= n) GTEST_SKIP() << "degenerate: beta too close to n";
  const exp::run_report report = exp::run(
      kk_spec(n, m, beta, sim::standard_adversaries()[adversary_index].label, seed));
  ASSERT_TRUE(report.quiescent);
  ASSERT_TRUE(report.at_most_once);
  // Lemma 5.5 per-pair bound (worst ratio over all pairs <= 1).
  EXPECT_LE(report.worst_pair_ratio, 1.0);
  // Theorem 5.6 aggregate bound.
  EXPECT_LE(static_cast<double>(report.total_collisions),
            bounds::total_collision_bound(n, m));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WorkSweep,
    ::testing::Combine(::testing::Values<usize>(1024, 4096),
                       ::testing::Values<usize>(2, 4, 6),
                       ::testing::Values<usize>(0, 1, 3, 4, 5),
                       ::testing::Values<std::uint64_t>(23)));

TEST(Work, EnvelopeRatioBoundedAcrossN) {
  // work / (n m lg n lg m) should not grow with n (Theorem 5.6 shape).
  const usize m = 4;
  double worst = 0;
  for (const usize n : {usize{1 << 10}, usize{1 << 12}, usize{1 << 14}}) {
    const exp::run_report report =
        exp::run(kk_spec(n, m, 3 * m * m, "round_robin"));
    const double ratio = static_cast<double>(report.total_work.total()) /
                         bounds::kk_work_envelope(n, m);
    EXPECT_LT(ratio, 4.0) << "n=" << n;
    if (ratio > worst) worst = ratio;
  }
  EXPECT_GT(worst, 0.0);
}

TEST(Work, SharedOpsDominatedByGatherPasses) {
  // Every performed job costs its performer one full gather pass (~2m
  // reads); total shared reads should be within a small factor of
  // perform-count * 2m under a fair schedule.
  const usize n = 2048;
  const usize m = 8;
  const exp::run_report report = exp::run(kk_spec(n, m, 0, "round_robin"));
  ASSERT_TRUE(report.quiescent);
  const double reads = static_cast<double>(report.total_work.shared_reads);
  const double passes = static_cast<double>(report.perform_events +
                                            report.total_collisions + m);
  EXPECT_LT(reads, passes * (2.0 * m + 2.0) * 2.0);
  EXPECT_GT(reads, static_cast<double>(report.perform_events));
}

TEST(Work, WritesAreAnnouncesPlusRecords) {
  const exp::run_report report = exp::run(kk_spec(500, 4, 0, "round_robin"));
  usize announces = 0;
  usize records = 0;
  for (const auto& s : report.per_process) {
    announces += s.announces;
    records += s.records;
  }
  // Plain mode writes shared memory only in setNext and done actions.
  EXPECT_EQ(report.total_work.shared_writes, announces + records);
}

TEST(Work, SmallBetaCausesMoreCollisionsThanBigBeta) {
  // The point of beta >= 3m^2: interval separation keeps processes from
  // trampling each other. Compare collision totals at beta = m vs 3m^2
  // under the collision-friendly stale_view schedule.
  const usize n = 4096;
  const usize m = 6;
  const exp::run_report r_small =
      exp::run(kk_spec(n, m, m, "stale_view:50000"));
  const exp::run_report r_big =
      exp::run(kk_spec(n, m, 3 * m * m, "stale_view:50000"));

  ASSERT_TRUE(r_small.quiescent);
  ASSERT_TRUE(r_big.quiescent);
  // Not a theorem for single runs, but robust in practice for this schedule;
  // guards the qualitative claim.
  EXPECT_LE(r_big.total_collisions, r_small.total_collisions + 4 * m);
}

TEST(Work, PerProcessWorkIsBalancedUnderFairSchedule) {
  const exp::run_report report = exp::run(kk_spec(2000, 4, 0, "round_robin"));
  std::uint64_t lo = ~std::uint64_t{0};
  std::uint64_t hi = 0;
  for (const auto& s : report.per_process) {
    lo = std::min(lo, s.work.total());
    hi = std::max(hi, s.work.total());
  }
  EXPECT_LT(static_cast<double>(hi),
            4.0 * static_cast<double>(lo) + 1000.0);
}

/// Totals of every kk_stats field over a run's processes, plus a
/// pid-weighted checksum so that work moving between processes shows too.
struct stats_digest {
  std::uint64_t local_ops = 0;
  std::uint64_t shared_reads = 0;
  std::uint64_t shared_writes = 0;
  std::uint64_t actions = 0;
  std::uint64_t announces = 0;
  std::uint64_t performs = 0;
  std::uint64_t records = 0;
  std::uint64_t comp_nexts = 0;
  std::uint64_t collisions_try = 0;
  std::uint64_t collisions_done = 0;
  std::uint64_t weighted = 0;

  friend bool operator==(const stats_digest&, const stats_digest&) = default;
  friend std::ostream& operator<<(std::ostream& os, const stats_digest& d) {
    return os << "{" << d.local_ops << ", " << d.shared_reads << ", "
              << d.shared_writes << ", " << d.actions << ", " << d.announces
              << ", " << d.performs << ", " << d.records << ", "
              << d.comp_nexts << ", " << d.collisions_try << ", "
              << d.collisions_done << ", " << d.weighted << "}";
  }
};

template <rank_set FS>
stats_digest run_digest(usize n, usize m, kk_mode mode, sim::adversary& adv,
                        usize crash_budget) {
  sim_memory mem(m, n);
  std::vector<std::unique_ptr<kk_process<sim_memory, FS>>> procs;
  std::vector<automaton*> handles;
  for (process_id pid = 1; pid <= m; ++pid) {
    kk_config cfg;
    cfg.pid = pid;
    cfg.num_processes = m;
    cfg.mode = mode;
    procs.push_back(
        std::make_unique<kk_process<sim_memory, FS>>(mem, cfg, nullptr));
    handles.push_back(procs.back().get());
  }
  sim::scheduler sched(std::move(handles));
  const sim::run_result res =
      sched.run(adv, crash_budget, sim::default_step_limit(n, m));
  EXPECT_TRUE(res.quiescent);
  stats_digest d;
  for (const auto& p : procs) {
    const kk_stats& s = p->stats();
    d.local_ops += s.work.local_ops;
    d.shared_reads += s.work.shared_reads;
    d.shared_writes += s.work.shared_writes;
    d.actions += s.work.actions;
    d.announces += s.announces;
    d.performs += s.performs;
    d.records += s.records;
    d.comp_nexts += s.comp_nexts;
    d.collisions_try += s.collisions_try;
    d.collisions_done += s.collisions_done;
    d.weighted += p->id() * (s.work.total() + 7 * s.collisions_try +
                             13 * s.collisions_done);
  }
  return d;
}

/// The charged work and collision counts are properties of the algorithm
/// and the cost model, not of the set representation: any representation
/// must reproduce these exact values, in Release and Debug builds alike.
TEST(Work, PinnedStatsOnFixedSeeds) {
  {  // m = 16 > word_parallel_threshold + 1: word-parallel FREE \ TRY paths.
    sim::random_adversary adv(7, 1, 500);
    EXPECT_EQ(run_digest<bitset_rank_set>(4096, 16, kk_mode::plain, adv, 8),
              (stats_digest{915716, 151316, 8167, 179915, 4090, 4077, 4077, 4098, 5, 0, 11002538}));
  }
  {  // Long solo quanta leave stale FREE views: DONE collisions.
    sim::block_adversary adv(5, 200);
    EXPECT_EQ(run_digest<bitset_rank_set>(512, 6, kk_mode::plain, adv, 0),
              (stats_digest{42331, 7630, 1018, 11205, 511, 507, 507, 517, 1, 3, 223811}));
  }
  {  // Flag states of IterStepKK.
    sim::random_adversary adv(3);
    EXPECT_EQ(run_digest<bitset_rank_set>(1024, 12, kk_mode::iter_step, adv, 0),
              (stats_digest{177476, 36006, 2038, 43184, 1026, 1011, 1011, 1027, 10, 1, 1761933}));
  }
  {  // A FREE set without word access (the ablation path of `check`).
    sim::block_adversary adv(11, 120);
    EXPECT_EQ(run_digest<ostree>(512, 5, kk_mode::plain, adv, 0),
              (stats_digest{57611, 6118, 1020, 9699, 512, 508, 508, 517, 0, 4, 236618}));
  }
}

}  // namespace
}  // namespace amo
