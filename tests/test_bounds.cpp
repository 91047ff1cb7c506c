// Sanity tests for the analytic bound formulas of analysis/bounds.hpp —
// these are the oracles the integration tests and benches compare against,
// so they get their own direct checks from the paper's statements.
#include <gtest/gtest.h>

#include "analysis/bounds.hpp"

namespace amo {
namespace {

TEST(Bounds, KkEffectivenessMatchesTheorem44) {
  // E = n - (beta + m - 2); for beta = m that is n - 2m + 2.
  EXPECT_EQ(bounds::kk_effectiveness(1000, 10, 10), 1000u - 18u);
  EXPECT_EQ(bounds::kk_effectiveness(1000, 10, 10), 1000u - (2 * 10 - 2));
  EXPECT_EQ(bounds::kk_effectiveness(100, 4, 8), 100u - 10u);
  EXPECT_EQ(bounds::kk_effectiveness(5, 4, 4), 0u);  // saturates
}

TEST(Bounds, UpperBoundIsNMinusF) {
  EXPECT_EQ(bounds::effectiveness_upper(100, 0), 100u);
  EXPECT_EQ(bounds::effectiveness_upper(100, 7), 93u);
  EXPECT_EQ(bounds::effectiveness_upper(3, 5), 0u);
}

TEST(Bounds, KkBeatsUpperBoundNever) {
  for (usize m : {usize{2}, usize{8}, usize{32}}) {
    for (usize n : {usize{100}, usize{10000}}) {
      EXPECT_LE(bounds::kk_effectiveness(n, m, m),
                bounds::effectiveness_upper(n, m - 1));
    }
  }
}

TEST(Bounds, TrivialEffectiveness) {
  EXPECT_EQ(bounds::trivial_effectiveness(1000, 10, 0), 1000u);
  EXPECT_EQ(bounds::trivial_effectiveness(1000, 10, 9), 100u);
  EXPECT_EQ(bounds::trivial_effectiveness(1005, 10, 5), 500u);  // floor(n/m)*5
}

TEST(Bounds, KkDominatesTrivialWithCrashes) {
  // The headline: with f = m-1, trivial keeps n/m jobs while KK_m keeps
  // n - 2m + 2.
  const usize n = 100000;
  const usize m = 16;
  EXPECT_GT(bounds::kk_effectiveness(n, m, m),
            bounds::trivial_effectiveness(n, m, m - 1) * 10);
}

TEST(Bounds, KknsFormulaShape) {
  // (n^{1/lg m} - 1)^{lg m}: strictly below n, approaches it for small m.
  const double e16 = bounds::kkns_effectiveness(1 << 20, 16);
  EXPECT_GT(e16, 0.0);
  EXPECT_LT(e16, static_cast<double>(1 << 20));
  // For m = 2 (lg m = 1) the formula collapses to n - 1.
  EXPECT_DOUBLE_EQ(bounds::kkns_effectiveness(1024, 2), 1023.0);
}

TEST(Bounds, KknsEffectivenessIsExactOnPerfectPowers) {
  // n = r^h with h = lg m: the bound is exactly (r-1)^h, not a pow() value
  // a rounding step away from it.
  EXPECT_EQ(bounds::kkns_effectiveness(4096, 8), 3375.0);          // 15^3
  EXPECT_EQ(bounds::kkns_effectiveness(1048576, 32), 759375.0);    // 15^5
  EXPECT_EQ(bounds::kkns_effectiveness(65536, 16), 50625.0);       // 15^4
  EXPECT_EQ(bounds::kkns_effectiveness(1048576, 4), 1046529.0);    // 1023^2
  EXPECT_EQ(bounds::kkns_effectiveness(4096, 2), 4095.0);          // h = 1
  EXPECT_EQ(bounds::kkns_effectiveness(1, 8), 0.0);
  EXPECT_EQ(bounds::kkns_effectiveness(0, 8), 0.0);
  // Not a perfect power: still the real-valued formula.
  EXPECT_GT(bounds::kkns_effectiveness(4500, 8), 3375.0);
  EXPECT_LT(bounds::kkns_effectiveness(4500, 8), 4096.0);
}

TEST(Bounds, KkBeatsKknsForModerateM) {
  // The paper's improvement: n - 2m + 2 vs n - lg m * o(n).
  const usize n = 1 << 20;
  for (usize m : {usize{4}, usize{16}, usize{64}}) {
    EXPECT_GT(static_cast<double>(bounds::kk_effectiveness(n, m, m)),
              bounds::kkns_effectiveness(n, m))
        << "m=" << m;
  }
}

TEST(Bounds, WorkEnvelopePositiveAndMonotone) {
  EXPECT_GT(bounds::kk_work_envelope(1024, 4), 0.0);
  EXPECT_LT(bounds::kk_work_envelope(1024, 4), bounds::kk_work_envelope(2048, 4));
  EXPECT_LT(bounds::kk_work_envelope(1024, 4), bounds::kk_work_envelope(1024, 8));
}

TEST(Bounds, IterativeWorkEnvelope) {
  // n + m^{3+eps} lg n; for eps = 1 and m = 4: 4^4 * lg n.
  const double w = bounds::iterative_work_envelope(1 << 16, 4, 1);
  EXPECT_DOUBLE_EQ(w, 65536.0 + 256.0 * 16.0);
}

TEST(Bounds, IterativeOptimalRange) {
  // m <= (n / lg n)^{1/(3+eps)}: the cells bench_claims' work rows keep.
  EXPECT_FALSE(bounds::iterative_m_in_optimal_range(16384, 8, 2));
  EXPECT_TRUE(bounds::iterative_m_in_optimal_range(65536, 8, 2));
  EXPECT_TRUE(bounds::iterative_m_in_optimal_range(16384, 4, 2));
  EXPECT_FALSE(bounds::iterative_m_in_optimal_range(262144, 16, 2));
  EXPECT_TRUE(bounds::iterative_m_in_optimal_range(1048576, 16, 2));
  EXPECT_FALSE(bounds::iterative_m_in_optimal_range(131072, 16, 2));
  EXPECT_TRUE(bounds::iterative_m_in_optimal_range(524288, 16, 2));
  // A smaller eps (larger 1/eps) widens the range: (4096)^{1/4} = 8,
  // (4096)^{1/(3+1/3)} ~ 12.1.
  EXPECT_FALSE(bounds::iterative_m_in_optimal_range(65536, 10, 1));
  EXPECT_TRUE(bounds::iterative_m_in_optimal_range(65536, 10, 3));
}

TEST(Bounds, PairCollisionBound) {
  EXPECT_EQ(bounds::pair_collision_bound(1000, 10, 1), 200u);
  EXPECT_EQ(bounds::pair_collision_bound(1000, 10, 5), 40u);
  EXPECT_EQ(bounds::pair_collision_bound(7, 10, 9), 2u);  // ceil
}

TEST(Bounds, TotalCollisionBound) {
  EXPECT_DOUBLE_EQ(bounds::total_collision_bound(999, 16), 4.0 * 1000 * 4);
}

TEST(Bounds, IterativeLossEnvelopeDominatesFinalLevelLoss) {
  // Must at least cover the 3m^2 + m - 2 jobs the last level strands.
  for (usize m : {usize{2}, usize{8}}) {
    EXPECT_GE(bounds::iterative_loss_envelope(1 << 16, m, 2),
              3.0 * static_cast<double>(m * m));
  }
}

}  // namespace
}  // namespace amo
