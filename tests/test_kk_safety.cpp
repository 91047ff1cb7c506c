// The at-most-once property (Lemma 4.1) under adversarial sweeps: every
// combination of size, process count, beta, adversary family, seed and crash
// budget must produce zero duplicate do actions. Safety must hold even for
// beta < m (where termination is forfeit) and for the two-ends selection
// rule — Lemma 4.1's proof uses neither the rank formula nor beta.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "exp/engine.hpp"

namespace amo {
namespace {

struct sweep_param {
  usize n;
  usize m;
  usize beta;  // 0 = m
  usize adversary_index;
  std::uint64_t seed;
  usize crash_budget;
};

class KkSafetySweep : public ::testing::TestWithParam<sweep_param> {};

TEST_P(KkSafetySweep, NoJobPerformedTwice) {
  const sweep_param p = GetParam();
  exp::run_spec opt;
  opt.n = p.n;
  opt.m = p.m;
  opt.beta = p.beta;
  opt.crash_budget = p.crash_budget;
  auto adv = sim::standard_adversaries()[p.adversary_index].make(p.seed);
  const auto report = exp::run(opt, *adv);
  EXPECT_TRUE(report.at_most_once)
      << "duplicate job " << report.duplicate << " under "
      << adv->name() << " seed " << p.seed;
  EXPECT_EQ(report.perform_events, report.effectiveness);
  // With beta >= m the run must reach quiescence (wait-freedom).
  if (p.beta == 0 || p.beta >= p.m) {
    EXPECT_TRUE(report.quiescent) << "possible livelock";
  }
}

std::vector<sweep_param> make_sweep() {
  std::vector<sweep_param> out;
  const usize adversaries = sim::standard_adversaries().size();
  for (const usize n : {usize{64}, usize{300}, usize{1024}}) {
    for (const usize m : {usize{2}, usize{3}, usize{8}}) {
      for (const usize beta : {usize{0}, usize{2 * m}}) {
        for (usize a = 0; a < adversaries; ++a) {
          for (const std::uint64_t seed : {11ull, 29ull}) {
            for (const usize f : {usize{0}, m - 1}) {
              out.push_back({n, m, beta, a, seed, f});
            }
          }
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Grid, KkSafetySweep, ::testing::ValuesIn(make_sweep()));

// --- beta < m: correctness must survive even without termination ---

class KkSmallBetaSweep
    : public ::testing::TestWithParam<std::tuple<usize, std::uint64_t>> {};

TEST_P(KkSmallBetaSweep, SafeEvenWithoutTerminationGuarantee) {
  const auto [m, seed] = GetParam();
  exp::run_spec opt;
  opt.n = 400;
  opt.m = m;
  opt.beta = 1;                  // << m
  opt.max_steps = 400 * m * 64;  // bounded run; termination not required
  sim::random_adversary adv(seed);
  const auto report = exp::run(opt, adv);
  EXPECT_TRUE(report.at_most_once) << "duplicate job " << report.duplicate;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, KkSmallBetaSweep,
    ::testing::Combine(::testing::Values<usize>(2, 4, 8),
                       ::testing::Values<std::uint64_t>(3, 7, 31)));

// --- alternative FREE-set representations must behave identically ---

TEST(KkSafetyRepresentations, OstreeBackedRunIsSafeAndEquivalent) {
  exp::run_spec opt;
  opt.n = 500;
  opt.m = 4;
  sim::round_robin_adversary adv1;
  sim::round_robin_adversary adv2;
  sim::round_robin_adversary adv3;
  const auto a = exp::run(opt, adv1);
  opt.free_set = exp::free_set_kind::ostree;
  const auto b = exp::run(opt, adv2);
  opt.free_set = exp::free_set_kind::fenwick;
  const auto c = exp::run(opt, adv3);
  EXPECT_TRUE(a.at_most_once);
  EXPECT_TRUE(b.at_most_once);
  EXPECT_TRUE(c.at_most_once);
  // Deterministic schedule + deterministic algorithm: identical outcomes
  // regardless of the set structure backing FREE.
  EXPECT_EQ(a.effectiveness, b.effectiveness);
  EXPECT_EQ(a.effectiveness, c.effectiveness);
  EXPECT_EQ(a.total_steps, b.total_steps);
  EXPECT_EQ(a.total_steps, c.total_steps);
}

TEST(KkSafetyRepresentations, TwoEndsRuleSafeUnderCrashes) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    exp::run_spec opt;
    opt.n = 300;
    opt.m = 4;
    opt.beta = 1;
    opt.rule = selection_rule::two_ends;
    opt.crash_budget = 3;
    opt.max_steps = 300 * 4 * 64;
    sim::random_adversary adv(seed, 1, 300);
    const auto report = exp::run(opt, adv);
    EXPECT_TRUE(report.at_most_once) << "duplicate " << report.duplicate;
  }
}

}  // namespace
}  // namespace amo
