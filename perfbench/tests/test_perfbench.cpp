// Tests of the benchmark's own machinery: the order statistics it reports,
// the adversary decorator, and the promise that the traced measurements
// never change what the library computes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "exp/engine.hpp"
#include "exp/record.hpp"
#include "layers.hpp"
#include "obs/telemetry.hpp"
#include "stats.hpp"
#include "timed_adversary.hpp"
#include "util/fileio.hpp"
#include "workloads.hpp"

namespace {

using amo::exp::run_report;
using amo::exp::run_spec;

run_spec small_kk(const char* adversary, std::uint64_t seed) {
  run_spec s;
  s.algo = amo::exp::algo_family::kk;
  s.n = 512;
  s.m = 4;
  s.crash_budget = 3;
  s.adversary = {adversary, seed};
  s.record_trace = true;
  return s;
}

run_report decorated_run(const run_spec& s, perfbench::adversary_tally& tally,
                         std::uint64_t period) {
  const std::unique_ptr<amo::sim::adversary> inner =
      amo::exp::make_adversary(s.adversary);
  perfbench::timed_adversary adv(*inner, period, tally);
  return amo::exp::run(s, adv);
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

TEST(Stats, QuantilesInterpolateBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(perfbench::median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::median({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(perfbench::quantile({1, 2, 3, 4}, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(perfbench::quantile({1, 2, 3, 4}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(perfbench::quantile({1, 2, 3, 4}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(perfbench::median({7}), 7.0);
  EXPECT_DOUBLE_EQ(perfbench::median({}), 0.0);
}

TEST(Stats, TailPercentileNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(perfbench::samples_beyond(100, 90), 10u);
  EXPECT_EQ(perfbench::samples_beyond(99, 90), 9u);
  EXPECT_EQ(perfbench::samples_beyond(10000, 99.9), 10u);

  const perfbench::summary few = perfbench::summarize(iota(7));
  EXPECT_EQ(few.count, 7u);
  EXPECT_DOUBLE_EQ(few.median, 4.0);
  EXPECT_EQ(few.tail_percentile, 0.0);

  EXPECT_EQ(perfbench::summarize(iota(99)).tail_percentile, 0.0);
  const perfbench::summary hundred = perfbench::summarize(iota(100));
  EXPECT_EQ(hundred.count, 100u);
  EXPECT_EQ(hundred.tail_percentile, 90.0);
  EXPECT_DOUBLE_EQ(hundred.tail, perfbench::quantile(iota(100), 0.9));
  EXPECT_EQ(perfbench::summarize(iota(1000)).tail_percentile, 99.0);
  EXPECT_EQ(perfbench::summarize(iota(10000)).tail_percentile, 99.9);
}

TEST(TimedAdversary, ForwardsEveryDecisionUnchanged) {
  for (const char* adv : {"random+crash", "stale_view", "round_robin"}) {
    for (const std::uint64_t period : {1u, 61u}) {
      const run_spec s = small_kk(adv, 7);
      const run_report plain = amo::exp::run(s);
      perfbench::adversary_tally tally;
      const run_report decorated = decorated_run(s, tally, period);
      EXPECT_TRUE(amo::exp::equivalent(plain, decorated)) << adv;
      EXPECT_EQ(plain.trace, decorated.trace) << adv;

      std::uint64_t actions = 0;
      for (const std::uint64_t a : tally.actions) actions += a;
      EXPECT_EQ(actions + tally.crash_decisions, tally.decisions);
      EXPECT_EQ(tally.decisions, plain.trace.size());
      // The first decision is clocked, then every period-th one.
      EXPECT_EQ(tally.decide_samples, (tally.decisions + period - 1) / period);
    }
  }
}

TEST(TimedAdversary, ClocksEveryActionKindOfAKkRun) {
  perfbench::adversary_tally tally;
  decorated_run(small_kk("random", 3), tally, 1);
  for (std::size_t k = 0; k < perfbench::action_kind_names.size(); ++k) {
    EXPECT_GT(tally.actions[k], 0u) << perfbench::action_kind_names[k];
    EXPECT_GT(tally.step_samples[k], 0u) << perfbench::action_kind_names[k];
  }
}

TEST(TimedAdversary, ASharedTallySamplesRunsShorterThanThePeriod) {
  // Runs of a few dozen decisions, clocked 1 in 61: only a tally carried
  // across the runs reaches every action kind.
  perfbench::adversary_tally tally;
  run_spec s = small_kk("random", 0);
  s.n = 5;
  s.m = 3;
  s.crash_budget = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    s.adversary.seed = seed;
    decorated_run(s, tally, 61);
  }
  EXPECT_EQ(tally.decide_samples, (tally.decisions + 60) / 61);
  for (std::size_t k = 0; k < perfbench::action_kind_names.size(); ++k) {
    EXPECT_GT(tally.step_samples[k], 0u) << perfbench::action_kind_names[k];
  }
}

TEST(Measurements, LeaveTheUntracedOutputsUnchanged) {
  const run_spec s = small_kk("random+crash", 11);
  const run_report before = amo::exp::run(s);

  (void)perfbench::replay_sets(s.n, s.m, {4096, 4096, 4096, 4096, 4096}, 11);
  (void)perfbench::checker_record_ns(s.n, s.m, 11);
  run_report traced;
  {
    amo::obs::session session;
    perfbench::adversary_tally tally;
    traced = decorated_run(s, tally, 61);
    EXPECT_TRUE(perfbench::fold_trace(session.sink()).error.empty());
  }
  const run_report after = amo::exp::run(s);
  EXPECT_TRUE(amo::exp::equivalent(before, traced));
  EXPECT_TRUE(amo::exp::equivalent(before, after));
  EXPECT_EQ(before.trace, after.trace);
}

TEST(Measurements, SetWorkingSetCoversEveryFreeBitmap) {
  // m FREE bitmaps of n bits each are a floor for the measured footprint.
  for (const std::size_t n : {std::size_t{1} << 16, std::size_t{1} << 20}) {
    const double bytes = static_cast<double>(perfbench::set_working_set_bytes(n, 4));
    EXPECT_GE(bytes, 4.0 * static_cast<double>(n) / 8);
    EXPECT_NEAR(bytes, static_cast<double>(perfbench::set_working_set_bytes(n, 4)),
                0.05 * bytes);
  }
}

TEST(ModelReference, MatchesTheBruteForceRow) {
  // model_por requires min_effectiveness == 1 and reports 614,727 states:
  // the brute-force row of BENCH_model.json for the same instance.
  const amo::exp::parse_result rows =
      amo::exp::parse_records_file(PERFBENCH_REPO_DIR "/BENCH_model.json");
  ASSERT_TRUE(rows.ok()) << rows.error;
  bool found = false;
  for (const amo::exp::record& r : rows.records) {
    const amo::exp::record_field* scenario = r.find("scenario");
    if (scenario == nullptr || scenario->text != "plain/n5m3b3f2") continue;
    found = true;
    EXPECT_EQ(r.find("min_effectiveness")->number, 1.0);
    EXPECT_EQ(r.find("por_states")->number, 614727.0);
  }
  EXPECT_TRUE(found);
}

TEST(BenchmarkJson, NamesEveryMetricAndWorkloadTheProgramPrints) {
  std::string text;
  std::string error;
  ASSERT_TRUE(amo::read_file(PERFBENCH_REPO_DIR "/BENCHMARK.json", text, error))
      << error;
  auto listed = [&](const std::string& name, const char* unit) {
    const std::string key = "\"name\": \"" + name + "\"";
    const std::size_t at = text.find(key);
    if (at == std::string::npos) return false;
    const std::size_t end = text.find('}', at);
    return unit == nullptr ||
           text.substr(at, end - at).find(std::string("\"unit\": \"") + unit +
                                          "\"") != std::string::npos;
  };
  for (const perfbench::metric_def& m : perfbench::end_to_end_metrics()) {
    EXPECT_TRUE(listed(m.name, m.unit)) << m.name;
  }
  for (const perfbench::metric_def& m : perfbench::per_layer_metrics()) {
    EXPECT_TRUE(listed(m.name, m.unit)) << m.name;
  }
  for (const std::string& w : perfbench::workload_names()) {
    EXPECT_TRUE(listed(w, nullptr)) << w;
  }
}

}  // namespace
