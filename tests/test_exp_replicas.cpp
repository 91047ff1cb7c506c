// The replica layer's contracts: per-replica seeds are a pure function of
// (base seed, replica index) — stable under cell reordering and resharding
// — replica 0 reproduces the single-run engine exactly, aggregate JSON is
// byte-identical across pool sizes and across shard+merge at replica
// granularity, and exp::stats folds are the documented deterministic
// functions of the replica values.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exp/engine.hpp"
#include "exp/merge.hpp"
#include "exp/record.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/stats.hpp"
#include "exp/sweep.hpp"
#include "memory_merge.hpp"

namespace amo {
namespace {

/// A small all-scheduled grid with mixed replica counts.
std::vector<exp::run_spec> replica_grid() {
  std::vector<exp::run_spec> cells;
  const struct {
    const char* adv;
    usize replicas;
  } rows[] = {{"random", 5}, {"random+crash", 3}, {"round_robin", 1},
              {"stale_view", 4}};
  for (const auto& row : rows) {
    exp::run_spec s;
    s.label = std::string("replicas/") + row.adv;
    s.algo = exp::algo_family::kk;
    s.n = 129;
    s.m = 3;
    s.crash_budget = 2;
    s.replicas = row.replicas;
    s.adversary = {row.adv, 11};
    cells.push_back(std::move(s));
  }
  exp::run_spec iter;
  iter.label = "replicas/iterative";
  iter.algo = exp::algo_family::iterative;
  iter.n = 200;
  iter.m = 3;
  iter.eps_inv = 2;
  iter.replicas = 2;
  iter.adversary = {"random", 7};
  cells.push_back(iter);
  return cells;
}

/// The aggregate JSON of a full sweep at the given pool size.
std::string aggregate_json(const std::vector<exp::run_spec>& cells,
                           usize pool_size) {
  exp::sweep_options opt;
  opt.pool_size = pool_size;
  const exp::sweep_result swept = exp::sweep(cells, opt);
  exp::json_writer json;
  exp::add_cell_records(json, swept, exp::grid_fingerprint(cells),
                        /*include_timing=*/false);
  return json.dump();
}

/// The per-unit JSON of shard s — exactly what `amo_lab sweep --shard`
/// emits under --no-timing.
std::string shard_json(const std::vector<exp::run_spec>& cells,
                       const exp::shard_ref& s) {
  const std::vector<exp::unit_ref> units = exp::shard_units(cells, s);
  std::vector<exp::run_report> reports;
  reports.reserve(units.size());
  for (const exp::unit_ref& u : units) {
    reports.push_back(exp::run(exp::replica_spec(cells[u.cell], u.replica)));
  }
  exp::json_writer json;
  exp::add_unit_records(json, reports, units, exp::unit_count(cells),
                        cells.size(), exp::grid_fingerprint(cells),
                        /*include_timing=*/false);
  return json.dump();
}

TEST(ReplicaSeeds, ReplicaZeroKeepsTheBaseSeed) {
  for (const std::uint64_t base : {0ull, 1ull, 42ull, ~0ull}) {
    EXPECT_EQ(exp::replica_seed(base, 0), base);
  }
}

TEST(ReplicaSeeds, DerivedSeedsAreDistinctAndPositionIndependent) {
  // Stability under reordering is by construction — the seed depends only
  // on (base, r) — so replica specs of a shuffled grid equal the originals.
  std::vector<exp::run_spec> grid = replica_grid();
  std::vector<exp::run_spec> shuffled = grid;
  std::reverse(shuffled.begin(), shuffled.end());
  for (usize i = 0; i < grid.size(); ++i) {
    const exp::run_spec& a = grid[i];
    const exp::run_spec& b = shuffled[shuffled.size() - 1 - i];
    for (usize r = 0; r < exp::resolved_replicas(a); ++r) {
      EXPECT_EQ(exp::replica_spec(a, r).adversary.seed,
                exp::replica_spec(b, r).adversary.seed)
          << a.label << " replica " << r;
    }
  }
  // Distinctness across a wide replica range for a few bases.
  for (const std::uint64_t base : {1ull, 7919ull}) {
    std::vector<std::uint64_t> seeds;
    for (usize r = 0; r < 64; ++r) seeds.push_back(exp::replica_seed(base, r));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end())
        << "collision for base " << base;
  }
}

TEST(ReplicaSweep, ReplicaZeroReproducesTheSingleRunEngine) {
  // replicas = 1 must preserve the pre-replica per-run metrics exactly:
  // the lone replica runs under the unmodified base seed.
  for (const exp::run_spec& cell : replica_grid()) {
    exp::run_spec single = cell;
    single.replicas = 1;
    const exp::run_report direct = exp::run(single);
    const exp::sweep_result swept = exp::sweep({cell});
    ASSERT_EQ(swept.cells.size(), 1u);
    EXPECT_TRUE(exp::equivalent(direct, swept.reports[swept.cells[0].first]))
        << cell.label;
  }
}

TEST(ReplicaSweep, UnitsStealAcrossThePoolByteIdentically) {
  const std::vector<exp::run_spec> cells = replica_grid();
  const std::string ref = aggregate_json(cells, 1);
  EXPECT_EQ(ref, aggregate_json(cells, 2));
  EXPECT_EQ(ref, aggregate_json(cells, 0));  // hardware_concurrency
}

TEST(ReplicaSweep, FlattenedReportsMatchDirectReplicaRuns) {
  const std::vector<exp::run_spec> cells = replica_grid();
  exp::sweep_options opt;
  opt.pool_size = 4;
  const exp::sweep_result swept = exp::sweep(cells, opt);
  ASSERT_EQ(swept.cells.size(), cells.size());
  usize total = 0;
  for (usize i = 0; i < cells.size(); ++i) {
    const exp::cell_report& cr = swept.cells[i];
    ASSERT_EQ(cr.replicas, exp::resolved_replicas(cells[i]));
    for (usize r = 0; r < cr.replicas; ++r) {
      const exp::run_report direct = exp::run(exp::replica_spec(cells[i], r));
      EXPECT_TRUE(exp::equivalent(direct, swept.reports[cr.first + r]))
          << cells[i].label << " replica " << r;
      EXPECT_EQ(swept.reports[cr.first + r].seed,
                exp::replica_seed(cells[i].adversary.seed, r));
    }
    total += cr.replicas;
  }
  EXPECT_EQ(swept.reports.size(), total);
  EXPECT_EQ(total, exp::unit_count(cells));
}

TEST(ReplicaShard, UnitPartitionCoversEveryReplicaExactlyOnce) {
  const std::vector<exp::run_spec> cells = replica_grid();
  const usize total = exp::unit_count(cells);
  for (const usize k : {usize{1}, usize{2}, usize{3}, usize{5}, usize{16},
                        usize{41}}) {
    std::vector<usize> seen(total, 0);
    for (usize i = 0; i < k; ++i) {
      for (const exp::unit_ref& u : exp::shard_units(cells, {i, k})) {
        ASSERT_LT(u.unit, total);
        ASSERT_LT(u.cell, cells.size());
        ASSERT_LT(u.replica, u.cell_replicas);
        EXPECT_EQ(u.cell_replicas, exp::resolved_replicas(cells[u.cell]));
        ++seen[u.unit];
      }
    }
    for (usize u = 0; u < total; ++u) {
      EXPECT_EQ(seen[u], 1u) << "unit " << u << " k " << k;
    }
  }
}

TEST(ReplicaMerge, ShardsRefoldIntoByteIdenticalAggregates) {
  const std::vector<exp::run_spec> cells = replica_grid();
  const std::string reference = aggregate_json(cells, 1);
  for (const usize k : {usize{2}, usize{3}, usize{5}, usize{16}}) {
    std::vector<std::vector<exp::record>> shards;
    for (usize i = 0; i < k; ++i) {
      exp::parse_result parsed =
          exp::parse_records(shard_json(cells, {i, k}));
      ASSERT_TRUE(parsed.ok()) << parsed.error;
      shards.push_back(std::move(parsed.records));
    }
    const exp::merge_result merged = testing::merge_memory(shards);
    ASSERT_TRUE(merged.ok()) << "k = " << k << ": " << merged.error;
    EXPECT_EQ(merged.units_total, exp::unit_count(cells));
    EXPECT_EQ(exp::render_records(merged.records), reference) << "k = " << k;
  }
}

TEST(ReplicaMerge, MissingReplicaIsACoverageGap) {
  const std::vector<exp::run_spec> cells = replica_grid();
  std::vector<std::vector<exp::record>> shards;
  for (usize i = 0; i < 3; ++i) {
    exp::parse_result parsed = exp::parse_records(shard_json(cells, {i, 3}));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    shards.push_back(std::move(parsed.records));
  }
  shards[1].erase(shards[1].begin());  // lose one unit
  const exp::merge_result merged = testing::merge_memory(shards);
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.error.find("coverage gap"), std::string::npos)
      << merged.error;

  // And a unit delivered twice is a duplicate.
  shards[1] = shards[0];
  const exp::merge_result dup = testing::merge_memory(shards);
  EXPECT_FALSE(dup.ok());
  EXPECT_NE(dup.error.find("duplicate unit"), std::string::npos) << dup.error;
}

TEST(ReplicaMerge, GridlessUnitRecordsMergeToValidParseableOutput) {
  // Foreign unit files may omit the grid fingerprint; the merged aggregate
  // must then simply omit it too — never emit an empty value token — and
  // its in-memory fields must carry decoded values agreeing with the raws
  // (a re-merge or in-process diff reads .number, not the raw).
  const char* doc =
      "[\n"
      "  {\"unit\": 0, \"units_total\": 2, \"cell\": 0, \"cells_total\": 1, "
      "\"replica\": 0, \"replicas\": 2, \"effectiveness\": 5, \"work\": 10, "
      "\"collisions\": 0, \"steps\": 3, \"at_most_once\": true, "
      "\"quiescent\": true, \"wa_complete\": false, \"duplicate\": 0},\n"
      "  {\"unit\": 1, \"units_total\": 2, \"cell\": 0, \"cells_total\": 1, "
      "\"replica\": 1, \"replicas\": 2, \"effectiveness\": 7, \"work\": 12, "
      "\"collisions\": 1, \"steps\": 4, \"at_most_once\": false, "
      "\"quiescent\": true, \"wa_complete\": false, \"duplicate\": 9}\n"
      "]\n";
  exp::parse_result parsed = exp::parse_records(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const exp::merge_result merged = testing::merge_memory({parsed.records});
  ASSERT_TRUE(merged.ok()) << merged.error;
  ASSERT_EQ(merged.records.size(), 1u);
  EXPECT_EQ(merged.records[0].find("grid"), nullptr);

  // The rendered output must re-parse (the old bug: an empty grid token).
  const exp::parse_result reparsed =
      exp::parse_records(exp::render_records(merged.records));
  ASSERT_TRUE(reparsed.ok()) << reparsed.error;

  // Decoded values agree with the raws on folded/synthesized fields.
  const exp::record& agg = merged.records[0];
  const exp::record_field* mean = agg.find("effectiveness_mean");
  ASSERT_NE(mean, nullptr);
  EXPECT_EQ(mean->number, 6.0);
  EXPECT_EQ(mean->raw, "6");
  const exp::record_field* dup = agg.find("duplicate");
  ASSERT_NE(dup, nullptr);
  EXPECT_EQ(dup->number, 9.0);
  const exp::record_field* amo = agg.find("at_most_once");
  ASSERT_NE(amo, nullptr);
  EXPECT_FALSE(amo->truth);  // any-replica violation folds in
}

TEST(ReplicaStats, SummarizeIsTheDocumentedFold) {
  const exp::metric_summary s = exp::summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  // population stddev of {1,2,3,4} = sqrt(1.25)
  EXPECT_NEAR(s.stddev, 1.118033988749895, 1e-12);
  EXPECT_DOUBLE_EQ(s.p50, 2.0);  // nearest rank: ceil(4*0.50) = 2nd
  EXPECT_DOUBLE_EQ(s.p95, 4.0);  // ceil(4*0.95) = 4th
  const exp::metric_summary one = exp::summarize({7.0});
  EXPECT_DOUBLE_EQ(one.min, 7.0);
  EXPECT_DOUBLE_EQ(one.p50, 7.0);
  EXPECT_DOUBLE_EQ(one.p95, 7.0);
  EXPECT_DOUBLE_EQ(one.stddev, 0.0);
}

TEST(ReplicaStats, AnyReplicaSafetyViolationMarksTheCell) {
  exp::run_report good;
  good.at_most_once = true;
  good.quiescent = true;
  good.effectiveness = 10;
  exp::run_report bad = good;
  bad.at_most_once = false;
  bad.duplicate = 17;
  bad.quiescent = false;

  const std::vector<exp::run_report> runs = {good, bad, good};
  const exp::cell_stats st = exp::fold_replicas(runs);
  EXPECT_EQ(st.replicas, 3u);
  EXPECT_FALSE(st.at_most_once);
  EXPECT_FALSE(st.quiescent);
  EXPECT_EQ(st.duplicate, 17u);

  const std::vector<exp::run_report> all_good = {good, good};
  EXPECT_TRUE(exp::fold_replicas(all_good).at_most_once);
}

}  // namespace
}  // namespace amo
