// The distribution layer's contracts: a k-way shard plan covers every cell
// exactly once for any grid size, merge(shards) is byte-identical to the
// unsharded sweep, and the merge refuses duplicates, gaps and mixed grids.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exp/merge.hpp"
#include "exp/record.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"
#include "memory_merge.hpp"

namespace amo {
namespace {

TEST(Shard, ParseAcceptsCanonicalForms) {
  exp::shard_ref s;
  ASSERT_TRUE(exp::parse_shard("0/3", s));
  EXPECT_EQ(s.index, 0u);
  EXPECT_EQ(s.count, 3u);
  ASSERT_TRUE(exp::parse_shard("2/3", s));
  EXPECT_EQ(s.index, 2u);
  ASSERT_TRUE(exp::parse_shard("0/1", s));
  EXPECT_EQ(exp::to_string(s), "0/1");
}

TEST(Shard, ParseRejectsMalformedInput) {
  exp::shard_ref s{7, 9};
  for (const char* bad : {"3/3", "4/3", "a/3", "1/0", "1", "1/", "/3", "",
                          "1/2/3", "-1/3", "1/b", " 1/3"}) {
    EXPECT_FALSE(exp::parse_shard(bad, s)) << bad;
    // A failed parse must leave the output untouched.
    EXPECT_EQ(s.index, 7u) << bad;
    EXPECT_EQ(s.count, 9u) << bad;
  }
}

TEST(Shard, PartitionCoversEveryCellExactlyOnce) {
  for (const usize total : {usize{0}, usize{1}, usize{5}, usize{16}, usize{37},
                            usize{100}}) {
    for (const usize k : {usize{1}, usize{2}, usize{3}, usize{5}, usize{8},
                          usize{41}}) {
      std::vector<usize> seen(total, 0);
      for (usize i = 0; i < k; ++i) {
        const std::vector<usize> owned =
            exp::shard_indices(total, exp::shard_ref{i, k});
        usize prev = 0;
        for (usize pos = 0; pos < owned.size(); ++pos) {
          ASSERT_LT(owned[pos], total) << "total " << total << " k " << k;
          if (pos > 0) {
            EXPECT_GT(owned[pos], prev) << "shards are ascending";
          }
          prev = owned[pos];
          ++seen[owned[pos]];
        }
      }
      for (usize c = 0; c < total; ++c) {
        EXPECT_EQ(seen[c], 1u) << "cell " << c << " total " << total << " k " << k;
      }
    }
  }
}

TEST(Shard, CellSlicesMatchIndices) {
  std::vector<exp::run_spec> all(11);
  for (usize i = 0; i < all.size(); ++i) {
    all[i].label = "cell" + std::to_string(i);
  }
  const exp::shard_ref s{1, 4};
  const std::vector<usize> idx = exp::shard_indices(all.size(), s);
  const std::vector<exp::run_spec> cells = exp::shard_cells(all, s);
  ASSERT_EQ(cells.size(), idx.size());
  for (usize i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].label, all[idx[i]].label);
  }
}

// --- merge: byte-identity against the unsharded sweep ---

/// A small all-scheduled grid mixing algorithm families (deterministic:
/// every cell is a pure function of its spec).
std::vector<exp::run_spec> small_grid() {
  std::vector<exp::run_spec> cells;
  for (const char* adv : {"round_robin", "random", "stale_view"}) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      exp::run_spec s;
      s.label = std::string("grid/") + adv;
      s.algo = exp::algo_family::kk;
      s.n = 129;
      s.m = 3;
      s.crash_budget = 1;
      s.adversary = {adv, seed};
      cells.push_back(std::move(s));
    }
  }
  exp::run_spec iter;
  iter.label = "grid/iterative";
  iter.algo = exp::algo_family::iterative;
  iter.n = 200;
  iter.m = 3;
  iter.eps_inv = 2;
  iter.adversary = {"random", 7};
  cells.push_back(iter);
  exp::run_spec tas;
  tas.label = "grid/tas";
  tas.algo = exp::algo_family::tas;
  tas.n = 100;
  tas.m = 2;
  tas.adversary = {"round_robin", 1};
  cells.push_back(tas);
  return cells;
}

/// Emits the sweep of `cells` restricted to `indices`, in the exact format
/// `amo_lab sweep --shard --no-timing --out` writes.
std::string sharded_sweep_json(const std::vector<exp::run_spec>& all,
                               const std::vector<usize>& indices) {
  std::vector<exp::run_spec> cells;
  cells.reserve(indices.size());
  for (const usize i : indices) cells.push_back(all[i]);
  exp::sweep_options opt;
  opt.pool_size = 1;
  const exp::sweep_result result = exp::sweep(cells, opt);
  exp::json_writer json;
  exp::add_sweep_records(json, result.reports, indices, all.size(),
                         exp::grid_fingerprint(all),
                         /*include_timing=*/false);
  return json.dump();
}

std::vector<usize> iota_indices(usize total) {
  std::vector<usize> all(total);
  for (usize i = 0; i < total; ++i) all[i] = i;
  return all;
}

TEST(Merge, ShardsRecombineByteIdentical) {
  const std::vector<exp::run_spec> grid = small_grid();
  const std::string reference =
      sharded_sweep_json(grid, iota_indices(grid.size()));

  for (const usize k : {usize{2}, usize{3}, usize{5}, usize{16}}) {
    std::vector<std::vector<exp::record>> shards;
    for (usize i = 0; i < k; ++i) {
      const std::string doc = sharded_sweep_json(
          grid, exp::shard_indices(grid.size(), exp::shard_ref{i, k}));
      exp::parse_result parsed = exp::parse_records(doc);
      ASSERT_TRUE(parsed.ok()) << parsed.error;
      shards.push_back(std::move(parsed.records));
    }
    const exp::merge_result merged = testing::merge_memory(shards);
    ASSERT_TRUE(merged.ok()) << merged.error;
    EXPECT_EQ(exp::render_records(merged.records), reference) << "k = " << k;
  }
}

TEST(Merge, ShardOrderDoesNotMatter) {
  const std::vector<exp::run_spec> grid = small_grid();
  const std::string reference =
      sharded_sweep_json(grid, iota_indices(grid.size()));
  std::vector<std::vector<exp::record>> shards;
  for (const usize i : {usize{2}, usize{0}, usize{1}}) {  // shuffled
    exp::parse_result parsed = exp::parse_records(sharded_sweep_json(
        grid, exp::shard_indices(grid.size(), exp::shard_ref{i, 3})));
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    shards.push_back(std::move(parsed.records));
  }
  const exp::merge_result merged = testing::merge_memory(shards);
  ASSERT_TRUE(merged.ok()) << merged.error;
  EXPECT_EQ(exp::render_records(merged.records), reference);
}

/// Shards of the grid, parsed — the valid starting point the failure tests
/// then corrupt.
std::vector<std::vector<exp::record>> parsed_shards(
    const std::vector<exp::run_spec>& grid, usize k) {
  std::vector<std::vector<exp::record>> shards;
  for (usize i = 0; i < k; ++i) {
    exp::parse_result parsed = exp::parse_records(sharded_sweep_json(
        grid, exp::shard_indices(grid.size(), exp::shard_ref{i, k})));
    shards.push_back(std::move(parsed.records));
  }
  return shards;
}

TEST(Merge, DetectsDuplicateCell) {
  const std::vector<exp::run_spec> grid = small_grid();
  std::vector<std::vector<exp::record>> shards = parsed_shards(grid, 3);
  shards.push_back({shards[0][0]});  // one cell delivered twice
  const exp::merge_result merged = testing::merge_memory(shards);
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.error.find("duplicate cell"), std::string::npos)
      << merged.error;
}

TEST(Merge, DetectsCoverageGap) {
  const std::vector<exp::run_spec> grid = small_grid();
  std::vector<std::vector<exp::record>> shards = parsed_shards(grid, 3);
  shards[1].erase(shards[1].begin());  // lose one cell
  const exp::merge_result merged = testing::merge_memory(shards);
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.error.find("coverage gap"), std::string::npos)
      << merged.error;
}

TEST(Merge, DetectsMixedGrids) {
  const std::vector<exp::run_spec> grid = small_grid();
  std::vector<std::vector<exp::record>> shards = parsed_shards(grid, 2);
  // A shard of a differently-sized grid: cells_total disagrees.
  const std::vector<exp::run_spec> other(grid.begin(), grid.begin() + 3);
  exp::parse_result parsed = exp::parse_records(
      sharded_sweep_json(other, iota_indices(other.size())));
  shards.push_back(std::move(parsed.records));
  const exp::merge_result merged = testing::merge_memory(shards);
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.error.find("cells_total"), std::string::npos)
      << merged.error;
}

TEST(Merge, DetectsDifferentGridsOfEqualSize) {
  // Same cell count, different specs: cells_total agrees, so only the grid
  // fingerprint can tell the shards apart.
  const std::vector<exp::run_spec> grid = small_grid();
  std::vector<exp::run_spec> other = grid;
  other[0].adversary.seed += 1000;
  ASSERT_NE(exp::grid_fingerprint(grid), exp::grid_fingerprint(other));

  std::vector<std::vector<exp::record>> shards = parsed_shards(grid, 2);
  exp::parse_result foreign = exp::parse_records(sharded_sweep_json(
      other, exp::shard_indices(other.size(), exp::shard_ref{1, 2})));
  ASSERT_TRUE(foreign.ok()) << foreign.error;
  shards[1] = std::move(foreign.records);

  const exp::merge_result merged = testing::merge_memory(shards);
  EXPECT_FALSE(merged.ok());
  EXPECT_NE(merged.error.find("grid fingerprint"), std::string::npos)
      << merged.error;
}

TEST(Merge, RejectsRecordsWithoutCellIndex) {
  exp::parse_result parsed =
      exp::parse_records("[\n  {\"scenario\": \"x\", \"work\": 3}\n]\n");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const exp::merge_result merged = testing::merge_memory({parsed.records});
  EXPECT_FALSE(merged.ok());
}

TEST(Merge, EmptyShardListYieldsEmptyDocument) {
  const exp::merge_result merged = testing::merge_memory({});
  ASSERT_TRUE(merged.ok()) << merged.error;
  EXPECT_TRUE(merged.records.empty());
}

}  // namespace
}  // namespace amo
