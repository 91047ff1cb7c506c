// Differential parity for the sweep's one replica rule: consecutive units
// of a seed-independent cell run exp::run once and copy the report, so
// every unit run_units hands back — over the whole unit list and over shard
// slices, whose units of one cell are strided subsets — must be
// exp::equivalent (every charged op count included) to running that unit's
// replica_spec through exp::run, echoed seed included; sweep aggregates
// must stay byte-identical to a fold of those per-unit runs across pool
// sizes and shard counts. Seeded cells run each replica through exp::run
// either way, so what this suite pins beyond the shared code is
// exp::seed_independent's reading of make_adversary's types and the exact
// Lemire modulo (util/fastdiv.hpp) the seeded adversaries draw through,
// against hardware %.
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <string>
#include <vector>

#include "exp/engine.hpp"
#include "exp/merge.hpp"
#include "exp/record.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"
#include "svc/worker_pool.hpp"
#include "util/fastdiv.hpp"
#include "util/prng.hpp"
#include "memory_merge.hpp"

namespace amo {
namespace {

exp::run_spec kk_cell(const std::string& adv, usize n, usize m,
                      usize crash_budget, usize replicas,
                      std::uint64_t seed = 11) {
  exp::run_spec s;
  s.label = "parity/" + adv;
  s.algo = exp::algo_family::kk;
  s.n = n;
  s.m = m;
  s.crash_budget = crash_budget;
  s.replicas = replicas;
  s.adversary = {adv, seed};
  return s;
}

/// Runs `units` through run_units and checks each report against the unit
/// through exp::run on its own.
void expect_units_match_run(const std::vector<exp::run_spec>& cells,
                            const std::vector<exp::unit_ref>& units,
                            svc::worker_pool& pool) {
  const exp::unit_run_result got = exp::run_units(cells, units, pool);
  ASSERT_EQ(got.reports.size(), units.size());
  for (usize i = 0; i < units.size(); ++i) {
    const exp::unit_ref& u = units[i];
    const exp::run_report expected =
        exp::run(exp::replica_spec(cells[u.cell], u.replica));
    EXPECT_TRUE(exp::equivalent(expected, got.reports[i]))
        << cells[u.cell].label << " replica " << u.replica;
    EXPECT_EQ(got.reports[i].seed, expected.seed) << cells[u.cell].label;
  }
}

/// The whole unit list, then every slice of 2, 3 and 5 shards.
void expect_grid_matches_run(const std::vector<exp::run_spec>& cells) {
  svc::worker_pool pool(2);
  expect_units_match_run(cells, exp::shard_units(cells, {0, 1}), pool);
  for (const usize k : {usize{2}, usize{3}, usize{5}}) {
    for (usize i = 0; i < k; ++i) {
      SCOPED_TRACE("shard " + std::to_string(i) + "/" + std::to_string(k));
      expect_units_match_run(cells, exp::shard_units(cells, {i, k}), pool);
    }
  }
}

TEST(FastMod, ExactAgainstHardwareRemainder) {
  xoshiro256 rng(2024);
  std::vector<std::uint64_t> divisors = {2,  3,   4,   5,    6,    7,   8,
                                         9,  10,  12,  16,   31,   64,  100,
                                         63, 127, 129, 1000, 4096, 65537};
  divisors.push_back(std::numeric_limits<std::uint64_t>::max());
  divisors.push_back(std::numeric_limits<std::uint64_t>::max() - 1);
  divisors.push_back(std::uint64_t{1} << 63);
  for (const std::uint64_t d : divisors) {
    const fastmod64 fm = fastmod64::for_divisor(d);
    // Edge numerators plus a random spray across the 64-bit range.
    std::vector<std::uint64_t> xs = {0, 1, d - 1, d, d + 1, ~std::uint64_t{0},
                                     ~std::uint64_t{0} - 1};
    for (int i = 0; i < 2000; ++i) xs.push_back(rng());
    for (const std::uint64_t x : xs) {
      ASSERT_EQ(fm.mod(x), x % d) << "x=" << x << " d=" << d;
    }
  }
  // d <= 1 encodes "no modulo": everything maps to 0, matching x % 1.
  EXPECT_EQ(fastmod64::for_divisor(1).mod(12345u), 0u);
}

TEST(FastMod, BoundedDrawReplicatesBelowStream) {
  // Two generators from the same seed: one drained through the cached-
  // reciprocal path, one through xoshiro256::below. Values AND consumption
  // must match, including across bound changes and bound <= 1 no-draws.
  xoshiro256 a(99);
  xoshiro256 b(99);
  bounded_draw draw;
  xoshiro256 bound_src(7);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bound = bound_src() % 300;  // includes 0 and 1
    ASSERT_EQ(draw.below(a, bound), b.below(bound)) << "i=" << i;
  }
  ASSERT_EQ(a(), b());  // streams still in lockstep at the end
}

TEST(SeedIndependent, GateMatchesTheEngineContract) {
  using exp::seed_independent;
  // Seeded schedules: every replica is its own execution.
  EXPECT_FALSE(seed_independent(kk_cell("random", 64, 3, 0, 4)));
  EXPECT_FALSE(seed_independent(kk_cell("random+crash", 64, 3, 2, 4)));
  EXPECT_FALSE(seed_independent(kk_cell("random+crash:3/100", 64, 3, 2, 4)));
  EXPECT_FALSE(seed_independent(kk_cell("block4", 64, 3, 0, 4)));
  EXPECT_FALSE(seed_independent(kk_cell("block:7", 64, 3, 0, 4)));
  exp::run_spec base = kk_cell("round_robin", 64, 3, 0, 4);
  EXPECT_TRUE(seed_independent(base));
  EXPECT_TRUE(seed_independent(kk_cell("stale_view", 64, 3, 0, 4)));
  EXPECT_TRUE(seed_independent(kk_cell("stale_view:100", 64, 3, 0, 4)));
  EXPECT_TRUE(seed_independent(kk_cell("announce_crash", 64, 3, 2, 4)));
  EXPECT_TRUE(seed_independent(kk_cell("scripted:s1 s2 s3", 64, 3, 0, 4)));

  // Fail-closed triggers: unknown names, malformed parameters, non-sim
  // memory, trace recording, non-bitset free sets, non-kk families, ao2
  // with m != 2, the OS-thread driver.
  EXPECT_FALSE(seed_independent(kk_cell("no_such_adversary", 64, 3, 0, 4)));
  EXPECT_FALSE(seed_independent(kk_cell("random+crash:3/0", 64, 3, 0, 4)));
  EXPECT_FALSE(seed_independent(kk_cell("block:x", 64, 3, 0, 4)));
  EXPECT_FALSE(seed_independent(kk_cell("scripted:not a trace", 64, 3, 0, 4)));
  exp::run_spec traced = base;
  traced.record_trace = true;
  EXPECT_FALSE(seed_independent(traced));
  exp::run_spec atomic = base;
  atomic.memory = exp::memory_kind::atomic;
  EXPECT_FALSE(seed_independent(atomic));
  exp::run_spec fen = base;
  fen.free_set = exp::free_set_kind::fenwick;
  EXPECT_FALSE(seed_independent(fen));
  exp::run_spec iter = base;
  iter.algo = exp::algo_family::iterative;
  EXPECT_FALSE(seed_independent(iter));
  exp::run_spec ao2 = base;
  ao2.algo = exp::algo_family::ao2;
  EXPECT_FALSE(seed_independent(ao2));  // m == 3
  ao2.m = 2;
  EXPECT_TRUE(seed_independent(ao2));
  exp::run_spec threads = base;
  threads.driver = exp::driver_kind::os_threads;
  EXPECT_FALSE(seed_independent(threads));
}

TEST(ReplicaParity, AdversaryZoo) {
  // Every seed-independent schedule, 9 replicas a cell: the full list
  // holds one block per cell, the slices strided subsets of each.
  std::vector<exp::run_spec> cells;
  for (const char* adv :
       {"round_robin", "stale_view", "stale_view:64", "announce_crash"}) {
    cells.push_back(kk_cell(adv, 129, 3, 2, 9, 23));
  }
  expect_grid_matches_run(cells);
}

TEST(ReplicaParity, Ao2AndScriptedAndBigM) {
  std::vector<exp::run_spec> cells;
  // ao2 (the normalized two-process building block).
  exp::run_spec ao2 = kk_cell("announce_crash", 80, 2, 1, 6, 5);
  ao2.algo = exp::algo_family::ao2;
  cells.push_back(ao2);
  // A scripted prefix (replicated, with a fallback tail).
  cells.push_back(kk_cell("scripted:s1 s1 s2 c3 s2 s1", 40, 3, 1, 4, 9));
  // m >= 32 engages the word-parallel TRY paths.
  cells.push_back(kk_cell("stale_view", 300, 33, 4, 4, 31));
  cells.push_back(kk_cell("announce_crash", 300, 33, 32, 3, 31));
  expect_grid_matches_run(cells);
}

TEST(ReplicaParity, StridedReplicaSubsets) {
  // Shard slices hand a block non-consecutive replica indices; any
  // ascending subset must match its exp::run units, echoed seeds included.
  const std::vector<exp::run_spec> cells = {
      kk_cell("announce_crash", 129, 3, 2, 12, 77),
      kk_cell("round_robin", 129, 3, 0, 12, 77)};
  const auto subset = [](usize cell, std::vector<usize> replicas) {
    std::vector<exp::unit_ref> units;
    for (const usize r : replicas) {
      units.push_back({.unit = cell * 12 + r,
                       .cell = cell,
                       .replica = r,
                       .cell_replicas = 12});
    }
    return units;
  };
  svc::worker_pool pool(2);
  expect_units_match_run(cells, subset(0, {0, 3, 6, 9}), pool);
  expect_units_match_run(cells, subset(0, {1, 4, 7, 10}), pool);
  expect_units_match_run(cells, subset(0, {2, 5, 11}), pool);
  expect_units_match_run(cells, subset(1, {0, 5, 10}), pool);
  expect_grid_matches_run(cells);
}

/// Mixed grid for the byte-identity sweeps: seeded and seed-independent kk
/// cells, an iterative cell, and an ao2 cell.
std::vector<exp::run_spec> parity_grid() {
  std::vector<exp::run_spec> cells;
  cells.push_back(kk_cell("random", 129, 3, 2, 5));
  cells.push_back(kk_cell("random+crash", 129, 3, 2, 3));
  cells.push_back(kk_cell("round_robin", 129, 3, 0, 4));
  cells.push_back(kk_cell("block4", 96, 4, 0, 2));
  exp::run_spec ao2 = kk_cell("random", 64, 2, 1, 3);
  ao2.algo = exp::algo_family::ao2;
  cells.push_back(ao2);
  exp::run_spec iter;
  iter.label = "parity/iterative";
  iter.algo = exp::algo_family::iterative;
  iter.n = 120;
  iter.m = 3;
  iter.eps_inv = 2;
  iter.replicas = 2;
  iter.adversary = {"random", 7};
  cells.push_back(iter);
  return cells;
}

std::string cell_records_json(const std::vector<exp::run_spec>& cells,
                              const exp::sweep_result& swept) {
  exp::json_writer json;
  exp::add_cell_records(json, swept, exp::grid_fingerprint(cells),
                        /*include_timing=*/false);
  return json.dump();
}

/// The reference every sweep must reproduce: each unit through exp::run on
/// its own, folded per cell.
std::string reference_json(const std::vector<exp::run_spec>& cells) {
  exp::sweep_result ref;
  for (const exp::unit_ref& u : exp::shard_units(cells, {0, 1})) {
    ref.reports.push_back(exp::run(exp::replica_spec(cells[u.cell], u.replica)));
  }
  usize first = 0;
  for (const exp::run_spec& c : cells) {
    exp::cell_report cr;
    cr.first = first;
    cr.replicas = exp::resolved_replicas(c);
    cr.stats = exp::fold_replicas(
        std::span<const exp::run_report>(ref.reports).subspan(first, cr.replicas));
    first += cr.replicas;
    ref.cells.push_back(cr);
  }
  return cell_records_json(cells, ref);
}

TEST(ReplicaSweep, ByteIdenticalAcrossPoolSizes) {
  const std::vector<exp::run_spec> cells = parity_grid();
  const std::string ref = reference_json(cells);
  for (const usize pool : {usize{1}, usize{2}, usize{0}}) {
    exp::sweep_options opt;
    opt.pool_size = pool;
    EXPECT_EQ(ref, cell_records_json(cells, exp::sweep(cells, opt)))
        << "pool " << pool;
  }
}

TEST(ReplicaSweep, ShardedUnitsMergeByteIdentically) {
  const std::vector<exp::run_spec> cells = parity_grid();
  const std::string reference = reference_json(cells);
  svc::worker_pool pool(2);
  for (const usize k : {usize{2}, usize{3}, usize{5}}) {
    std::vector<std::vector<exp::record>> shards;
    for (usize i = 0; i < k; ++i) {
      const std::vector<exp::unit_ref> units =
          exp::shard_units(cells, {i, k});
      const exp::unit_run_result ur = exp::run_units(cells, units, pool);
      exp::json_writer json;
      exp::add_unit_records(json, ur.reports, units, exp::unit_count(cells),
                            cells.size(), exp::grid_fingerprint(cells),
                            /*include_timing=*/false);
      exp::parse_result parsed = exp::parse_records(json.dump());
      ASSERT_TRUE(parsed.ok()) << parsed.error;
      shards.push_back(std::move(parsed.records));
    }
    const exp::merge_result merged = testing::merge_memory(shards);
    ASSERT_TRUE(merged.ok()) << "k = " << k << ": " << merged.error;
    EXPECT_EQ(exp::render_records(merged.records), reference) << "k = " << k;
  }
}

TEST(ReplicaSweep, ThrowingCellStillFailsAndOthersComplete) {
  // A grid with one bad cell: the throw must surface after the drain,
  // exactly like every other unit's.
  std::vector<exp::run_spec> cells = parity_grid();
  cells.push_back(kk_cell("no_such_adversary", 32, 2, 0, 3));
  EXPECT_THROW(exp::sweep(cells, exp::sweep_options{1}), std::invalid_argument);
  // A malformed parameterized name of a seed-independent type throws too.
  std::vector<exp::run_spec> bad_script = {
      kk_cell("scripted:not a trace", 32, 2, 0, 3)};
  EXPECT_THROW(exp::sweep(bad_script, exp::sweep_options{1}),
               std::invalid_argument);
}

}  // namespace
}  // namespace amo
