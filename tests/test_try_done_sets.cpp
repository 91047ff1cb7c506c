// Unit tests for try_set (the < m-element TRY set with announcer
// attribution). DONE has no structure of its own: kk_process holds it as
// the jobs gone from FREE, which test_kk_invariants and the model
// co-simulation in test_model_check check step by step.
#include <gtest/gtest.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <memory>
#include <set>
#include <vector>

#include "sets/bitset_rank_set.hpp"
#include "sets/try_set.hpp"
#include "util/prng.hpp"

namespace amo {
namespace {

TEST(TrySet, InsertContainsClear) {
  try_set t;
  EXPECT_TRUE(t.empty());
  EXPECT_TRUE(t.insert(5, 2));
  EXPECT_FALSE(t.insert(5, 3));  // already present
  EXPECT_TRUE(t.insert(3, 1));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.contains(5));
  EXPECT_TRUE(t.contains(3));
  EXPECT_FALSE(t.contains(4));
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.contains(5));
}

TEST(TrySet, AnnouncerRefreshedOnReinsert) {
  try_set t;
  t.insert(7, 2);
  EXPECT_EQ(t.announcer_of(7), 2u);
  t.insert(7, 4);  // same job announced by a later-read process
  EXPECT_EQ(t.announcer_of(7), 4u);
  EXPECT_EQ(t.announcer_of(8), 0u);
}

TEST(TrySet, EntriesSortedByJob) {
  try_set t;
  t.insert(9, 1);
  t.insert(2, 2);
  t.insert(5, 3);
  const auto e = t.entries();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0].job, 2u);
  EXPECT_EQ(e[1].job, 5u);
  EXPECT_EQ(e[2].job, 9u);
  EXPECT_EQ(e[1].announcer, 3u);
}

TEST(TrySet, ManyInsertsStaySorted) {
  try_set t;
  xoshiro256 rng(55);
  for (int i = 0; i < 100; ++i) {
    t.insert(static_cast<job_id>(rng.between(1, 60)),
             static_cast<process_id>(rng.between(1, 4)));
  }
  const auto e = t.entries();
  for (usize i = 1; i < e.size(); ++i) EXPECT_LT(e[i - 1].job, e[i].job);
}

TEST(TrySet, CounterCharges) {
  op_counter oc;
  try_set t;
  t.set_counter(&oc);
  t.insert(1, 1);
  (void)t.contains(1);
  EXPECT_GT(oc.local_ops, 0u);
}

TEST(TrySet, BindUniverseKeepsEntriesAndAdmitsTheBound) {
  try_set t;
  t.insert(5, 1);
  t.bind_universe(200);
  // Binding neither drops nor duplicates existing entries.
  ASSERT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.peek(5));
  EXPECT_TRUE(t.insert(200, 2));  // the bound itself is in range
  EXPECT_TRUE(t.peek(200));
  EXPECT_FALSE(t.peek(201));
}

#ifndef NDEBUG
TEST(TrySetDeathTest, InsertAboveBoundIsRejected) {
  try_set t;
  t.bind_universe(64);
  EXPECT_DEATH(t.insert(65, 1), "");
}
#endif

TEST(TrySet, PeekMatchesReferenceAndNeverCharges) {
  op_counter oc;
  try_set t;
  t.set_counter(&oc);
  t.bind_universe(512);
  xoshiro256 rng(99);
  for (int gen = 0; gen < 300; ++gen) {
    std::set<job_id> ref;
    const int k = static_cast<int>(rng.between(0, 15));
    for (int i = 0; i < k; ++i) {
      const auto j = static_cast<job_id>(rng.between(1, 512));
      t.insert(j, 1);
      ref.insert(j);
    }
    const usize charged = oc.local_ops;
    for (job_id j = 1; j <= 512; ++j) {
      ASSERT_EQ(t.peek(j), ref.count(j) == 1) << "gen " << gen << " job " << j;
    }
    ASSERT_EQ(oc.local_ops, charged) << "peek charged the op_counter";
    for (job_id j = 1; j <= 512; ++j) {
      ASSERT_EQ(t.contains(j), ref.count(j) == 1);
    }
    // count_le agrees with the reference at sampled points.
    for (int q = 0; q < 8; ++q) {
      const auto x = static_cast<job_id>(rng.between(1, 512));
      usize expect = 0;
      for (const job_id j : ref) expect += j <= x ? 1 : 0;
      ASSERT_EQ(t.count_le(x), expect);
    }
    t.clear();
    ASSERT_TRUE(t.empty());
  }
}

#if defined(__GLIBC__)
/// Footprint gate: the per-process set state of a kk_solo-sized run (m = 16
/// processes, n = 2^20 jobs) — a full FREE bitset_rank_set plus a
/// universe-bound TRY each, built the way kk_process builds them — must stay
/// within 3 MB of heap. FREE alone is about 2.6 MB here, so any
/// universe-sized side structure on TRY (or a second per-process bitmap)
/// trips the gate.
TEST(SetFootprint, FreeAndTryAtKkSoloScaleStayUnder3MB) {
  constexpr usize m = 16;
  constexpr auto n = static_cast<job_id>(1u << 20);
  // In-use heap plus mmapped blocks: a 2^20-job bitmap is above the
  // allocator's mmap threshold.
  const auto in_use = [] {
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
  };
  std::vector<std::unique_ptr<bitset_rank_set>> free_sets;
  std::vector<std::unique_ptr<try_set>> try_sets;
  free_sets.reserve(m);
  try_sets.reserve(m);
  const std::size_t before = in_use();
  for (usize p = 0; p < m; ++p) {
    free_sets.push_back(
        std::make_unique<bitset_rank_set>(bitset_rank_set::full(n)));
    try_sets.push_back(std::make_unique<try_set>());
    try_sets.back()->bind_universe(n);
    for (process_id q = 1; q < m; ++q) try_sets.back()->insert(q * 4099, q);
  }
  const std::size_t after = in_use();
  const std::size_t delta = after > before ? after - before : 0;
  if (delta < m * (n / 8)) {
    GTEST_SKIP() << "mallinfo2 does not see this allocator (sanitizer build?)";
  }
  EXPECT_LE(delta, std::size_t{3} << 20) << "per-process set state grew";
}
#endif

}  // namespace
}  // namespace amo
