// Unit and property tests for the bitmap rank set (the FREE-set
// representation of every KK run), with emphasis on 64-bit word boundaries
// and on the 16-word threshold below which it keeps no directory.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <set>
#include <vector>

#include "rank_set_oracle.hpp"
#include "sets/bitset_rank_set.hpp"
#include "util/op_counter.hpp"
#include "util/prng.hpp"

namespace amo {
namespace {

TEST(BitsetRankSet, EmptyBasics) {
  bitset_rank_set s(100);
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(1));
  EXPECT_EQ(s.rank_le(100), 0u);
}

TEST(BitsetRankSet, WordBoundaryElements) {
  bitset_rank_set s(200);
  for (job_id x : {job_id{1}, job_id{63}, job_id{64}, job_id{65}, job_id{127},
                   job_id{128}, job_id{129}, job_id{200}}) {
    EXPECT_TRUE(s.insert(x));
  }
  EXPECT_EQ(s.size(), 8u);
  EXPECT_EQ(s.select(1), 1u);
  EXPECT_EQ(s.select(2), 63u);
  EXPECT_EQ(s.select(3), 64u);
  EXPECT_EQ(s.select(4), 65u);
  EXPECT_EQ(s.select(8), 200u);
  EXPECT_EQ(s.rank_le(64), 3u);
  EXPECT_EQ(s.rank_le(128), 6u);
  EXPECT_TRUE(s.erase(64));
  EXPECT_EQ(s.select(3), 65u);
}

TEST(BitsetRankSet, UniverseExactly64) {
  auto s = bitset_rank_set::full(64);
  EXPECT_EQ(s.size(), 64u);
  EXPECT_EQ(s.select(64), 64u);
  EXPECT_EQ(s.rank_le(64), 64u);
  EXPECT_TRUE(s.erase(64));
  EXPECT_EQ(s.size(), 63u);
  EXPECT_EQ(s.rank_le(64), 63u);
}

TEST(BitsetRankSet, UniverseExactly65) {
  auto s = bitset_rank_set::full(65);
  EXPECT_EQ(s.size(), 65u);
  EXPECT_EQ(s.select(65), 65u);
}

TEST(BitsetRankSet, FullMasksTailWord) {
  // A full set over a non-multiple-of-64 universe must not count ghost bits.
  auto s = bitset_rank_set::full(70);
  EXPECT_EQ(s.size(), 70u);
  EXPECT_EQ(s.rank_le(70), 70u);
  EXPECT_FALSE(s.contains(71));
  EXPECT_EQ(s.select(70), 70u);
}

TEST(BitsetRankSet, UniverseOfOne) {
  auto s = bitset_rank_set::full(1);
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.select(1), 1u);
  EXPECT_TRUE(s.erase(1));
  EXPECT_TRUE(s.empty());
}

TEST(BitsetRankSet, SparseSelectInsideWord) {
  bitset_rank_set s(64);
  s.insert(3);
  s.insert(5);
  s.insert(62);
  EXPECT_EQ(s.select(1), 3u);
  EXPECT_EQ(s.select(2), 5u);
  EXPECT_EQ(s.select(3), 62u);
}

TEST(BitsetRankSet, CounterCharges) {
  op_counter oc;
  auto s = bitset_rank_set::full(1 << 16);
  s.set_counter(&oc);
  s.erase(30000);
  (void)s.select(10000);
  (void)s.rank_le(50000);
  EXPECT_GT(oc.local_ops, 0u);
  EXPECT_LE(oc.local_ops, 96u);
}

/// The reference Fenwick update chain from word w: what an update charges.
usize fenwick_chain(usize w, usize num_words) {
  usize hops = 0;
  for (usize i = w + 1; i <= num_words; i += i & (~i + 1)) ++hops;
  return hops;
}

TEST(BitsetRankSet, MatchesOracleAndChargesAcrossTheDirectoryThreshold) {
  // Universes of at most 16 words (1024 jobs) keep no directory; larger ones
  // keep the four-level one. Either way every answer must match std::set
  // and every charge the cost model's closed forms: 1 for contains, the
  // Fenwick chain for a real update, log_floor+1 plus the in-word walk for
  // select, popcount(word index)+1 for rank.
  for (const job_id universe :
       {job_id{1}, job_id{63}, job_id{64}, job_id{65}, job_id{129},
        job_id{1000}, job_id{1024}, job_id{1025}, job_id{1088},
        job_id{4096}}) {
    const usize words = (static_cast<usize>(universe) + 63) / 64;
    const usize log_floor = static_cast<usize>(std::bit_width(words)) - 1;
    auto s = bitset_rank_set::full(universe);
    std::set<job_id> ref;
    for (job_id x = 1; x <= universe; ++x) ref.insert(x);
    ASSERT_EQ(s.num_words(), words);
    op_counter oc;
    s.set_counter(&oc);

    xoshiro256 rng(universe * 7 + 1);
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t op = rng.below(5);
      const auto x = static_cast<job_id>(rng.below(universe + 2));  // 0..u+1
      oc = {};
      usize charge = 0;
      switch (op) {
        case 0:
          ASSERT_EQ(s.contains(x), ref.contains(x));
          charge = 1;
          break;
        case 1:
          if (x >= 1 && x <= universe) {
            const bool added = ref.insert(x).second;
            ASSERT_EQ(s.insert(x), added);
            if (added) charge = fenwick_chain((x - 1) / 64, words);
          }
          break;
        case 2: {
          const bool removed = ref.erase(x) == 1;
          ASSERT_EQ(s.erase(x), removed);
          if (removed) charge = fenwick_chain((x - 1) / 64, words);
          break;
        }
        case 3:
          if (!ref.empty()) {
            const auto k = static_cast<usize>(rng.below(ref.size())) + 1;
            const job_id want = *std::next(ref.begin(), static_cast<long>(k - 1));
            ASSERT_EQ(s.select(k), want);
            const job_id word_start = (want - 1) / 64 * 64 + 1;
            const auto in_word = static_cast<usize>(std::distance(
                ref.lower_bound(word_start), ref.upper_bound(want)));
            charge = log_floor + 1 + (in_word - 1);
          }
          break;
        case 4: {
          const auto want = static_cast<usize>(
              std::distance(ref.begin(), ref.upper_bound(x)));
          ASSERT_EQ(s.rank_le(x), want);
          if (x != 0) {
            const usize w = (std::min(x, universe) - 1) / 64;
            charge = static_cast<usize>(std::popcount(w)) + 1;
          }
          break;
        }
      }
      ASSERT_EQ(oc.local_ops, charge)
          << "universe " << universe << " step " << step << " op " << op;
      ASSERT_EQ(s.size(), ref.size());
    }

    s.set_counter(nullptr);
    testing::expect_matches_reference(s, ref, universe);
    // The word surface the FREE \ TRY fast paths read.
    std::vector<std::uint64_t> want_words(words, 0);
    for (const job_id x : ref) {
      want_words[(x - 1) / 64] |= std::uint64_t{1} << ((x - 1) % 64);
    }
    for (usize w = 0; w < words; ++w) {
      ASSERT_EQ(s.word(w), want_words[w]) << "universe " << universe;
    }
  }
}

TEST(BitsetOracle, RandomizedSmall) {
  testing::run_randomized_stream<bitset_rank_set>(40, 2000, 121);
}

TEST(BitsetOracle, RandomizedMedium) {
  testing::run_randomized_stream<bitset_rank_set>(500, 6000, 242);
}

TEST(BitsetOracle, RandomizedWordStraddling) {
  testing::run_randomized_stream<bitset_rank_set>(129, 4000, 363);
}

TEST(BitsetOracle, ShrinkOnly) {
  testing::run_shrink_stream<bitset_rank_set>(300, 383);
}

TEST(BitsetOracle, SubsetConstruction) {
  testing::run_subset_construction<bitset_rank_set>(400, 484);
}

class BitsetSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BitsetSweep, RandomizedStreamsAcrossSeeds) {
  testing::run_randomized_stream<bitset_rank_set>(128, 3000, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitsetSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace amo
