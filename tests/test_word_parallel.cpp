// Differential coverage for the word-parallel free-set engine: the PDEP and
// portable broadword in-word selects against a brute-force bit walk, the
// bitset_rank_set select/rank paths (both select implementations, forced via
// the runtime switch) against the std::set oracle and against ostree, and —
// critically — charge parity: the merged-entry FREE \ TRY word paths must
// charge exactly the same op_counter units as the per-entry probe paths they
// replace, checked against fenwick_rank_set (which only has the probe path)
// and a brute-force charge tally; and the closed-form Fenwick update hop
// count against the chain walk it replaces.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "rank_set_oracle.hpp"
#include "sets/bitset_rank_set.hpp"
#include "sets/fenwick_rank_set.hpp"
#include "sets/ostree.hpp"
#include "sets/rank_select.hpp"
#include "sets/word_ops.hpp"
#include "util/prng.hpp"

namespace amo {
namespace {

/// Restores the select-implementation switch on scope exit.
struct portable_guard {
  explicit portable_guard(bool on) { bits::force_portable_select(on); }
  ~portable_guard() { bits::force_portable_select(false); }
};

unsigned brute_select_in_word(std::uint64_t x, unsigned k) {
  for (unsigned i = 0; i < 64; ++i) {
    if (((x >> i) & 1u) != 0 && --k == 0) return i;
  }
  ADD_FAILURE() << "rank out of range";
  return 64;
}

TEST(WordOps, PortableMatchesBruteForce) {
  xoshiro256 rng(7);
  for (int round = 0; round < 20000; ++round) {
    std::uint64_t x = rng();
    if (round % 3 == 0) x &= rng();  // sparser words
    if (round % 5 == 0) x |= rng();  // denser words
    if (x == 0) continue;
    const auto pc = static_cast<unsigned>(std::popcount(x));
    for (unsigned k = 1; k <= pc; ++k) {
      ASSERT_EQ(bits::select_in_word_portable(x, k), brute_select_in_word(x, k))
          << "x=" << x << " k=" << k;
    }
  }
}

#ifdef AMO_HAS_PDEP
TEST(WordOps, PdepMatchesPortable) {
  xoshiro256 rng(8);
  for (int round = 0; round < 20000; ++round) {
    std::uint64_t x = rng();
    if (round % 3 == 0) x &= rng();
    if (x == 0) continue;
    const auto pc = static_cast<unsigned>(std::popcount(x));
    for (unsigned k = 1; k <= pc; ++k) {
      ASSERT_EQ(bits::select_in_word_pdep(x, k),
                bits::select_in_word_portable(x, k))
          << "x=" << x << " k=" << k;
    }
  }
}
#endif

TEST(WordOps, EdgeWords) {
  for (unsigned i = 0; i < 64; ++i) {
    const std::uint64_t one = std::uint64_t{1} << i;
    EXPECT_EQ(bits::select_in_word_portable(one, 1), i);
    EXPECT_EQ(bits::select_in_word(one, 1), i);
  }
  const std::uint64_t all = ~std::uint64_t{0};
  for (unsigned k = 1; k <= 64; ++k) {
    EXPECT_EQ(bits::select_in_word_portable(all, k), k - 1);
  }
}

/// The full oracle suite with the portable in-word select forced, so the
/// non-PDEP path gets end-to-end coverage even on BMI2 builds.
TEST(PortableSelectOracle, RandomizedStreams) {
  portable_guard guard(true);
  testing::run_randomized_stream<bitset_rank_set>(300, 6000, 11);
  testing::run_randomized_stream<bitset_rank_set>(129, 4000, 22);
  testing::run_shrink_stream<bitset_rank_set>(400, 33);
}

/// Multi-level coverage: a universe large enough to exercise all four
/// counter-directory levels (> 16*16*16 words), cross-checked against
/// ostree on sampled select/rank queries rather than the full oracle.
TEST(WordParallel, LargeUniverseAgainstOstree) {
  const job_id universe = 1u << 21;
  xoshiro256 rng(44);
  bitset_rank_set b(universe);
  ostree o(universe);
  for (int i = 0; i < 20000; ++i) {
    const auto x = static_cast<job_id>(rng.between(1, universe));
    ASSERT_EQ(b.insert(x), o.insert(x));
  }
  for (int i = 0; i < 5000; ++i) {
    const auto x = static_cast<job_id>(rng.between(1, universe));
    ASSERT_EQ(b.erase(x), o.erase(x));
  }
  ASSERT_EQ(b.size(), o.size());
  for (bool portable : {false, true}) {
    portable_guard guard(portable);
    xoshiro256 qrng(55);
    for (int q = 0; q < 20000; ++q) {
      const usize k = qrng.below(b.size()) + 1;
      ASSERT_EQ(b.select(k), o.select(k)) << "k=" << k;
      const auto x = static_cast<job_id>(qrng.between(1, universe));
      ASSERT_EQ(b.rank_le(x), o.rank_le(x)) << "x=" << x;
    }
  }
}

TEST(WordParallel, PopcountRangeMatchesRankDifference) {
  xoshiro256 rng(66);
  bitset_rank_set b(5000);
  for (int i = 0; i < 2500; ++i) {
    b.insert(static_cast<job_id>(rng.between(1, 5000)));
  }
  for (int q = 0; q < 2000; ++q) {
    auto lo = static_cast<job_id>(rng.between(1, 5000));
    auto hi = static_cast<job_id>(rng.between(1, 5000));
    if (lo > hi) std::swap(lo, hi);
    ASSERT_EQ(b.popcount_range(lo, hi), b.rank_le(hi) - b.rank_le(lo - 1));
  }
}

/// Builds a bitset_rank_set (word-parallel paths once |TRY| exceeds
/// word_parallel_threshold) and a fenwick_rank_set (probe path only) with
/// the same members, and asserts that results agree with the fenwick oracle
/// and that charged op_counter units match a brute-force tally of what the
/// per-entry probe path charges: one unit on the operator plus one
/// contains() unit per TRY entry examined, plus the select() charges.
class WordPathParity : public ::testing::TestWithParam<int> {};

TEST_P(WordPathParity, RankExcludingChargesAndResults) {
  const bool clustered = GetParam() != 0;
  xoshiro256 rng(clustered ? 101 : 202);
  for (int round = 0; round < 40; ++round) {
    const auto universe = static_cast<job_id>(rng.between(2000, 1u << 17));
    bitset_rank_set words(universe);
    bitset_rank_set selects(universe);  // charges select() alone
    fenwick_rank_set oracle(universe);
    std::set<job_id> members;
    for (int i = 0; i < 3000; ++i) {
      const auto x = static_cast<job_id>(rng.between(1, universe));
      words.insert(x);
      selects.insert(x);
      oracle.insert(x);
      members.insert(x);
    }
    // Sizes straddle word_parallel_threshold so both branches of the gate
    // run; clustered entries share bitmap words, spread entries do not.
    try_set t;
    t.bind_universe(universe);
    const usize count = rng.between(1, 31);
    if (clustered) {
      const auto base =
          static_cast<job_id>(rng.between(1, universe - static_cast<job_id>(count)));
      for (usize i = 0; i < count; ++i) t.insert(base + static_cast<job_id>(i), 1);
    } else {
      for (usize i = 0; i < count; ++i) {
        t.insert(static_cast<job_id>(rng.between(1, universe)), 1);
      }
    }
    // Brute-force probe-path charge for TRY entries <= x.
    const auto probe_units = [&t](job_id x) { return 2 * t.count_le(x); };
    op_counter oc;
    words.set_counter(&oc);
    op_counter oc_select;
    selects.set_counter(&oc_select);

    const usize avail = size_excluding(words, t, &oc);
    ASSERT_EQ(avail, size_excluding(oracle, t));
    ASSERT_EQ(oc.local_ops, probe_units(universe))
        << "size_excluding charge parity, |TRY|=" << t.size();

    for (int q = 0; q < 50 && avail > 0; ++q) {
      const usize i = rng.below(avail) + 1;
      oc = {};
      const job_id got = rank_excluding(words, t, i, &oc);
      ASSERT_EQ(got, rank_excluding(oracle, t, i)) << "rank_excluding result, i=" << i;
      ASSERT_FALSE(t.peek(got));
      // Replay the fixed-point iteration by brute force, tallying charges.
      oc_select = {};
      usize expect = 0;
      for (usize idx = i;;) {
        const job_id x = selects.select(idx);
        expect += probe_units(x);
        usize excluded = 0;
        for (const auto& e : t.entries()) {
          if (e.job <= x && members.contains(e.job)) ++excluded;
        }
        if (i + excluded == idx) break;
        idx = i + excluded;
      }
      ASSERT_EQ(oc.local_ops, expect + oc_select.local_ops)
          << "rank_excluding charge parity, i=" << i << " |TRY|=" << t.size();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SpreadAndClustered, WordPathParity,
                         ::testing::Values(0, 1));

/// The select/rank charge formulas must match the reference implementation:
/// log-floor descent units plus the in-word walk for select, Fenwick prefix
/// hops plus the final popcount for rank.
TEST(ChargeModel, SelectAndRankFormulas) {
  auto s = bitset_rank_set::full(1 << 12);  // 64 words, log_floor = 6
  op_counter oc;
  s.set_counter(&oc);
  // select(k): charge = (log_floor + 1) + (in-word rank - 1).
  oc = {};
  (void)s.select(1);  // word 0, in-word rank 1
  EXPECT_EQ(oc.local_ops, 7u);
  oc = {};
  (void)s.select(64);  // word 0, in-word rank 64
  EXPECT_EQ(oc.local_ops, 7u + 63u);
  oc = {};
  (void)s.select(65);  // word 1, in-word rank 1
  EXPECT_EQ(oc.local_ops, 7u);
  // rank_le(x): charge = popcount(word index) + 1.
  oc = {};
  (void)s.rank_le(64);  // word 0: popcount(0) + 1
  EXPECT_EQ(oc.local_ops, 1u);
  oc = {};
  (void)s.rank_le(449);  // word 7: popcount(7) + 1
  EXPECT_EQ(oc.local_ops, 4u);
}

TEST(ChargeModel, UpdateMatchesFenwickHops) {
  // The charged update cost must equal the reference Fenwick chain length:
  // for word w (0-based) in a 64-word array, the chain i = w+1, i += lowbit.
  auto s = bitset_rank_set::full(1 << 12);
  op_counter oc;
  s.set_counter(&oc);
  const auto chain = [](usize w, usize num_words) {
    usize hops = 0;
    for (usize i = w + 1; i <= num_words; i += i & (~i + 1)) ++hops;
    return hops;
  };
  for (const job_id x : {job_id{1}, job_id{64}, job_id{65}, job_id{2048},
                         job_id{4095}, job_id{4096}}) {
    oc = {};
    ASSERT_TRUE(s.erase(x));
    EXPECT_EQ(oc.local_ops, chain((x - 1) / 64, 64)) << "erase " << x;
    oc = {};
    ASSERT_TRUE(s.insert(x));
    EXPECT_EQ(oc.local_ops, chain((x - 1) / 64, 64)) << "insert " << x;
  }
}

TEST(ChargeModel, ClosedFormHopsMatchChainWalk) {
  const auto chain = [](std::uint64_t w, std::uint64_t num_words) {
    usize hops = 0;
    for (std::uint64_t i = w + 1; i <= num_words;) {
      ++hops;
      const std::uint64_t next = i + (i & (~i + 1));
      if (next <= i) break;  // wrapped past 2^64: the chain ends here
      i = next;
    }
    return hops;
  };
  for (usize n = 1; n <= 4096; ++n) {
    for (usize w = 0; w < n; ++w) {
      ASSERT_EQ(bits::fenwick_update_hops(w, n), chain(w, n))
          << "w=" << w << " num_words=" << n;
    }
  }
  xoshiro256 rng(4242);
  for (int q = 0; q < 200000; ++q) {
    // Mix full-width values with short ones so both long and empty bit
    // ranges come up.
    const unsigned width = static_cast<unsigned>(rng.between(1, 64));
    const std::uint64_t mask = width == 64 ? ~std::uint64_t{0}
                                           : (std::uint64_t{1} << width) - 1;
    std::uint64_t a = rng() & mask;
    std::uint64_t b = rng() & mask;
    if (a > b) std::swap(a, b);
    if (b == 0) continue;
    const std::uint64_t w = a == b ? a - 1 : a;  // w < num_words = b
    ASSERT_EQ(bits::fenwick_update_hops(w, b), chain(w, b))
        << "w=" << w << " num_words=" << b;
  }
}

}  // namespace
}  // namespace amo
