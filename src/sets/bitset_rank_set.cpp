#include "sets/bitset_rank_set.hpp"

#include <bit>
#include <cassert>

#include "sets/word_ops.hpp"
#include "util/math.hpp"

namespace amo {

namespace {

constexpr usize windows(usize items, usize fanout) {
  return (items + fanout - 1) / fanout;
}

/// suffix16[off][i] / suffix32[off][i] = all-ones when i >= off. Indexing a
/// static table turns each masked suffix update into load/and/add/store
/// vector ops — no runtime mask construction.
struct suffix_masks {
  alignas(64) std::uint16_t m16[16][16];
  alignas(64) std::uint32_t m32[16][16];
};

constexpr suffix_masks make_suffix_masks() {
  suffix_masks s{};
  for (usize off = 0; off < 16; ++off) {
    for (usize i = 0; i < 16; ++i) {
      s.m16[off][i] = i >= off ? 0xffff : 0;
      s.m32[off][i] = i >= off ? 0xffffffffu : 0;
    }
  }
  return s;
}

constexpr suffix_masks suffix = make_suffix_masks();

}  // namespace

bitset_rank_set::bitset_rank_set(job_id universe)
    : universe_(universe),
      num_words_((static_cast<usize>(universe) + 63) / 64),
      log_floor_(num_words_ == 0 ? 0 : ilog2(num_words_)),
      bits_(num_words_, 0) {
  if (flat()) return;  // one superblock: popcount scans replace the directory
  const usize num_sbs = windows(num_words_, fanout);
  const usize num_groups = windows(num_sbs, fanout);
  const usize num_supers = windows(num_groups, fanout);
  wcum_.assign(num_sbs * fanout, 0);
  sbcum_.assign(num_groups * fanout, 0);
  gcum_.assign(num_supers * fanout, 0);
  sgcum_.assign(num_supers, 0);
  rebuild_counts();  // establishes the padding bases
}

bitset_rank_set bitset_rank_set::full(job_id universe) {
  bitset_rank_set s(universe);
  for (usize w = 0; w < s.num_words_; ++w) s.bits_[w] = ~std::uint64_t{0};
  // Mask off the bits beyond the universe in the last word.
  const usize tail = static_cast<usize>(universe) % 64;
  if (tail != 0) s.bits_[s.num_words_ - 1] = (std::uint64_t{1} << tail) - 1;
  s.count_ = universe;
  s.rebuild_counts();
  return s;
}

bitset_rank_set::bitset_rank_set(job_id universe,
                                 std::span<const job_id> sorted_members)
    : bitset_rank_set(universe) {
  for (const job_id x : sorted_members) {
    assert(x >= 1 && x <= universe);
    bits_[(x - 1) / 64] |= std::uint64_t{1} << ((x - 1) % 64);
  }
  count_ = sorted_members.size();
  rebuild_counts();
}

void bitset_rank_set::rebuild_counts() {
  // One forward pass computes every cumulative counter. Padding entries
  // (indices past the last real word/superblock/group of a window) receive
  // pad + (window total so far), which the masked suffix updates in
  // apply_delta keep consistent forever after.
  if (flat()) return;
  const usize num_sbs = windows(num_words_, fanout);
  const usize num_groups = windows(num_sbs, fanout);
  const usize num_supers = windows(num_groups, fanout);
  usize total = 0;

  for (usize sb = 0; sb < num_sbs; ++sb) {
    std::uint16_t acc = 0;
    for (usize i = 0; i < fanout; ++i) {
      const usize w = sb * fanout + i;
      if (w < num_words_) {
        acc = static_cast<std::uint16_t>(
            acc + static_cast<std::uint16_t>(std::popcount(bits_[w])));
        wcum_[w] = acc;
      } else {
        wcum_[w] = static_cast<std::uint16_t>(pad16 + acc);
      }
    }
  }
  for (usize g = 0; g < num_groups; ++g) {
    std::uint32_t acc = 0;
    for (usize i = 0; i < fanout; ++i) {
      const usize sb = g * fanout + i;
      if (sb < num_sbs) {
        const usize last_word =
            std::min(sb * fanout + fanout, num_words_) - 1;
        acc += static_cast<std::uint32_t>(wcum_[last_word]);
        sbcum_[sb] = acc;
      } else {
        sbcum_[sb] = pad32 + acc;
      }
    }
  }
  for (usize sg = 0; sg < num_supers; ++sg) {
    std::uint32_t acc = 0;
    for (usize i = 0; i < fanout; ++i) {
      const usize g = sg * fanout + i;
      if (g < num_groups) {
        // last_sb is clamped to the last REAL superblock, never a pad.
        const usize last_sb = std::min(g * fanout + fanout, num_sbs) - 1;
        assert(sbcum_[last_sb] < pad32);
        acc += sbcum_[last_sb];
        gcum_[g] = acc;
      } else {
        gcum_[g] = pad32 + acc;
      }
    }
  }
  {
    std::uint64_t acc = 0;
    for (usize sg = 0; sg < num_supers; ++sg) {
      // last_g is clamped to the last REAL group, never a pad.
      const usize last_g = std::min(sg * fanout + fanout, num_groups) - 1;
      assert(gcum_[last_g] < pad32);
      acc += gcum_[last_g];
      sgcum_[sg] = acc;
    }
    total = static_cast<usize>(acc);
  }
  assert(num_words_ == 0 || total == count_);
  (void)total;
}

void bitset_rank_set::apply_delta(usize w, bool add) {
  if (flat()) return;  // no directory to maintain
  // Masked suffix add within each fixed 16-entry window: branch-free, and
  // the compiler turns each loop into a couple of vector ops.
  const usize sb = w / fanout;
  const usize g = sb / fanout;
  const usize sg = g / fanout;

  const auto d16 = static_cast<std::uint16_t>(add ? 1 : -1);
  std::uint16_t* win16 = wcum_.data() + sb * fanout;
  const std::uint16_t* mask16 = suffix.m16[w - sb * fanout];
  for (usize i = 0; i < fanout; ++i) {
    win16[i] = static_cast<std::uint16_t>(win16[i] + (mask16[i] & d16));
  }

  const auto d32 = static_cast<std::uint32_t>(add ? 1 : -1);
  std::uint32_t* winsb = sbcum_.data() + g * fanout;
  const std::uint32_t* masksb = suffix.m32[sb - g * fanout];
  for (usize i = 0; i < fanout; ++i) winsb[i] += masksb[i] & d32;

  std::uint32_t* wing = gcum_.data() + sg * fanout;
  const std::uint32_t* maskg = suffix.m32[g - sg * fanout];
  for (usize i = 0; i < fanout; ++i) wing[i] += maskg[i] & d32;

  const auto d64 = static_cast<std::uint64_t>(add ? 1 : std::uint64_t(-1));
  for (usize i = sg; i < sgcum_.size(); ++i) sgcum_[i] += d64;
}

job_id bitset_rank_set::select(usize k) const {
  assert(k >= 1 && k <= count_);
  // Reference cost: one unit per Fenwick descent level, charged in bulk.
  charge_units(log_floor_ + 1);
  if (flat()) {
    // At most 16 words: find the word by popcounts, no directory to read.
    usize rem = k;
    usize w = 0;
    while (true) {
      const auto pc = static_cast<usize>(std::popcount(bits_[w]));
      if (rem <= pc) break;
      rem -= pc;
      ++w;
    }
    charge_units(rem - 1);
    const unsigned bit =
        bits::select_in_word(bits_[w], static_cast<unsigned>(rem));
    return static_cast<job_id>(w * 64 + bit + 1);
  }
  // Branchless descent: at each level, the child index is the count of
  // window entries whose cumulative popcount is < rem (fixed 16-wide
  // compare-and-count; padding entries sit above pad16/pad32 and are never
  // counted). No data-dependent branches until the final word.
  usize rem = k;
  usize sg = 0;
  for (usize i = 0; i < sgcum_.size(); ++i) {
    sg += sgcum_[i] < rem ? 1u : 0u;
  }
  rem -= sg > 0 ? static_cast<usize>(sgcum_[sg - 1]) : 0;

  // rem fits the element width at each level (window totals are <= 2^18),
  // so the compare-and-count loops vectorize as single-width compares.
  const std::uint32_t* wing = gcum_.data() + sg * fanout;
  const auto rem_g = static_cast<std::uint32_t>(rem);
  usize g_off = 0;
  for (usize i = 0; i < fanout; ++i) g_off += wing[i] < rem_g ? 1u : 0u;
  const usize g = sg * fanout + g_off;
  rem -= g_off > 0 ? static_cast<usize>(wing[g_off - 1]) : 0;

  const std::uint32_t* winsb = sbcum_.data() + g * fanout;
  const auto rem_sb = static_cast<std::uint32_t>(rem);
  usize sb_off = 0;
  for (usize i = 0; i < fanout; ++i) sb_off += winsb[i] < rem_sb ? 1u : 0u;
  const usize sb = g * fanout + sb_off;
  rem -= sb_off > 0 ? static_cast<usize>(winsb[sb_off - 1]) : 0;

  const std::uint16_t* win16 = wcum_.data() + sb * fanout;
  const auto rem_w = static_cast<std::uint16_t>(rem);
  usize w_off = 0;
  for (usize i = 0; i < fanout; ++i) w_off += win16[i] < rem_w ? 1u : 0u;
  const usize w = sb * fanout + w_off;
  rem -= w_off > 0 ? static_cast<usize>(win16[w_off - 1]) : 0;

  // The rem-th set bit inside the word is a single PDEP (or broadword)
  // query. The reference walk visited rem-1 bits, each charged — same
  // units, no loop.
  charge_units(rem - 1);
  const unsigned bit = bits::select_in_word(bits_[w], static_cast<unsigned>(rem));
  return static_cast<job_id>(w * 64 + bit + 1);
}

usize bitset_rank_set::rank_le(job_id x) const {
  if (x == 0) return 0;
  if (x > universe_) x = universe_;
  const usize w = (x - 1) / 64;
  // Reference cost: popcount(w) Fenwick prefix hops plus the final in-word
  // popcount, charged in bulk.
  charge_units(static_cast<usize>(std::popcount(w)) + 1);
  usize r = 0;
  if (flat()) {
    for (usize i = 0; i < w; ++i) {
      r += static_cast<usize>(std::popcount(bits_[i]));
    }
  } else {
    // Cumulative counters make the prefix sum four O(1) lookups.
    const usize sb = w / fanout;
    const usize g = sb / fanout;
    const usize sg = g / fanout;
    r += sg > 0 ? static_cast<usize>(sgcum_[sg - 1]) : 0;
    r += g > sg * fanout ? static_cast<usize>(gcum_[g - 1]) : 0;
    r += sb > g * fanout ? static_cast<usize>(sbcum_[sb - 1]) : 0;
    r += w > sb * fanout ? static_cast<usize>(wcum_[w - 1]) : 0;
  }
  const usize bit = (x - 1) % 64;
  const std::uint64_t mask =
      bit == 63 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (bit + 1)) - 1);
  r += static_cast<usize>(std::popcount(bits_[w] & mask));
  return r;
}

usize bitset_rank_set::popcount_range(job_id lo, job_id hi) const {
  if (lo < 1) lo = 1;
  if (hi > universe_) hi = universe_;
  if (lo > hi) return 0;
  const usize wl = (static_cast<usize>(lo) - 1) / 64;
  const usize wh = (static_cast<usize>(hi) - 1) / 64;
  const std::uint64_t lo_mask = ~std::uint64_t{0} << ((lo - 1) % 64);
  const usize hi_bit = (hi - 1) % 64;
  const std::uint64_t hi_mask =
      hi_bit == 63 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (hi_bit + 1)) - 1);
  if (wl == wh) {
    return static_cast<usize>(std::popcount(bits_[wl] & lo_mask & hi_mask));
  }
  usize r = static_cast<usize>(std::popcount(bits_[wl] & lo_mask));
  for (usize w = wl + 1; w < wh; ++w) {
    r += static_cast<usize>(std::popcount(bits_[w]));
  }
  r += static_cast<usize>(std::popcount(bits_[wh] & hi_mask));
  return r;
}

std::vector<job_id> bitset_rank_set::to_vector() const {
  std::vector<job_id> out;
  out.reserve(count_);
  for (usize w = 0; w < num_words_; ++w) {
    std::uint64_t word = bits_[w];
    while (word != 0) {
      const unsigned bit = static_cast<unsigned>(std::countr_zero(word));
      out.push_back(static_cast<job_id>(w * 64 + bit + 1));
      word &= word - 1;
    }
  }
  return out;
}

}  // namespace amo
