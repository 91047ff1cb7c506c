// The paper's rank(SET1, SET2, i) operator (Section 3): "returns the element
// of set SET1 \ SET2 that has rank i". With SET1 an order-statistic set and
// SET2 the (< m)-element TRY set, the cost is O(|SET2| log n), exactly as
// charged in the work analysis.
//
// Algorithm: monotone fixed-point iteration. Let c(x) = |{y in SET2 ∩ SET1 :
// y <= x}|. We look for the smallest index idx with idx = i + c(select(idx));
// at that point x = select(idx) satisfies |{y in SET1\SET2 : y <= x}| = i and
// x itself is not excluded (a first fixed point on an excluded element is
// impossible: it would imply an earlier fixed point, contradiction — see the
// convergence argument in tests/test_rank_select.cpp, which cross-checks
// against a brute-force oracle). Each step can only grow idx by newly
// discovered exclusions, so there are at most |SET2|+1 iterations.
//
// Word-parallel engine: when SET1 exposes its bitmap words (word_rank_set,
// i.e. bitset_rank_set) and TRY is large enough, the c(x) and
// |SET1 \ SET2| queries run as one pass over TRY's sorted entries that
// merges same-word bits into one mask and ANDs it against the SET1 word —
// AND + popcount per distinct word instead of per-entry contains() probes. The charged operation counts are kept bit-identical to the probe
// path (the cost model is semantic); only the instruction count changes.
#pragma once

#include <bit>
#include <cassert>
#include <concepts>
#include <cstdint>

#include "sets/try_set.hpp"
#include "util/op_counter.hpp"
#include "util/types.hpp"

namespace amo {

/// The shape shared by ostree / fenwick_rank_set / bitset_rank_set.
template <class S>
concept rank_set = requires(S s, const S cs, job_id x, usize k, op_counter* oc) {
  { cs.contains(x) } -> std::convertible_to<bool>;
  { cs.size() } -> std::convertible_to<usize>;
  { cs.select(k) } -> std::convertible_to<job_id>;
  { cs.rank_le(x) } -> std::convertible_to<usize>;
  { s.insert(x) } -> std::convertible_to<bool>;
  { s.erase(x) } -> std::convertible_to<bool>;
  { cs.universe() } -> std::convertible_to<job_id>;
  s.set_counter(oc);
};

/// A rank_set that additionally exposes its backing bitmap words, enabling
/// the word-parallel FREE \ TRY paths below.
template <class S>
concept word_rank_set = rank_set<S> && requires(const S cs, usize i, usize n) {
  { cs.word(i) } -> std::convertible_to<std::uint64_t>;
  { cs.num_words() } -> std::convertible_to<usize>;
  cs.charge_units(n);
};

namespace detail {

/// |included ∩ excluded| restricted to jobs <= x, word-parallel: a single
/// pass over the sorted entries that merges same-word bits into one mask as
/// it goes — at most one included-word load per distinct word and no
/// lookahead, so it never does more work than the per-entry probe path.
template <word_rank_set S>
usize overlap_le_words(const S& included, const try_set& excluded, job_id x) {
  const usize num_words = included.num_words();
  usize c = 0;
  usize cur_w = ~usize{0};
  std::uint64_t cur_mask = 0;
  for (const auto& e : excluded.entries()) {
    if (e.job > x) break;
    const usize w = (static_cast<usize>(e.job) - 1) / 64;
    const std::uint64_t bit = std::uint64_t{1} << ((e.job - 1) % 64);
    if (w == cur_w) {
      cur_mask |= bit;
      continue;
    }
    if (cur_w < num_words) {
      c += static_cast<usize>(std::popcount(included.word(cur_w) & cur_mask));
    }
    cur_w = w;
    cur_mask = bit;
  }
  if (cur_w < num_words) {
    c += static_cast<usize>(std::popcount(included.word(cur_w) & cur_mask));
  }
  return c;
}

}  // namespace detail

/// |{y in excluded ∩ included : y <= x}|. O(|excluded|).
/// Below this TRY size the per-entry probe loop beats the word-parallel
/// kernel (fewer cache lines touched, no run bookkeeping); above it, word
/// batching wins. Both paths charge identical op_counter units, so the
/// switch is purely a wall-clock decision.
inline constexpr usize word_parallel_threshold = 8;

template <rank_set S>
usize excluded_at_or_below(const S& included, const try_set& excluded, job_id x,
                           op_counter* oc) {
  if constexpr (word_rank_set<S>) {
    if (excluded.size() > word_parallel_threshold) {
      if (x == 0) return 0;
      // Charge exactly what the probe path would: one unit here plus one
      // contains() unit on `included` per excluded entry <= x.
      const usize probes = excluded.count_le(x);
      if (oc != nullptr) oc->local_ops += probes;
      included.charge_units(probes);
      return detail::overlap_le_words(included, excluded, x);
    }
  }
  usize c = 0;
  for (const auto& e : excluded.entries()) {
    if (e.job > x) break;
    if (oc != nullptr) ++oc->local_ops;
    if (included.contains(e.job)) ++c;
  }
  return c;
}

/// Number of elements in set1 \ set2.
template <rank_set S>
usize size_excluding(const S& set1, const try_set& set2, op_counter* oc = nullptr) {
  if constexpr (word_rank_set<S>) {
    if (set2.size() > word_parallel_threshold) {
      const usize probes = set2.size();
      if (oc != nullptr) oc->local_ops += probes;
      set1.charge_units(probes);
      return set1.size() -
             detail::overlap_le_words(set1, set2, set1.universe());
    }
  }
  usize overlap = 0;
  for (const auto& e : set2.entries()) {
    if (oc != nullptr) ++oc->local_ops;
    if (set1.contains(e.job)) ++overlap;
  }
  return set1.size() - overlap;
}

/// The element of set1 \ set2 with 1-based rank i.
/// Precondition: 1 <= i <= |set1 \ set2|.
template <rank_set S>
job_id rank_excluding(const S& set1, const try_set& set2, usize i,
                      op_counter* oc = nullptr) {
  // Only uncharged checks here: size_excluding would charge set1's counter
  // and make Debug builds count more work than Release ones.
  assert(i >= 1 && i <= set1.size());
  usize idx = i;
  while (true) {
    const job_id x = set1.select(idx);
    const usize next = i + excluded_at_or_below(set1, set2, x, oc);
    if (next == idx) {
      assert(!set2.peek(x));
      return x;
    }
    idx = next;
  }
}

}  // namespace amo
