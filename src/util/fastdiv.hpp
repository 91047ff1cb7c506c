// Exact division-free modulo for run-time-constant divisors (Lemire & Kaser,
// "Faster remainders when the divisor is a constant", 2019, generalized to
// 64-bit numerators with a 128-bit fractional reciprocal).
//
// The adversary decision loop computes `draw % runnable_count` once per
// scheduled action, and the rejection threshold `(0 - bound) % bound` once
// per bound. The bound only changes when a process terminates or crashes, so
// both random schedulers — sim::random_adversary and the batched replica
// kernel's inlined copy of it — keep a bounded_draw per bound that caches
// {bound, threshold, reciprocal} and turns the per-step hardware divides
// into multiplies, while producing bit-for-bit the same remainders: the
// adversary's decision stream is unchanged.
//
// The trick: let M = ceil(2^128 / d). Then for any 64-bit x,
//   x mod d = high128(lowbits * d)   where lowbits = M * x mod 2^128.
// M * x keeps the *fractional* part of x/d in fixed point; multiplying the
// fraction back by d recovers the remainder exactly (the error term is below
// 1/2^64 of a unit for d < 2^64, so truncation cannot round wrong).
//
// Requires the compiler's unsigned __int128 (gcc/clang on 64-bit targets,
// which is what this repo builds on); without it, fall back to hardware `%`,
// which is bit-identical by definition.
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace amo {

#if defined(__SIZEOF_INT128__)
#define AMO_HAS_UINT128 1
#endif

/// Precomputed exact-modulo state for one divisor. Value semantics; cheap to
/// copy. A default-constructed instance behaves as divisor 1 (mod == 0).
struct fastmod64 {
#ifdef AMO_HAS_UINT128
  unsigned __int128 m = 0;  ///< ceil(2^128 / d); 0 encodes d <= 1
#endif
  std::uint64_t d = 1;

  static fastmod64 for_divisor(std::uint64_t d) {
    fastmod64 f;
    f.d = d;
#ifdef AMO_HAS_UINT128
    if (d > 1) {
      // ceil(2^128 / d) = floor((2^128 - 1) / d) + 1 for any d >= 2 (when
      // d divides 2^128 — powers of two — the +1 lands on the exact
      // quotient + 1, which the proof also covers; verified exhaustively
      // against `%` in tests/test_batch_parity.cpp).
      f.m = ~static_cast<unsigned __int128>(0) / d + 1;
    }
#endif
    return f;
  }

  /// x % d, exact for every 64-bit x.
  [[nodiscard]] std::uint64_t mod(std::uint64_t x) const {
#ifdef AMO_HAS_UINT128
    if (d <= 1) return 0;
    const unsigned __int128 lowbits = m * x;
    // high 64 bits of the 192-bit product lowbits * d: split lowbits into
    // hi:lo 64-bit halves, so the answer is hi*d + high64(lo*d), all >> 64.
    const std::uint64_t lo = static_cast<std::uint64_t>(lowbits);
    const std::uint64_t hi = static_cast<std::uint64_t>(lowbits >> 64);
    const unsigned __int128 partial =
        static_cast<unsigned __int128>(lo) * d >> 64;
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(hi) * d + partial) >> 64);
#else
    return d <= 1 ? 0 : x % d;
#endif
  }
};

/// One-slot cache pairing a divisor's reciprocal with the rejection
/// threshold xoshiro256::below uses for that bound. bound() replays
/// below(bound)'s draw-consume-test loop with the division replaced by
/// cached multiplies — the returned values and the number of generator
/// draws consumed are bit-identical to xoshiro256::below.
class bounded_draw {
 public:
  template <class Rng>
  std::uint64_t below(Rng& rng, std::uint64_t bound) {
    if (bound <= 1) return 0;  // mirrors below(): no draw consumed
    if (bound != bound_) {
      bound_ = bound;
      fm_ = fastmod64::for_divisor(bound);
      threshold_ = fm_.mod(0 - bound);
    }
    while (true) {
      const std::uint64_t x = rng();
      if (x >= threshold_) return fm_.mod(x);
    }
  }

 private:
  std::uint64_t bound_ = 0;
  std::uint64_t threshold_ = 0;
  fastmod64 fm_;
};

}  // namespace amo
