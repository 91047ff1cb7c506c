// Word-parallel bit kernels for the free-set engine: in-word select via
// PDEP (BMI2) with a portable broadword fallback.
//
// select_in_word(x, k) returns the 0-based position of the k-th (1-based,
// counting from the LSB) set bit of x. On BMI2 hardware the whole query is
// two instructions: PDEP deposits a single bit at the k-th set position of
// the mask, and TZCNT reads its index — branch-free and data-independent.
// The fallback is the classic broadword select (Vigna, "Broadword
// implementation of rank/select queries", WEA 2008): SWAR byte popcounts,
// a parallel >= comparison to find the byte, then a 2 KiB constexpr table
// for the in-byte select.
//
// Neither path charges the op_counter: callers account the paper's semantic
// cost (the clear-lowest-bit walk this replaces) arithmetically, so charged
// work is identical to the reference implementation while wall-clock is not.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>

#include "util/types.hpp"

#if defined(__BMI2__)
#include <immintrin.h>
#define AMO_HAS_PDEP 1
#endif

namespace amo::bits {

namespace detail {

constexpr std::array<std::uint8_t, 2048> make_select_in_byte() {
  std::array<std::uint8_t, 2048> table{};
  for (unsigned byte = 0; byte < 256; ++byte) {
    for (unsigned r = 0; r < 8; ++r) {
      unsigned seen = 0;
      unsigned pos = 0;
      for (unsigned i = 0; i < 8; ++i) {
        if (((byte >> i) & 1u) != 0 && seen++ == r) {
          pos = i;
          break;
        }
      }
      table[byte | (r << 8)] = static_cast<std::uint8_t>(pos);
    }
  }
  return table;
}

/// select_in_byte[b | (r << 8)] = position of the r-th (0-based) set bit of b.
inline constexpr std::array<std::uint8_t, 2048> select_in_byte =
    make_select_in_byte();

}  // namespace detail

/// Portable broadword select: position of the k-th (1-based) set bit of x.
/// Requires 1 <= k <= popcount(x).
inline unsigned select_in_word_portable(std::uint64_t x, unsigned k) {
  assert(k >= 1 && k <= static_cast<unsigned>(std::popcount(x)));
  constexpr std::uint64_t ones_step4 = 0x1111111111111111ull;
  constexpr std::uint64_t ones_step8 = 0x0101010101010101ull;
  constexpr std::uint64_t msbs_step8 = 0x80ull * ones_step8;

  const unsigned r = k - 1;  // 0-based rank
  // SWAR popcount per byte.
  std::uint64_t byte_sums = x - ((x & (0xaull * ones_step4)) >> 1);
  byte_sums = (byte_sums & (3ull * ones_step4)) +
              ((byte_sums >> 2) & (3ull * ones_step4));
  byte_sums = (byte_sums + (byte_sums >> 4)) & (0x0full * ones_step8);
  byte_sums *= ones_step8;  // byte i now holds popcount of bytes 0..i
  // Parallel compare: an MSB flag per byte whose inclusive prefix is <= r;
  // the number of flags is the index of the byte holding the r-th bit.
  const std::uint64_t r_step8 = static_cast<std::uint64_t>(r) * ones_step8;
  const std::uint64_t geq = ((r_step8 | msbs_step8) - byte_sums) & msbs_step8;
  const unsigned place = static_cast<unsigned>(std::popcount(geq)) * 8;
  const unsigned byte_rank =
      r - static_cast<unsigned>(((byte_sums << 8) >> place) & 0xff);
  return place + detail::select_in_byte[((x >> place) & 0xff) | (byte_rank << 8)];
}

#ifdef AMO_HAS_PDEP
/// PDEP select: position of the k-th (1-based) set bit of x. Branch-free.
inline unsigned select_in_word_pdep(std::uint64_t x, unsigned k) {
  assert(k >= 1 && k <= static_cast<unsigned>(std::popcount(x)));
  return static_cast<unsigned>(
      std::countr_zero(_pdep_u64(std::uint64_t{1} << (k - 1), x)));
}
#endif

/// Test-only runtime switch: force the portable path even on BMI2 builds so
/// differential tests can exercise both implementations end to end.
inline bool g_force_portable_select = false;

inline void force_portable_select(bool on) { g_force_portable_select = on; }

/// Dispatching select: PDEP when compiled in (and not overridden), portable
/// broadword otherwise.
inline unsigned select_in_word(std::uint64_t x, unsigned k) {
#ifdef AMO_HAS_PDEP
  if (!g_force_portable_select) return select_in_word_pdep(x, k);
#endif
  return select_in_word_portable(x, k);
}

// ----- charge-model arithmetic and lane-plane (SoA) kernels -----------------
// Shared by bitset_rank_set (one lane) and lane_free_set (R replica lanes of
// the batched engine, words laid out lane-major as words[lane * num_words + w]
// so each lane's bitmap is one contiguous row of the arena plane). Everything
// here is portable scalar code — no ISA assumption beyond the <bit> ops —
// because the batched kernel must run identically on the AMO_ENABLE_SIMD=OFF
// build.

/// Length of the reference Fenwick update chain from word w of a
/// num_words-word array: i = w+1, then i += lowbit(i) while i <= N. This is
/// the exact per-update charge of the reference implementation, in closed
/// form because the chain walk is a serial dependency too slow for the
/// update hot path. Each hop sets the lowest zero bit of i above its lowest
/// set bit (and clears the bits below); the hop stays <= N exactly while
/// that zero bit lies at or below h = msb(i ^ N), the highest bit where i
/// and N differ. So hops = 1 + the number of zero bits of i in
/// (ctz(i), h], and 1 when i = N or that range is empty.
/// Requires w < num_words.
inline usize fenwick_update_hops(usize w, usize num_words) {
  const std::uint64_t i = static_cast<std::uint64_t>(w) + 1;
  const auto lo = static_cast<unsigned>(std::countr_zero(i)) + 1;
  const auto hi = static_cast<unsigned>(
      std::bit_width(i ^ static_cast<std::uint64_t>(num_words)));
  if (hi <= lo) return 1;  // lo <= 63 below, so both shifts are defined
  const std::uint64_t range = (~std::uint64_t{0} >> (64 - hi)) &
                              (~std::uint64_t{0} << lo);
  return 1 + static_cast<usize>(std::popcount(~i & range));
}

/// Fills every lane's bitmap with the full universe: one all-ones pass over
/// the whole plane, then each lane's tail word is masked down to the
/// universe. One contiguous sweep over the arena — the word-parallel bulk
/// initialization R scalar FS::full calls would each redo.
inline void fill_lane_rows_full(std::uint64_t* words, usize num_words,
                                usize lanes, std::uint64_t tail_mask) {
  if (num_words == 0) return;
  for (usize i = 0; i < num_words * lanes; ++i) words[i] = ~std::uint64_t{0};
  for (usize lane = 0; lane < lanes; ++lane) {
    words[lane * num_words + (num_words - 1)] = tail_mask;
  }
}

}  // namespace amo::bits
