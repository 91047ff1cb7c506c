// Structure-of-arrays FREE sets for the batched replica engine: one arena
// holds R replica lanes of the same universe in a single allocation — a
// words plane (lane-major: lane `l`'s bitmap is the contiguous row
// words[l*num_words .. l*num_words+num_words)), a superblock-count plane,
// and a cardinality array — plus the charge-model log floor shared by every
// lane. The block driver runs one lane to completion at a time (lanes are
// independent), so the contiguous row keeps a lane's hot words in the same
// cache lines a scalar bitmap would use, while the one-pass word-parallel
// initialization amortizes across the block what R scalar runs would each
// redo.
//
// lane_free_set is a non-owning view of one lane satisfying the same
// word_rank_set concept as bitset_rank_set, so kk_process instantiates over
// it unchanged and every word-parallel FREE \ TRY path in rank_select.hpp
// engages identically. The view caches raw pointers into the arena planes
// (no per-access indirection through the arena object). Charged work is the
// point of care: every operation charges exactly what bitset_rank_set
// charges — the closed-form Fenwick hop count for updates, log_floor+1 plus
// rem-1 for select, popcount(word index)+1 for rank — all computed
// arithmetically from the same formulas (the cost model is semantic, not
// representational), so per-replica charged op counts are bit-identical to
// the scalar engine. See docs/batched_kernel.md for the determinism
// argument.
//
// Internal geometry is deliberately lighter than bitset_rank_set's four
// cumulative directories: one non-cumulative u16 popcount per (16-word
// superblock, lane). Updates are O(1) real work (bit flip + one counter)
// instead of 48 masked suffix adds, which is what erases the update-heavy
// gather cost at m >= 32; select/rank scan superblock counters linearly,
// fine for the cell sizes replica sweeps batch (the scan is
// universe/1024 u16 loads, cache-resident alongside the lane's row).
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "sets/word_ops.hpp"
#include "util/op_counter.hpp"
#include "util/types.hpp"

namespace amo {

class lane_free_set;

/// Owns the lane-major word/counter planes for R replica lanes, each
/// starting as the full universe [1..universe]. Views must not outlive the
/// arena, and the arena must not reallocate while views exist (it never
/// does: all planes are sized in the constructor).
class lane_free_arena {
 public:
  lane_free_arena(job_id universe, usize lanes);

  [[nodiscard]] job_id universe() const { return universe_; }
  [[nodiscard]] usize lanes() const { return lanes_; }
  [[nodiscard]] usize num_words() const { return num_words_; }

  /// The word_rank_set view of lane `lane` (0-based).
  [[nodiscard]] lane_free_set view(usize lane);

 private:
  friend class lane_free_set;

  static constexpr usize words_per_sb = 16;

  job_id universe_;
  usize lanes_;
  usize num_words_;
  usize num_sbs_;
  std::uint32_t log_floor_;  // floor(log2(num_words)), charge model
  std::vector<std::uint64_t> words_;      // [lane * num_words + w]
  std::vector<std::uint16_t> sb_count_;   // [lane * num_sbs + sb]
  std::vector<usize> count_;              // [lane]
};

/// One lane of a lane_free_arena. Trivially copyable view holding raw
/// pointers to its lane's rows; satisfies word_rank_set (see
/// sets/rank_select.hpp) with bitset_rank_set's exact charge arithmetic.
class lane_free_set {
 public:
  lane_free_set() = default;
  lane_free_set(lane_free_arena& arena, usize lane)
      : words_(arena.words_.data() + lane * arena.num_words_),
        sb_count_(arena.sb_count_.data() + lane * arena.num_sbs_),
        count_(arena.count_.data() + lane),
        universe_(arena.universe_),
        num_words_(arena.num_words_),
        log_floor_(arena.log_floor_) {
    assert(lane < arena.lanes());
  }

  void set_counter(op_counter* oc) { oc_ = oc; }

  [[nodiscard]] job_id universe() const { return universe_; }
  [[nodiscard]] usize size() const { return *count_; }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] bool contains(job_id x) const {
    charge_units(1);
    if (x < 1 || x > universe_) return false;
    return (words_[(static_cast<usize>(x) - 1) / 64] >> ((x - 1) % 64)) & 1u;
  }

  bool insert(job_id x) {
    assert(x >= 1 && x <= universe_);
    const usize w = (static_cast<usize>(x) - 1) / 64;
    const std::uint64_t mask = std::uint64_t{1} << ((x - 1) % 64);
    if ((words_[w] & mask) != 0) return false;
    words_[w] |= mask;
    ++sb_count_[w / lane_free_arena::words_per_sb];
    ++*count_;
    charge_units(bits::fenwick_update_hops(w, num_words_));  // reference cost
    return true;
  }

  bool erase(job_id x) {
    if (x < 1 || x > universe_) return false;
    const usize w = (static_cast<usize>(x) - 1) / 64;
    const std::uint64_t mask = std::uint64_t{1} << ((x - 1) % 64);
    if ((words_[w] & mask) == 0) return false;
    words_[w] &= ~mask;
    --sb_count_[w / lane_free_arena::words_per_sb];
    --*count_;
    charge_units(bits::fenwick_update_hops(w, num_words_));  // reference cost
    return true;
  }

  [[nodiscard]] job_id select(usize k) const {
    assert(k >= 1 && k <= size());
    // Same bulk charges as bitset_rank_set: one unit per reference Fenwick
    // descent level now, one per bit the reference clear-lowest-bit walk
    // would have visited after the word is found.
    charge_units(log_floor_ + 1);
    usize rem = k;
    usize sb = 0;
    while (true) {
      const usize c = sb_count_[sb];
      if (rem <= c) break;
      rem -= c;
      ++sb;
    }
    usize w = sb * lane_free_arena::words_per_sb;
    while (true) {
      const usize pc = static_cast<usize>(std::popcount(words_[w]));
      if (rem <= pc) break;
      rem -= pc;
      ++w;
    }
    charge_units(rem - 1);
    const unsigned bit = bits::select_in_word(words_[w], static_cast<unsigned>(rem));
    return static_cast<job_id>(w * 64 + bit + 1);
  }

  [[nodiscard]] usize rank_le(job_id x) const {
    if (x == 0) return 0;
    if (x > universe_) x = universe_;
    const usize w = (static_cast<usize>(x) - 1) / 64;
    // Reference cost: popcount(w) Fenwick prefix hops plus the final
    // in-word popcount, charged in bulk — the bitset_rank_set formula.
    charge_units(static_cast<usize>(std::popcount(w)) + 1);
    const usize sb = w / lane_free_arena::words_per_sb;
    usize r = 0;
    for (usize s = 0; s < sb; ++s) r += sb_count_[s];
    for (usize i = sb * lane_free_arena::words_per_sb; i < w; ++i) {
      r += static_cast<usize>(std::popcount(words_[i]));
    }
    const usize bit = (x - 1) % 64;
    const std::uint64_t mask =
        bit == 63 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (bit + 1)) - 1);
    r += static_cast<usize>(std::popcount(words_[w] & mask));
    return r;
  }

  [[nodiscard]] std::vector<job_id> to_vector() const {
    std::vector<job_id> out;
    out.reserve(size());
    for (usize w = 0; w < num_words_; ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const unsigned bit = static_cast<unsigned>(std::countr_zero(bits));
        out.push_back(static_cast<job_id>(w * 64 + bit + 1));
        bits &= bits - 1;
      }
    }
    return out;
  }

  // ----- word_rank_set surface (uncharged; see bitset_rank_set) ----------

  [[nodiscard]] usize num_words() const { return num_words_; }

  [[nodiscard]] std::uint64_t word(usize i) const { return words_[i]; }

  void charge_units(usize n) const {
    if (oc_ != nullptr) oc_->local_ops += n;
  }

 private:
  std::uint64_t* words_ = nullptr;       // this lane's contiguous row
  std::uint16_t* sb_count_ = nullptr;    // this lane's superblock counts
  usize* count_ = nullptr;               // this lane's cardinality
  job_id universe_ = 0;
  usize num_words_ = 0;
  std::uint32_t log_floor_ = 0;
  op_counter* oc_ = nullptr;
};

inline lane_free_set lane_free_arena::view(usize lane) {
  return lane_free_set(*this, lane);
}

}  // namespace amo
