// Compact order-statistic set: a bitmap of the universe plus a four-level
// hierarchy of popcount counters (per-word bytes, then 16-word, 256-word
// and 4096-word directories).
//
// This is the default FREE-set representation in libamo: ~0.15 bytes per
// universe element (vs ~5 for fenwick_rank_set and ~16 for ostree), which
// matters because every one of the m processes keeps its own FREE view of
// all n jobs. select/rank run as cache-resident counter scans — the group
// and superblock directories are a few hundred bytes, the per-word byte
// counters stream sequentially — followed by a single bitmap load and a
// branch-free in-word select (PDEP on BMI2 hardware, broadword otherwise;
// see word_ops.hpp). Updates touch one word plus three fixed-width counter
// windows, plus a top-level cumulative suffix of length U/2^18 — O(1) for
// any universe the system targets (16 adds at n = 2^22), O(U/262144)
// asymptotically.
//
// Charged work follows the paper's cost model, not the instruction count:
// the structure charges exactly what the reference implementation (a Fenwick
// tree over 64-bit word popcounts, O(log U) per operation) charged — one
// unit per descent level plus one per bit a clear-lowest-bit walk would have
// visited for select, one per Fenwick prefix hop for rank, one per Fenwick
// update hop for insert/erase — all computed arithmetically. Charged totals
// are bit-identical to that reference; only the wall-clock differs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/op_counter.hpp"
#include "util/types.hpp"

namespace amo {

class bitset_rank_set {
 public:
  explicit bitset_rank_set(job_id universe);
  static bitset_rank_set full(job_id universe);
  bitset_rank_set(job_id universe, std::span<const job_id> sorted_members);

  void set_counter(op_counter* oc) { oc_ = oc; }

  [[nodiscard]] job_id universe() const { return universe_; }
  [[nodiscard]] usize size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  [[nodiscard]] bool contains(job_id x) const;
  bool insert(job_id x);
  bool erase(job_id x);
  [[nodiscard]] job_id select(usize k) const;
  [[nodiscard]] usize rank_le(job_id x) const;
  [[nodiscard]] std::vector<job_id> to_vector() const;

  // ----- bulk word accessors for word-parallel callers ------------------
  // word()/num_words()/charge_units() back the FREE \ TRY fast paths in
  // rank_select.hpp; popcount_range is the general-purpose range counter
  // for analysis code and tests.

  /// Number of 64-bit words backing the universe bitmap.
  [[nodiscard]] usize num_words() const { return num_words_; }

  /// Raw bitmap word i (bit b set <=> job i*64 + b + 1 is a member).
  /// Uncharged: callers account the semantic cost themselves.
  [[nodiscard]] std::uint64_t word(usize i) const { return bits_[i]; }

  /// |{y in set : lo <= y <= hi}| via word popcounts; uncharged.
  [[nodiscard]] usize popcount_range(job_id lo, job_id hi) const;

  /// Bulk counter charge for word-parallel callers that replace a charged
  /// per-element walk with word arithmetic: the paper's cost model is
  /// preserved by adding the walk's unit count in one step.
  void charge_units(usize n) const {
    if (oc_ != nullptr) oc_->local_ops += n;
  }

 private:
  // Counter hierarchy geometry: fanout 16 at every level. Each level stores
  // cumulative popcounts *within its parent window*, so a rank query is four
  // O(1) lookups and a select descent is four branchless 16-wide
  // count-of-smaller passes — no data-dependent loop exits anywhere on the
  // query paths. A superblock is 16 words (1024 bits), a group is 16
  // superblocks (16384 bits), a supergroup is 16 groups (262144 bits).
  //
  // Every level is padded to a full window; padding entries hold
  // pad_base + (window total), which keeps the uniform masked suffix-update
  // correct while staying far above any real cumulative value, so padding
  // is never selected.
  static constexpr usize fanout = 16;
  static constexpr usize words_per_sb = fanout;
  static constexpr usize words_per_group = words_per_sb * fanout;
  static constexpr usize words_per_super = words_per_group * fanout;
  static constexpr std::uint16_t pad16 = 0x8000;
  static constexpr std::uint32_t pad32 = 0x80000000u;

  void charge() const {
    if (oc_ != nullptr) ++oc_->local_ops;
  }

  /// Single-pass rebuild of the cumulative counters from bits_; asserts the
  /// counter total matches count_ in debug builds.
  void rebuild_counts();

  /// Applies +1/-1 at word w to all four counter levels (masked fixed-width
  /// suffix updates within each window).
  void apply_delta(usize w, bool add);

  job_id universe_;
  usize count_ = 0;
  usize num_words_;
  std::uint32_t log_floor_;            // floor(log2(num_words)), charge model
  std::vector<std::uint64_t> bits_;    // bit (x-1) set <=> x in set
  std::vector<std::uint16_t> wcum_;    // per word: cumulative pc within superblock
  std::vector<std::uint32_t> sbcum_;   // per superblock: cumulative within group
  std::vector<std::uint32_t> gcum_;    // per group: cumulative within supergroup
  std::vector<std::uint64_t> sgcum_;   // per supergroup: global cumulative
  op_counter* oc_ = nullptr;
};

}  // namespace amo
