#include "sets/lane_free_set.hpp"

#include <algorithm>

#include "util/math.hpp"

namespace amo {

lane_free_arena::lane_free_arena(job_id universe, usize lanes)
    : universe_(universe),
      lanes_(lanes),
      num_words_((static_cast<usize>(universe) + 63) / 64),
      num_sbs_((num_words_ + words_per_sb - 1) / words_per_sb),
      log_floor_(num_words_ == 0 ? 0 : ilog2(num_words_)),
      words_(num_words_ * lanes_, 0),
      sb_count_(num_sbs_ * lanes_, 0),
      count_(lanes_, static_cast<usize>(universe)) {
  assert(lanes_ >= 1);
  if (num_words_ == 0) return;
  const usize tail = static_cast<usize>(universe_) % 64;
  const std::uint64_t tail_mask =
      tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
  bits::fill_lane_rows_full(words_.data(), num_words_, lanes_, tail_mask);
  // Superblock popcounts of the full universe are the same for every lane;
  // compute each value once and broadcast it into every lane's row.
  for (usize sb = 0; sb < num_sbs_; ++sb) {
    const usize w0 = sb * words_per_sb;
    const usize w1 = std::min(w0 + words_per_sb, num_words_);
    usize full_bits = (w1 - w0) * 64;
    if (w1 == num_words_ && tail != 0) full_bits -= 64 - tail;
    for (usize lane = 0; lane < lanes_; ++lane) {
      sb_count_[lane * num_sbs_ + sb] = static_cast<std::uint16_t>(full_bits);
    }
  }
}

}  // namespace amo
