#include "analysis/bounds.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "util/math.hpp"

namespace amo::bounds {

usize kk_effectiveness(usize n, usize m, usize beta) {
  const usize loss = beta + m - 2;
  return n > loss ? n - loss : 0;
}

usize effectiveness_upper(usize n, usize f) { return n > f ? n - f : 0; }

usize trivial_effectiveness(usize n, usize m, usize f) {
  return (m - f) * (n / m);
}

namespace {

/// x^e, or nullopt when it does not fit 64 bits.
std::optional<std::uint64_t> checked_pow(std::uint64_t x, std::uint64_t e) {
  std::uint64_t r = 1;
  for (std::uint64_t i = 0; i < e; ++i) {
    if (x != 0 && r > std::numeric_limits<std::uint64_t>::max() / x) {
      return std::nullopt;
    }
    r *= x;
  }
  return r;
}

}  // namespace

double kkns_effectiveness(usize n, usize m) {
  const std::uint64_t h = clamped_log2(m);
  const double per_level =
      std::pow(static_cast<double>(n), 1.0 / static_cast<double>(h));
  // pow's root is inexact (4096^(1/3) comes out below 16), so a perfect
  // power is recognized by its rounded integer root and evaluated exactly.
  const auto root = static_cast<std::uint64_t>(std::llround(per_level));
  if (root >= 1 && checked_pow(root, h) == std::uint64_t{n}) {
    return static_cast<double>(*checked_pow(root - 1, h));
  }
  if (per_level <= 1.0) return 0.0;
  return std::pow(per_level - 1.0, static_cast<double>(h));
}

double kk_work_envelope(usize n, usize m) {
  return static_cast<double>(n) * static_cast<double>(m) *
         static_cast<double>(clamped_log2(n)) *
         static_cast<double>(clamped_log2(m));
}

double iterative_work_envelope(usize n, usize m, unsigned eps_inv) {
  const double eps = 1.0 / static_cast<double>(eps_inv == 0 ? 1 : eps_inv);
  return static_cast<double>(n) +
         std::pow(static_cast<double>(m), 3.0 + eps) *
             static_cast<double>(clamped_log2(n));
}

double iterative_loss_envelope(usize n, usize m, unsigned eps_inv) {
  // Theorem 6.4's accounting: <= (m-1)*m*lg n*lg m jobs stranded in TRY sets
  // at the first level, strictly less than that per loop iteration (there
  // are 1/eps of them), plus 3m^2+m-2 jobs from the final level.
  const double inv = static_cast<double>(eps_inv == 0 ? 1 : eps_inv);
  const double lost_per_level = static_cast<double>(m) * static_cast<double>(m - 1) *
                                static_cast<double>(clamped_log2(n)) *
                                static_cast<double>(clamped_log2(m));
  return (1.0 + inv) * lost_per_level + lost_per_level +
         (3.0 * static_cast<double>(m) * static_cast<double>(m) +
          static_cast<double>(m) - 2.0);
}

usize pair_collision_bound(usize n, usize m, usize dist) {
  return static_cast<usize>(2 * ceil_div(n, m * dist));
}

double total_collision_bound(usize n, usize m) {
  return 4.0 * static_cast<double>(n + 1) * static_cast<double>(clamped_log2(m));
}

bool iterative_m_in_optimal_range(usize n, usize m, unsigned eps_inv) {
  const double eps = 1.0 / static_cast<double>(eps_inv == 0 ? 1 : eps_inv);
  const double limit = std::pow(static_cast<double>(n) /
                                    static_cast<double>(clamped_log2(n)),
                                1.0 / (3.0 + eps));
  return static_cast<double>(m) <= limit;
}

}  // namespace amo::bounds
