#include "sim/scheduler.hpp"

#include "util/math.hpp"

namespace amo::sim {

usize default_step_limit(usize n, usize m) {
  // Theorem 5.6 bounds total work (hence actions) by O(nm log n log m) for
  // beta >= 3m^2; smaller beta can only reduce collisions' job-progress but
  // actions stay within the same envelope in practice. A x64 safety factor
  // keeps false livelock alarms out while still catching real ones fast.
  const std::uint64_t lg_n = clamped_log2(n == 0 ? 1 : n);
  const std::uint64_t lg_m = clamped_log2(m == 0 ? 1 : m);
  return static_cast<usize>(64 * (n + 16) * (m + 1) * lg_n * lg_m);
}

}  // namespace amo::sim
