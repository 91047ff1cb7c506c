// The paper's analytic formulas, shared by tests (as oracles) and benches
// (as comparison columns). Logs are base-2, clamped to >= 1 at degenerate
// parameters (the asymptotic statements assume m >= 2, n >= m).
#pragma once

#include <cstdint>

#include "util/types.hpp"

namespace amo::bounds {

/// Theorem 4.4: E_{KK_beta}(n, m, f) = n - (beta + m - 2), for beta >= m.
/// (Saturates at 0 for degenerate n.)
usize kk_effectiveness(usize n, usize m, usize beta);

/// Theorem 2.1 (Corollary 1 of [26]): E_A(n, m, f) <= n - f for any A.
usize effectiveness_upper(usize n, usize f);

/// Section 2.2's trivial algorithm: split into m groups of n/m, so f
/// start-time crashes strand f groups: E = (m - f) * (n / m).
usize trivial_effectiveness(usize n, usize m, usize f);

/// The prior deterministic algorithm of Kentros et al. [26], quoted in the
/// introduction as (n^{1/log m} - 1)^{log m}. Returns a real number (the
/// formula is asymptotic); log m is ceil(log2 m) clamped to >= 1.
double kkns_effectiveness(usize n, usize m);

/// Theorem 5.6 envelope: n * m * lg n * lg m (the measured/envelope ratio
/// should be bounded by a constant as n and m grow).
double kk_work_envelope(usize n, usize m);

/// Theorem 6.4 work envelope: n + m^{3+eps} * lg n with eps = 1/eps_inv.
double iterative_work_envelope(usize n, usize m, unsigned eps_inv);

/// Theorem 6.4 effectiveness-loss envelope: the paper accounts
/// (2 + 1/eps) * m^2 * lg n * lg m + O(m^2) jobs lost; we use that concrete
/// accounting as the comparison curve.
double iterative_loss_envelope(usize n, usize m, unsigned eps_inv);

/// Lemma 5.5: collisions between p and q at distance d: 2*ceil(n/(m*d)).
usize pair_collision_bound(usize n, usize m, usize dist);

/// Theorem 5.6's aggregate: fewer than 4*(n+1)*lg m collisions in any
/// execution with beta >= 3m^2.
double total_collision_bound(usize n, usize m);

/// Theorem 6.4's optimality range: m <= (n / lg n)^{1/(3+eps)} with
/// eps = 1/eps_inv. Outside it the level sizes degenerate (super-job counts
/// fall below beta = 3m^2), the pipeline passes everything to the final
/// size-1 level and work regresses to plain KK_beta's.
bool iterative_m_in_optimal_range(usize n, usize m, unsigned eps_inv);

}  // namespace amo::bounds
