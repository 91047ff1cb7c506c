// Per-layer measurements that call one layer's public functions directly:
// set-operation replays, the at-most-once checker, the model checker, and
// the fold of an obs::session's spans and counters.
#pragma once

#include <cstdint>
#include <string>

#include "model/dpor.hpp"
#include "util/types.hpp"

namespace amo::obs {
class telemetry;
}  // namespace amo::obs

namespace amo::svc {
class worker_pool;
}  // namespace amo::svc

namespace perfbench {

/// Op-stream lengths for the sets replay, taken from a traced run's action
/// counts (each is capped by replay_sets).
struct set_op_counts {
  std::uint64_t try_inserts = 0;
  std::uint64_t try_contains = 0;
  std::uint64_t free_selects = 0;
  std::uint64_t free_erases = 0;
  std::uint64_t free_ranks = 0;
};

struct set_costs {
  double try_insert_ns = 0.0;
  double try_contains_ns = 0.0;
  double free_select_ns = 0.0;
  double free_erase_ns = 0.0;
  double free_rank_ns = 0.0;
  std::uint64_t checksum = 0;  ///< folds every result, so none is optimised away
};

/// Times try_set and bitset_rank_set (the default FREE set) on random op
/// streams over the universe [1..n]: TRY holds at most m-1 announcements,
/// FREE starts full. Inputs come from `seed`; every stream is at least 1024
/// and at most 2^20 ops long.
[[nodiscard]] set_costs replay_sets(amo::usize n, amo::usize m,
                                    const set_op_counts& ops,
                                    std::uint64_t seed);

/// Heap bytes the per-process set state of m processes over n jobs
/// occupies: m full FREE sets plus m TRY sets bound to the universe,
/// measured as the allocator's in-use delta while they are alive (chunk
/// headers and page rounding included, so repeated calls agree to within
/// a few percent, not to the byte).
[[nodiscard]] std::uint64_t set_working_set_bytes(amo::usize n, amo::usize m);

/// Mean ns per amo_checker::record over rounds of n performs (a random
/// permutation of the jobs, random performers in 1..m), at least 2^20
/// records in all.
[[nodiscard]] double checker_record_ns(amo::usize n, amo::usize m,
                                       std::uint64_t seed);

struct model_costs {
  amo::model::explore_result result;
  amo::model::por_stats stats;
  double pooled_s = 0.0;  ///< explore_por wall on the pool
  double serial_s = 0.0;  ///< explore_por wall with a serial frontier
};

/// Runs explore_por on `cfg` with the frontier on `pool`, then serially;
/// false when the two disagree on any count or verdict.
[[nodiscard]] bool measure_model(const amo::model::model_config& cfg,
                                 amo::svc::worker_pool& pool, model_costs& out);

/// What a traced pipeline left in its obs::session.
struct trace_fold {
  double unit_span_s = 0.0;  ///< sum of sweep/unit + sweep/replica_block spans
  std::uint64_t steals = 0;  ///< pool/steals samples: one per steal
  std::uint64_t dropped = 0; ///< ring-overflow drops (must be 0 to trust the sums)
  std::string error;
};

[[nodiscard]] trace_fold fold_trace(amo::obs::telemetry& sink);

}  // namespace perfbench
