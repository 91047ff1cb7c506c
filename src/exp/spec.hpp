// The experiment engine's vocabulary: one `run_spec` describes any single
// execution the repository knows how to produce — algorithm family (KK_beta,
// IterativeKK, WA_IterativeKK) × memory backend (simulated registers vs
// std::atomic) × driver (adversary-scheduled single thread vs real OS
// threads) — and one `run_report` carries everything any caller reads
// back from it.
//
// A spec is a plain value: copyable, comparable-by-field, and sufficient to
// reproduce the execution bit-for-bit when the driver is `scheduled` (all
// randomness flows through adversary seeds). That property is what lets
// exp::sweep run cells on a thread pool in any order and still produce
// byte-identical results.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/kk_process.hpp"
#include "sim/trace.hpp"
#include "util/op_counter.hpp"
#include "util/types.hpp"

namespace amo::exp {

/// Which algorithm the run executes: the paper's three, the comparison
/// baselines, and exhaustive model exploration. Everything a sweep grid can
/// name shares this one axis, so sharded sweeps exercise every executable
/// claim the repo makes.
enum class algo_family : std::uint8_t {
  kk,            ///< plain KK_beta (Sections 3-5)
  iterative,     ///< IterativeKK(eps) (Section 6)
  wa_iterative,  ///< WA_IterativeKK(eps) — Write-All (Section 7)

  // --- baselines (src/baselines/) ---

  /// The prior deterministic algorithm of Kentros, Kiayias, Nicolaou &
  /// Shvartsman (DISC'09, reference [26] of the paper) as a comparison
  /// baseline.
  ///
  /// What we reproduce measurably: the optimal TWO-process building block.
  /// Its structure — each process sweeps from its own end of the job array,
  /// announces before performing, and checks the other's announcement and
  /// done log — is exactly the KK_beta skeleton with a different
  /// candidate-selection rule, so the engine runs it as kk with
  /// selection_rule::two_ends, beta = 1, m = 2 enforced. Lemma 4.1's safety
  /// proof never uses the rank formula, so at-most-once is inherited;
  /// effectiveness is n-1 (only the meeting job can be lost), which tests
  /// verify.
  ///
  /// What we do NOT reconstruct: the m-process tournament composition of
  /// [26]. Its full specification is not contained in the reproduced paper,
  /// and a from-scratch reinvention has subtle announce-staleness hazards
  /// that would risk benchmarking an unfaithful strawman. For m > 2 the
  /// benches plot the effectiveness formula the paper quotes for [26] —
  /// (n^{1/log m} - 1)^{log m} — clearly labeled "analytic"
  /// (bounds::kkns_effectiveness). See DESIGN.md substitution #3.
  ao2,
  tas,               ///< test-and-set executor (RMW, outside the model)
  wa_trivial,        ///< Write-All: everyone writes everything (m*n work)
  wa_split_scan,     ///< Write-All: own block, then help-scan the rest
  wa_progress_tree,  ///< Write-All: W-style advisory count tree

  // --- model checking (src/model/) ---
  model_explore,  ///< exhaustive exploration of EVERY schedule and crash
                  ///< placement (n <= 10, m <= 3); scheduled driver only,
                  ///< the adversary spec is ignored ("exhaustive")
  model_explore_por,  ///< partial-order-reduced exploration (model/dpor):
                      ///< same verdicts as model_explore over a pruned
                      ///< state graph; scheduled driver only
};

/// What supplies the interleaving.
enum class driver_kind : std::uint8_t {
  scheduled,   ///< the Section 2.1 omniscient adversary over a simulator
  os_threads,  ///< m real threads; hardware supplies the adversary
};

/// The shared-register implementation.
enum class memory_kind : std::uint8_t {
  sim,     ///< sim_memory (single-threaded, scheduled driver only)
  atomic,  ///< atomic_memory (seq_cst std::atomic registers)
};

/// FREE-set representation (the E10 ablation axis; kk family only).
enum class free_set_kind : std::uint8_t { bitset, fenwick, ostree };

[[nodiscard]] const char* to_string(algo_family f);
[[nodiscard]] const char* to_string(driver_kind d);
[[nodiscard]] const char* to_string(memory_kind m);
[[nodiscard]] const char* to_string(free_set_kind f);

/// Inverse of to_string(algo_family) — how text formats (the trace corpus,
/// job files) name an algorithm. False on an unrecognized name, leaving
/// `out` untouched.
[[nodiscard]] bool from_string(std::string_view name, algo_family& out);
[[nodiscard]] bool from_string(std::string_view name, free_set_kind& out);

/// Names an adversary the engine can construct on demand (scheduled driver).
/// Recognized names: every standard_adversaries() label (round_robin,
/// random, random+crash, block4, block64, stale_view), announce_crash, the
/// parameterized forms "random+crash:<num>/<den>", "block:<quantum>" and
/// "stale_view:<leader_actions>", and the prefixed forms
/// "scripted:<trace>" / "replay:<trace>" where <trace> is the sim::trace
/// serialization ("s3 s1 c2 ...").
struct adversary_spec {
  std::string name = "round_robin";
  std::uint64_t seed = 1;

  friend bool operator==(const adversary_spec&, const adversary_spec&) = default;
};

/// Deterministic crash points for the os_threads driver, evaluated at
/// every action boundary: a crash is the paper's stop_p (the thread takes
/// no more actions; an announced job stays stuck in its next register).
struct crash_spec {
  enum class kind : std::uint8_t {
    none,
    /// Thread p crashes once it has executed per_thread[p-1] actions (0, or
    /// p beyond the vector, = never).
    after_actions,
    /// The Theorem 4.4 pattern: threads 1..count crash right after their
    /// first announce. A thread that never announces (a TAS thread that
    /// never wins a claim) never crashes, so count is an upper bound.
    after_first_announce,
  };
  kind what = kind::none;
  std::vector<usize> per_thread;  ///< after_actions
  usize count = 0;                ///< after_first_announce

  friend bool operator==(const crash_spec&, const crash_spec&) = default;
};

/// The complete description of one execution.
struct run_spec {
  std::string label;  ///< free-form tag echoed into reports/JSON

  algo_family algo = algo_family::kk;
  driver_kind driver = driver_kind::scheduled;
  /// Defaulted per driver when left at `sim` with os_threads: the engine
  /// coerces os_threads runs to atomic (sim_memory is not thread-safe).
  memory_kind memory = memory_kind::sim;
  free_set_kind free_set = free_set_kind::bitset;

  usize n = 0;             ///< jobs 1..n
  usize m = 1;             ///< processes/threads
  usize beta = 0;          ///< kk family; 0 means beta = m
  unsigned eps_inv = 1;    ///< iterative families: 1/eps
  selection_rule rule = selection_rule::paper_rank;
  usize crash_budget = 0;  ///< scheduled driver: the paper's f
  usize max_steps = 0;     ///< scheduled driver: 0 = default_step_limit
                           ///< (model_explore: explorer state cap, 0 = default)

  /// Deterministic replicas of this cell: the sweep layer runs the spec
  /// `replicas` times (0 is treated as 1), replica r under the seed
  /// replica_seed(adversary.seed, r), and folds the per-replica reports
  /// into one cell_report (exp/stats.hpp). Replica 0 always runs under the
  /// base seed, so `replicas = 1` reproduces the single-run behaviour
  /// bit-for-bit.
  usize replicas = 1;

  adversary_spec adversary;  ///< scheduled driver
  crash_spec crashes;        ///< os_threads driver
  bool record_trace = false; ///< scheduled driver: capture the decision trace

  friend bool operator==(const run_spec&, const run_spec&) = default;
};

/// The cell's replica count with the 0-means-1 default applied.
[[nodiscard]] inline usize resolved_replicas(const run_spec& s) {
  return s.replicas == 0 ? 1 : s.replicas;
}

/// The adversary seed replica `replica` of a cell runs under. Replica 0
/// keeps the base seed unchanged (so single-replica cells reproduce the
/// pre-replica engine exactly); replicas r >= 1 get splitmix64-derived
/// seeds, a pure function of (base, r) — independent of the cell's position
/// in any grid, so reordering or resharding a sweep never changes a
/// replica's execution.
[[nodiscard]] std::uint64_t replica_seed(std::uint64_t base, usize replica);

/// The single-execution spec replica `replica` of `cell` runs: the cell's
/// spec with the derived adversary seed and replicas = 1.
[[nodiscard]] run_spec replica_spec(const run_spec& cell, usize replica);

/// Everything a test, bench or the CLI needs to know about one finished
/// execution. Fields that do not apply to a given spec keep their defaults
/// (e.g. worst_pair_ratio outside kk×scheduled, wa_* outside write-all).
struct run_report {
  // --- spec echo (resolved values: beta defaulted, memory coerced) ---
  std::string label;
  algo_family algo = algo_family::kk;
  driver_kind driver = driver_kind::scheduled;
  memory_kind memory = memory_kind::sim;
  free_set_kind free_set = free_set_kind::bitset;
  usize n = 0;
  usize m = 0;
  usize beta = 0;
  unsigned eps_inv = 1;
  usize crash_budget = 0;
  std::string adversary;  ///< resolved adversary name ("" for os_threads)
  std::uint64_t seed = 0;

  // --- liveness / scheduling ---
  usize total_steps = 0;  ///< scheduled: scheduler actions; threads: sum of per-thread actions
  usize crashes = 0;      ///< crash decisions honored / threads crashed
  bool quiescent = true;  ///< scheduled: no runnable process left before the step limit
  usize terminated = 0;   ///< processes that reached `end`
  double wall_seconds = 0.0;

  // --- safety / effectiveness ---
  usize effectiveness = 0;   ///< Do(alpha): distinct jobs performed
  usize perform_events = 0;  ///< total do actions; == effectiveness iff no
                             ///< duplicates (write-all families legally exceed it)
  bool at_most_once = true;
  job_id duplicate = no_job;

  // --- work accounting ---
  op_counter total_work;
  std::vector<kk_stats> per_process;  ///< kk family only, index pid-1
  usize total_collisions = 0;
  double worst_pair_ratio = 0.0;  ///< kk × scheduled: vs Lemma 5.5 pair bounds
  usize num_levels = 0;           ///< iterative families

  // --- write-all ---
  bool wa_complete = false;
  usize wa_written = 0;

  // --- trace (record_trace runs only) ---
  sim::trace trace;
};

/// Field-by-field equality over everything deterministic — i.e. everything
/// except wall_seconds and the recorded trace (replay runs reproduce the
/// trace; callers compare it separately when they care). This is the
/// "bit-identical per-cell results" relation the sweep layer guarantees.
[[nodiscard]] bool equivalent(const run_report& a, const run_report& b);

}  // namespace amo::exp
