// The benchmark's three workloads and the metrics they report.
//
//   kk_solo        one KK_beta run, n = 2^20, m = beta = 16, f = 0, under
//                  the seeded random adversary, through exp::run. sim, core
//                  and sets do nearly all the work on a ~2 MB FREE working
//                  set; its one report takes the record path.
//   replica_sweep  kk/random+crash kk/stale_view iterative/random+crash
//                  wa/random+crash at n = 256, m = 4, 32 seeds x 64 replicas
//                  (8,192 units), run as 8 shard jobs one after another
//                  (a closed loop with one client) through svc::execute_job
//                  on one persistent pool, each shard rendered as .amoc,
//                  written, then streamed through exp::merge_stream.
//   model_por      model::explore_por on n = 5, m = 3, beta = 3, f = 2
//                  (614,727 states) with the frontier on the pool, through
//                  exp::run_por. It has no adversary, so it ignores the seed.
//
// An untraced run reports the end-to-end metrics; a traced run reports the
// per-layer ones. Both check every output and count failed operations.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct metric_def {
  const char* name;
  const char* unit;
};

/// Every end-to-end metric, in BENCHMARK.json order.
[[nodiscard]] const std::vector<metric_def>& end_to_end_metrics();
/// Every per-layer metric, in BENCHMARK.json order.
[[nodiscard]] const std::vector<metric_def>& per_layer_metrics();
[[nodiscard]] const std::vector<std::string>& workload_names();

struct workload_options {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement window
  bool trace = false;
  std::string work_dir;   ///< scratch directory for .amoc artifacts
};

struct metric_value {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct workload_result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< one line per failed check
  std::vector<metric_value> metrics;
  /// Exact counts that must repeat bit-identically for a (workload, seed).
  std::vector<std::pair<std::string, std::uint64_t>> fingerprint;
  std::vector<std::string> notes;     ///< human-readable detail lines

  [[nodiscard]] bool correct() const { return failed == 0 && problems.empty(); }
};

/// Runs one workload. Throws std::invalid_argument for an unknown name.
[[nodiscard]] workload_result run_workload(std::string_view name,
                                           const workload_options& opt);

}  // namespace perfbench
