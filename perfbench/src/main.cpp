// amo_perfbench — runs one benchmark workload and prints its metrics.
//
//   amo_perfbench --workload <kk_solo|replica_sweep|model_por> --seed <n>
//                 --seconds <s> --trace <0|1> --work-dir <dir>
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Human-readable detail goes first; the line before the last is
// "perfbench-counts <json>", the exact counts this (workload, seed) must
// reproduce on every rerun; the last line is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code: 0 when every check held, 1 when one failed (the result is
// still printed), 2 on a usage or set-up error (nothing is printed).
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "exp/report.hpp"
#include "util/parse.hpp"
#include "workloads.hpp"

namespace {

using perfbench::workload_result;

int usage(const char* why) {
  std::fprintf(stderr,
               "amo_perfbench: %s\n"
               "usage: amo_perfbench --workload <name> --seed <n> --seconds "
               "<s> --trace <0|1> --work-dir <dir>\n",
               why);
  return 2;
}

std::string json_string(std::string_view s) {
  return amo::exp::json_writer::str(std::string(s));
}

/// Shortest round-trip decimal: every measured digit survives.
std::string json_number(double v) { return amo::exp::json_writer::num(v); }

void print_result(std::string_view workload, std::uint64_t seed, bool trace,
                  const workload_result& r) {
  std::printf("workload %s  seed %llu  %s\n", std::string(workload).c_str(),
              static_cast<unsigned long long>(seed),
              trace ? "traced (per-layer metrics)" : "untraced (end-to-end metrics)");
  for (const perfbench::metric_value& m : r.metrics) {
    std::printf("  %-28s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& n : r.notes) std::printf("  %s\n", n.c_str());
  std::printf("  operations attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const std::string& p : r.problems) std::printf("  FAILED: %s\n", p.c_str());

  std::string counts = "{\"workload\": " + json_string(workload) +
                       ", \"seed\": " + std::to_string(seed) + ", \"counts\": {";
  for (std::size_t i = 0; i < r.fingerprint.size(); ++i) {
    if (i > 0) counts += ", ";
    counts += json_string(r.fingerprint[i].first) + ": " +
              std::to_string(r.fingerprint[i].second);
  }
  std::printf("perfbench-counts %s}}\n", counts.c_str());

  std::string out = std::string("{\"correct\": ") +
                    (r.correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::metric_value& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf("%s}}\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string work_dir;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  std::uint64_t trace = 2;
  bool have_seed = false;
  if (argc % 2 == 0) return usage("every option takes one value");
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string_view value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--work-dir") {
      work_dir = value;
    } else if (key == "--seed") {
      have_seed = amo::parse_u64(value, seed);
      if (!have_seed) return usage("--seed takes a non-negative integer");
    } else if (key == "--seconds") {
      if (!amo::parse_u64(value, seconds) || seconds == 0) {
        return usage("--seconds takes a positive integer");
      }
    } else if (key == "--trace") {
      if (!amo::parse_u64(value, trace) || trace > 1) {
        return usage("--trace takes 0 or 1");
      }
    } else {
      return usage(("unknown option " + std::string(key)).c_str());
    }
  }
  if (workload.empty() || work_dir.empty() || !have_seed || seconds == 0 ||
      trace > 1) {
    return usage("--workload, --seed, --seconds, --trace and --work-dir are required");
  }
  perfbench::workload_options opt;
  opt.seed = seed;
  opt.seconds = static_cast<double>(seconds);
  opt.trace = trace == 1;
  opt.work_dir = work_dir;
  try {
    const workload_result r = perfbench::run_workload(workload, opt);
    const std::vector<perfbench::metric_def>& defs =
        opt.trace ? perfbench::per_layer_metrics() : perfbench::end_to_end_metrics();
    bool as_declared = r.metrics.size() == defs.size();
    for (std::size_t i = 0; as_declared && i < defs.size(); ++i) {
      as_declared = r.metrics[i].name == defs[i].name && r.metrics[i].unit == defs[i].unit;
    }
    if (!as_declared) {
      std::fprintf(stderr, "amo_perfbench: %s metrics differ from their declared list\n",
                   opt.trace ? "per-layer" : "end-to-end");
      return 2;
    }
    print_result(workload, seed, opt.trace, r);
    std::fflush(stdout);
    return r.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amo_perfbench: %s\n", e.what());
    return 2;
  }
}
