// amo_lab — the experiment-engine command line.
//
//   amo_lab list
//       List every registered scenario with its description.
//
//   amo_lab run <scenario> [options]
//       Expand one scenario into cells and run them on the sweep pool.
//
//   amo_lab sweep [scenario ...] [options]
//       Run several scenarios (all of them when none are named) as one
//       sweep. With --shard=i/k, run only the cells whose global index is
//       congruent to i modulo k; the emitted records carry their global
//       "cell" index, so `amo_lab merge` can reassemble the k shard files
//       into the byte-identical equivalent of the unsharded sweep.
//
//   amo_lab merge <shard ...> --out=FILE
//       Recombine shard outputs (JSON or .amoc, sniffed per file) as a
//       STREAMING fold: .amoc shards are read chunk by chunk, so the merge
//       holds one head record per shard plus one cell's replicas — never a
//       full-sweep record vector. Verifies the shards agree on the grid
//       and cover every unit exactly once (no duplicate, no gap) and
//       writes the merged array (stdout when --out is absent). With
//       --manifest=FILE the shard list comes from a dispatch manifest
//       instead: the merge waits up to --wait-s for a complete
//       checkpointed set, re-verifies every file's content hash, then
//       folds the files the manifest names.
//
//   amo_lab convert <in> <out>
//       Rewrite a record file in the other encoding (or the one --format
//       names). Conversion is lossless both ways: every raw token
//       round-trips, so converting a .amoc artifact to JSON reproduces
//       the exact bytes the JSON sweep would have written, and
//       convert(convert(x)) == x.
//
//   amo_lab diff <baseline> <candidate> [--tol=T]
//       Compare two record files cell by cell (amo_lab sweeps or any
//       BENCH_*.json; each side may be JSON or .amoc, sniffed) and
//       classify every change; see exit status below.
//
//   amo_lab serve [--jobs=FIFO] [options]
//       Run as a resident service: one persistent worker pool, job lines
//       read from --jobs (a FIFO or file) or stdin as they arrive, per-job
//       sweep JSON written to each job's out= path (stdout otherwise).
//       On a FIFO the server reopens after each writer session instead of
//       exiting at EOF (--once restores drain-one-session). See
//       docs/batch_format.md for the job-line grammar.
//
//   amo_lab submit <scenario ...> [options] [--to=FIFO]
//       Validate a job and append its canonical job line to --to (stdout
//       when absent) — the producer half of `amo_lab serve`.
//
//   amo_lab batch <file> [options]
//       Parse a whole batch file up front (rejecting malformed lines and
//       duplicate out= paths), then drain every job onto one persistent
//       pool. Per-job output is byte-identical to running the equivalent
//       `amo_lab run`/`sweep` standalone.
//
//   amo_lab dispatch --shards=k [scenario ...] [options]
//       Partition the sweep into k shards, launch each as a subprocess of
//       this binary (or anything else via --command), wait, merge the
//       shard files, and write the merged records to --out (colfmt when
//       --format=colfmt or --out ends in ".amoc"; the shard files then
//       travel as .amoc too). With --no-timing the result is
//       byte-identical to the one-shot sweep — in either encoding.
//
//   amo_lab stats <trace.json>
//       Summarise a --trace-out trace: a per-stage table (span counts,
//       total/mean/p50/p95/max durations) plus counters, and with --out a
//       machine-readable summary JSON (docs/observability.md).
//
//   amo_lab help
//       This text, on stdout, exit 0 (also --help / -h).
//
// Options (run/sweep/serve/submit/batch/dispatch):
//   --n=N --m=M --beta=B --eps=K     scenario parameters (sizes, 1/eps)
//   --seed=S --seeds=R               first adversary seed / seed variants
//   --replicas=R                     deterministic replicas per cell: every
//                                    cell runs R times under splitmix-derived
//                                    seeds and reports distribution aggregates
//                                    (min/mean/max/stddev/p50/p95)
//   --pool=P                         sweep workers (0 = hardware, 1 = serial)
//   --shard=i/k                      run shard i of k over the replica-
//                                    expanded unit space (0 <= i < k)
//   --scheduled-only                 drop os_threads cells (hardware-timed,
//                                    so not byte-reproducible across runs)
//   --out=FILE                       write the unified records to FILE
//   --format=json|colfmt             output encoding; without it, an --out
//                                    (or convert destination) ending in
//                                    ".amoc" selects the columnar binary
//                                    format (docs/record_format.md)
//   --no-timing                      omit wall_seconds from JSON (makes
//                                    identical executions byte-identical)
//   --trace-out=FILE                 record a Chrome-trace-event timeline
//                                    (spans + counters across svc/pool/
//                                    sweep/dispatch/merge, Perfetto-
//                                    loadable) and write it to FILE on
//                                    exit; strictly out-of-band — record
//                                    output stays byte-identical
//   --check                          additionally run the sweep serially and
//                                    verify pooled results are bit-identical;
//                                    prints the speedup
//   --quiet                          suppress the per-cell table
// Options (serve/submit):
//   --jobs=FILE                      serve: read job lines from FILE/FIFO
//   --once                           serve: exit at the first EOF even on
//                                    a FIFO (default: stay resident)
//   --heartbeat-s=T                  serve: log a progress line every T
//                                    seconds, flagging jobs whose unit
//                                    counter stopped moving
//   --stall-s=T                      serve: deadline action — when a job's
//                                    unit counter has not moved for T
//                                    seconds, cancel the pool batch and
//                                    fail the job with the timeout class
//   --to=FILE                        submit: append the job line to FILE
// Options (dispatch):
//   --shards=K                       number of shard subprocesses
//   --retries=R                      re-launch a hard-failed shard up to R
//                                    times (the partition is deterministic,
//                                    so only the failed slice reruns)
//   --deadline-s=T                   wall-clock deadline per shard attempt;
//                                    on expiry the shard's process group is
//                                    SIGTERMed, then SIGKILLed, and the
//                                    attempt counts as a hard failure
//   --inject=SPEC                    deterministic fault injection (see
//                                    docs/robustness.md): resolve SPEC per
//                                    (shard, attempt) and hand each child
//                                    its action via AMO_FAULT
//   --resume                         adopt completed shards from the
//                                    manifest a failed dispatch left behind
//                                    (content-hash + slice verified);
//                                    relaunch only the rest
//   --command=TEMPLATE               launch template; placeholders {self}
//                                    {args} {shard} {out} (default
//                                    "{self} {args} --shard={shard} --out={out}")
//   --dir=D                          directory for the shard files
//   --keep-shards                    do not delete the per-shard files
//                                    (nor the resume manifest)
// Options (merge):
//   --manifest=FILE                  merge the shard files a dispatch
//                                    manifest checkpointed (content-hash
//                                    verified) instead of naming them
//   --wait-s=T                       merge --manifest: poll up to T seconds
//                                    for the manifest to hold a complete
//                                    shard set (a dispatch may still be
//                                    writing it)
// Options (diff):
//   --tol=T                          relative tolerance for work /
//                                    effectiveness drift (default 0.05)
//   --dist-test                      additionally rank-test the per-replica
//                                    metric distributions of every matched
//                                    cell (Mann-Whitney + KS, alpha 0.01);
//                                    a significant shift toward the worse
//                                    side of a gated metric is a regression
//                                    even when every per-replica delta is
//                                    inside --tol
//
// Every record follows the unified flat schema (see docs/json_schema.md):
// exp::report_fields prefixed, for run/sweep output, with the global grid
// position {"cell", "cells_total"}.
//
// Exit status:
//   run/sweep   0 = every cell safe (and --check held); 1 = violation
//   merge       0 = merged; 2 = duplicate/gap/grid mismatch; 3 = I/O, parse
//   convert     0 = converted; 2 = encode failure; 3 = I/O, parse
//   diff        0 = clean or benign drift; 1 = effectiveness/work regression
//               beyond tolerance; 2 = hard failure (new duplicates or
//               livelocks, safety flag flipped, baseline cell missing);
//               3 = I/O, parse
//   serve/batch 0 = every job ran safe; 1 = a safety violation; 2 = a
//               malformed or failing job; 3 = an unwritable out= file
//   dispatch    0 = merged clean; 1 = a shard reported a violation; 2 =
//               launch/merge hard failure; 3 = shard unreadable / merged
//               output unwritable
//   stats       0 = summarised; 3 = trace unreadable or malformed
//   any         2 = usage error (unknown command, unknown scenario, bad flag)
//   any         3 (overriding a 0) = --trace-out file could not be written
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "exp/colfmt.hpp"
#include "exp/diff.hpp"
#include "obs/stats.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_read.hpp"
#include "exp/engine.hpp"
#include "exp/merge.hpp"
#include "exp/record.hpp"
#include "exp/registry.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "exp/sweep.hpp"
#include "svc/dispatcher.hpp"
#include "svc/fault.hpp"
#include "svc/job.hpp"
#include "svc/server.hpp"
#include "svc/worker_pool.hpp"
#include "util/fileio.hpp"
#include "util/parse.hpp"
#include "util/table.hpp"

namespace {

using namespace amo;

struct cli_options {
  exp::scenario_params params;
  usize pool = 0;
  std::string out;
  bool no_timing = false;
  bool check = false;
  bool quiet = false;
  bool scheduled_only = false;
  bool have_shard = false;
  exp::shard_ref shard;
  double tol = 0.05;
  bool dist_test = false;  ///< diff: replica-distribution rank tests
  bool have_format = false;           ///< --format spelled explicitly
  exp::record_format format = exp::record_format::json;
  std::string manifest;  ///< dispatch/merge: manifest path override
  double wait_s = 0;     ///< merge --manifest: poll window for a full set
  std::string jobs;     ///< serve: input FIFO/file
  std::string to;       ///< submit: target FIFO/file
  usize shards = 0;     ///< dispatch: k
  usize retries = 0;    ///< dispatch: re-launches per hard-failed shard
  std::string command;  ///< dispatch: launch template override
  std::string dir = "."; ///< dispatch: shard-file directory
  bool keep_shards = false;
  double deadline_s = 0; ///< dispatch: wall-clock deadline per shard attempt
  std::string inject;    ///< dispatch: fault-injection spec (svc::fault)
  bool resume = false;   ///< dispatch: adopt completed shards from manifest
  double heartbeat_s = 0;///< serve: progress watchdog period
  double stall_s = 0;    ///< serve: watchdog deadline action (cancel batch)
  std::string trace_out; ///< write a Chrome-trace timeline here on exit
  bool once = false;     ///< serve: exit at the first EOF even on a FIFO
  std::vector<std::string> names;  ///< scenario names, or files for merge/diff
};

bool parse_kv(const char* arg, const char* key, const char** value) {
  const usize len = std::strlen(key);
  if (std::strncmp(arg, key, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

/// Parses a count flag's value with the job-line grammar's checked parser
/// (util/parse.hpp): a non-negative decimal that fits T, nothing else.
template <class T>
bool parse_count(const char* flag, const char* v, T& out) {
  std::uint64_t x = 0;
  if (!parse_u64(v, x) || x > std::numeric_limits<T>::max()) {
    std::fprintf(stderr, "bad %s value '%s' (want a non-negative integer)\n",
                 flag, v);
    return false;
  }
  out = static_cast<T>(x);
  return true;
}

bool parse_args(int argc, char** argv, int first, cli_options& opt) {
  for (int i = first; i < argc; ++i) {
    const char* a = argv[i];
    const char* v = nullptr;
    bool count_ok = true;
    // Matches `a` against one count flag, parsing its value on a match.
    const auto count = [&](const char* flag, auto& out) {
      if (!parse_kv(a, flag, &v)) return false;
      count_ok = parse_count(flag, v, out);
      return true;
    };
    if (count("--n", opt.params.n) || count("--m", opt.params.m) ||
        count("--beta", opt.params.beta) ||
        count("--eps", opt.params.eps_inv) ||
        count("--seed", opt.params.seed) ||
        count("--seeds", opt.params.seeds) ||
        count("--replicas", opt.params.replicas) ||
        count("--retries", opt.retries) || count("--pool", opt.pool) ||
        count("--shards", opt.shards)) {
      if (!count_ok) return false;
    } else if (parse_kv(a, "--shard", &v)) {
      if (!exp::parse_shard(v, opt.shard)) {
        std::fprintf(stderr, "bad shard '%s': want i/k with 0 <= i < k\n", v);
        return false;
      }
      opt.have_shard = true;
    } else if (parse_kv(a, "--tol", &v)) {
      char* end = nullptr;
      opt.tol = std::strtod(v, &end);
      if (end == v || *end != '\0' || opt.tol < 0) {
        std::fprintf(stderr, "bad tolerance '%s'\n", v);
        return false;
      }
    } else if (parse_kv(a, "--deadline-s", &v)) {
      char* end = nullptr;
      opt.deadline_s = std::strtod(v, &end);
      if (end == v || *end != '\0' || opt.deadline_s < 0) {
        std::fprintf(stderr, "bad deadline '%s' (want seconds >= 0)\n", v);
        return false;
      }
    } else if (parse_kv(a, "--heartbeat-s", &v)) {
      char* end = nullptr;
      opt.heartbeat_s = std::strtod(v, &end);
      if (end == v || *end != '\0' || opt.heartbeat_s < 0) {
        std::fprintf(stderr, "bad heartbeat '%s' (want seconds >= 0)\n", v);
        return false;
      }
    } else if (parse_kv(a, "--stall-s", &v)) {
      char* end = nullptr;
      opt.stall_s = std::strtod(v, &end);
      if (end == v || *end != '\0' || opt.stall_s < 0) {
        std::fprintf(stderr, "bad stall '%s' (want seconds >= 0)\n", v);
        return false;
      }
    } else if (parse_kv(a, "--trace-out", &v)) {
      opt.trace_out = v;
    } else if (parse_kv(a, "--inject", &v)) {
      opt.inject = v;
    } else if (parse_kv(a, "--format", &v)) {
      if (std::strcmp(v, "json") == 0) {
        opt.format = exp::record_format::json;
      } else if (std::strcmp(v, "colfmt") == 0) {
        opt.format = exp::record_format::colfmt;
      } else {
        std::fprintf(stderr, "bad format '%s' (want json or colfmt)\n", v);
        return false;
      }
      opt.have_format = true;
    } else if (parse_kv(a, "--manifest", &v)) {
      opt.manifest = v;
    } else if (parse_kv(a, "--wait-s", &v)) {
      char* end = nullptr;
      opt.wait_s = std::strtod(v, &end);
      if (end == v || *end != '\0' || opt.wait_s < 0) {
        std::fprintf(stderr, "bad wait '%s' (want seconds >= 0)\n", v);
        return false;
      }
    } else if (std::strcmp(a, "--resume") == 0) {
      opt.resume = true;
    } else if (parse_kv(a, "--out", &v)) {
      opt.out = v;
    } else if (parse_kv(a, "--jobs", &v)) {
      opt.jobs = v;
    } else if (parse_kv(a, "--to", &v)) {
      opt.to = v;
    } else if (parse_kv(a, "--command", &v)) {
      opt.command = v;
    } else if (parse_kv(a, "--dir", &v)) {
      opt.dir = v;
    } else if (std::strcmp(a, "--keep-shards") == 0) {
      opt.keep_shards = true;
    } else if (std::strcmp(a, "--dist-test") == 0) {
      opt.dist_test = true;
    } else if (std::strcmp(a, "--once") == 0) {
      opt.once = true;
    } else if (std::strcmp(a, "--no-timing") == 0) {
      opt.no_timing = true;
    } else if (std::strcmp(a, "--scheduled-only") == 0) {
      opt.scheduled_only = true;
    } else if (std::strcmp(a, "--check") == 0) {
      opt.check = true;
    } else if (std::strcmp(a, "--quiet") == 0) {
      opt.quiet = true;
    } else if (a[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", a);
      return false;
    } else {
      opt.names.emplace_back(a);
    }
  }
  return true;
}

void usage(std::FILE* to) {
  std::fputs(
      "usage: amo_lab <command> [args] [options]\n"
      "\n"
      "commands:\n"
      "  list                           registered scenarios + descriptions\n"
      "  run <scenario ...>             expand + run the named scenarios\n"
      "  sweep [scenario ...]           run many scenarios (default: all);\n"
      "                                 --shard=i/k runs slice i of a k-way\n"
      "                                 partition (cells with index = i mod k)\n"
      "  merge <shard ...>              recombine shard outputs, JSON or .amoc\n"
      "                                 (byte-identical to the unsharded sweep;\n"
      "                                 duplicate/gap detection; streamed cell\n"
      "                                 by cell in bounded memory); with\n"
      "                                 --manifest=FILE [--wait-s=T], merge the\n"
      "                                 hash-verified shard set a dispatch\n"
      "                                 manifest checkpointed\n"
      "  convert <in> <out>             rewrite a record file in the other\n"
      "                                 encoding (lossless both ways; --format\n"
      "                                 overrides the extension inference)\n"
      "  diff <base.json> <cand.json>   classify changes cell-by-cell; exits\n"
      "                                 1 on work/effectiveness regression\n"
      "                                 beyond --tol, 2 on new duplicates/\n"
      "                                 livelocks or missing cells; --dist-test\n"
      "                                 adds per-replica rank tests (MW + KS)\n"
      "  serve [--jobs=FIFO]            resident service: persistent pool,\n"
      "                                 job lines in, per-job JSON out\n"
      "  submit <scenario ...>          append a canonical job line to --to\n"
      "  batch <file>                   run a batch file of jobs on one\n"
      "                                 persistent pool (docs/batch_format.md)\n"
      "  dispatch --shards=k [...]      launch k shard subprocesses, wait,\n"
      "                                 merge their JSON (--command templates\n"
      "                                 the launch, e.g. over ssh); with\n"
      "                                 --trace-out the children's trace\n"
      "                                 shards are stitched into one timeline\n"
      "  stats <trace.json>             summarise a --trace-out trace: per-\n"
      "                                 stage span table + counters; --out\n"
      "                                 writes a machine-readable summary\n"
      "  help                           this text\n"
      "\n"
      "options: --n=N --m=M --beta=B --eps=K --seed=S --seeds=R\n"
      "         --replicas=R --pool=P --shard=i/k --scheduled-only\n"
      "         --out=FILE --format=json|colfmt --no-timing --check --quiet\n"
      "         --trace-out=FILE (Perfetto-loadable Chrome-trace timeline;\n"
      "         out-of-band: record output stays byte-identical)\n"
      "         --tol=T --dist-test --jobs=FILE\n"
      "         --once --heartbeat-s=T --stall-s=T (cancel a stalled batch\n"
      "         and fail the job as a timeout) --to=FILE --shards=K\n"
      "         --retries=R\n"
      "         --deadline-s=T --inject=SPEC --resume --command=TEMPLATE\n"
      "         --dir=D --keep-shards --manifest=FILE --wait-s=T\n",
      to);
}

int cmd_list(const cli_options& opt) {
  if (!opt.names.empty()) {
    std::fprintf(stderr, "list takes no scenario arguments\n");
    return 2;
  }
  text_table t({"scenario", "description"});
  for (const exp::scenario& s : exp::scenario_registry()) {
    t.add_row({s.name, s.description});
  }
  std::fputs(t.render().c_str(), stdout);
  std::printf("%zu scenarios. Run one with: amo_lab run <scenario>\n",
              exp::scenario_registry().size());
  return 0;
}

void print_reports(const std::vector<exp::run_report>& reports) {
  text_table t({"scenario", "driver", "adversary", "seed", "n", "m",
                "effectiveness", "work", "collisions", "safe?"});
  for (const exp::run_report& r : reports) {
    t.add_row({r.label, exp::to_string(r.driver), r.adversary,
               std::to_string(r.seed), fmt_count(r.n), fmt_count(r.m),
               fmt_count(r.effectiveness), fmt_count(r.total_work.total()),
               fmt_count(r.total_collisions), r.at_most_once ? "yes" : "NO"});
  }
  std::fputs(t.render().c_str(), stdout);
}

/// Builds the job a run/sweep/submit/dispatch invocation describes. The
/// CLI and the batch/serve service execute the identical structure, which
/// is what makes their outputs byte-identical by construction.
svc::job job_from_options(const cli_options& opt) {
  svc::job j;
  j.scenarios = opt.names;
  j.params = opt.params;
  j.scheduled_only = opt.scheduled_only;
  j.no_timing = opt.no_timing;
  j.have_shard = opt.have_shard;
  j.shard = opt.shard;
  j.out = opt.out;
  j.have_format = opt.have_format;
  j.format = opt.format;
  return j;
}

/// The output encoding a command writes: the explicit --format when
/// given, else inferred from the destination path (".amoc" = colfmt).
exp::record_format format_for(const cli_options& opt, const std::string& path) {
  return opt.have_format ? opt.format : exp::format_for_path(path);
}

const char* format_name(exp::record_format f) {
  return f == exp::record_format::colfmt ? "colfmt" : "json";
}

int run_job(const svc::job& j, const cli_options& opt) {
  svc::worker_pool pool(opt.pool);
  svc::job_result result = svc::execute_job(j, pool);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.error.c_str());
    return 2;
  }
  if (result.sharded) {
    std::printf("shard %s: %zu of %zu units (%zu cells)\n",
                exp::to_string(j.shard).c_str(), result.runs().size(),
                result.units_total, result.cells_total);
  }

  bool ok = result.safe;
  if (!opt.quiet) print_reports(result.runs());
  std::printf("%zu units (%zu cells) on %zu workers in %.2fs; "
              "at-most-once: %s\n",
              result.runs().size(), result.cells_total, result.pool_used,
              result.wall_seconds, result.safe ? "yes" : "VIOLATED");

  if (opt.check && !result.runs().empty()) {
    svc::worker_pool serial(1);
    const svc::job_result ref = svc::execute_job(j, serial);
    bool identical = ref.ok() && ref.runs().size() == result.runs().size();
    for (usize i = 0; identical && i < ref.runs().size(); ++i) {
      // os_threads cells are inherently non-reproducible; the determinism
      // guarantee covers scheduled cells.
      if (result.runs()[i].driver != exp::driver_kind::scheduled) continue;
      identical = exp::equivalent(ref.runs()[i], result.runs()[i]);
    }
    std::printf("determinism check: pooled vs serial %s; speedup %.2fx\n",
                identical ? "bit-identical" : "MISMATCH",
                result.wall_seconds > 0
                    ? ref.wall_seconds / result.wall_seconds
                    : 0.0);
    ok = ok && identical;
  }

  if (!j.out.empty()) {
    // The fault-aware artifact writer (atomic unless an $AMO_FAULT action
    // fires): this is the single output point a dispatcher-launched shard
    // child writes through, keyed by the shard it owns.
    const std::uint64_t key = j.have_shard ? std::uint64_t{j.shard.index} : 0;
    std::string content;
    std::string werr;
    if (!result.render_output(svc::job_output_format(j), content, werr) ||
        !svc::write_artifact(j.out.c_str(), content, key, werr)) {
      std::fprintf(stderr, "%s\n", werr.c_str());
      return 2;
    }
    std::printf("[%zu records -> %s]\n",
                result.sharded ? result.runs().size() : result.swept.cells.size(),
                j.out.c_str());
  }
  return ok ? 0 : 1;
}

int cmd_run(const cli_options& opt) {
  return run_job(job_from_options(opt), opt);
}

int cmd_sweep(const cli_options& opt) {
  if (!opt.names.empty()) return cmd_run(opt);
  cli_options all = opt;
  for (const exp::scenario& s : exp::scenario_registry()) {
    all.names.push_back(s.name);
  }
  return run_job(job_from_options(all), all);
}

/// The merge exit convention over one streamed error string: read/parse/
/// decode failures (a path-prefixed "line N:"/"offset N:" position, or any
/// "cannot ..." I/O message) keep the old exit 3; everything else is the
/// merge contract itself (duplicate/gap/grid mismatch) at exit 2.
int merge_error_exit(const std::string& e) {
  if (e.rfind("cannot ", 0) == 0) return 3;
  if (e.find(": line ") != std::string::npos) return 3;
  if (e.find(": offset ") != std::string::npos) return 3;
  return 2;
}

int cmd_merge(const cli_options& opt) {
  if (opt.names.empty() && opt.manifest.empty()) {
    std::fprintf(stderr,
                 "merge: name at least one shard file (or --manifest=FILE)\n");
    return 2;
  }
  if (!opt.names.empty() && !opt.manifest.empty()) {
    std::fprintf(stderr, "merge: --manifest replaces the shard file list; "
                         "give one or the other\n");
    return 2;
  }
  const exp::record_format fmt = format_for(opt, opt.out);
  if (fmt == exp::record_format::colfmt && opt.out.empty()) {
    std::fprintf(stderr,
                 "merge: --format=colfmt needs --out=FILE (stdout is text)\n");
    return 2;
  }

  // The streaming fold: shard files (either format, sniffed) are consumed
  // cell by cell, so memory is bounded by shard count — never by sweep
  // size. Only the per-cell AGGREGATES accumulate, for the final render.
  exp::merge_result merged;
  usize shard_count = opt.names.size();
  if (!opt.manifest.empty()) {
    merged = svc::merge_from_manifest(opt.manifest, opt.wait_s, opt.quiet);
  } else {
    std::vector<std::unique_ptr<exp::record_source>> sources;
    sources.reserve(opt.names.size());
    for (const std::string& file : opt.names) {
      sources.push_back(exp::make_file_source(file));
    }
    merged = exp::merge_stream(std::move(sources));
  }
  if (!merged.ok()) {
    std::fprintf(stderr, "amo_lab merge: %s\n", merged.error.c_str());
    return merge_error_exit(merged.error);
  }
  std::string werr;
  if (opt.out.empty()) {
    std::fputs(exp::render_records(merged.records).c_str(), stdout);
  } else {
    std::string content;
    if (!exp::render_records_as(merged.records, fmt, content, werr)) {
      std::fprintf(stderr, "amo_lab merge: %s\n", werr.c_str());
      return 2;
    }
    // Through the fault-aware atomic artifact path, like every other
    // record writer in the stack (key 0: the merged whole).
    if (!svc::write_artifact(opt.out.c_str(), content, 0, werr)) {
      std::fprintf(stderr, "amo_lab merge: %s\n", werr.c_str());
      return 3;
    }
    if (!opt.manifest.empty()) {
      std::printf("[%zu cells via %s -> %s (%s)]\n", merged.records.size(),
                  opt.manifest.c_str(), opt.out.c_str(), format_name(fmt));
    } else {
      std::printf("[%zu cells from %zu shards -> %s (%s)]\n",
                  merged.records.size(), shard_count, opt.out.c_str(),
                  format_name(fmt));
    }
  }
  return 0;
}

int cmd_convert(const cli_options& opt) {
  if (opt.names.size() != 2) {
    std::fprintf(stderr, "convert: need exactly <in> <out>\n");
    return 2;
  }
  // Sniffed load (either format), explicit or path-inferred target
  // encoding. Losslessness is the format layer's contract: every raw
  // token round-trips, so json -> colfmt -> json is byte-identical.
  exp::parse_result parsed = exp::load_records_file(opt.names[0].c_str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "amo_lab convert: %s\n", parsed.error.c_str());
    return 3;
  }
  const exp::record_format fmt = format_for(opt, opt.names[1]);
  std::string werr;
  if (!exp::write_records_file_as(opt.names[1].c_str(), parsed.records, fmt,
                                  werr)) {
    std::fprintf(stderr, "amo_lab convert: %s\n", werr.c_str());
    return werr.rfind("cannot ", 0) == 0 ? 3 : 2;
  }
  if (!opt.quiet) {
    std::printf("[%zu records -> %s (%s)]\n", parsed.records.size(),
                opt.names[1].c_str(), format_name(fmt));
  }
  return 0;
}

int cmd_diff(const cli_options& opt) {
  if (opt.names.size() != 2) {
    std::fprintf(stderr, "diff: need exactly <baseline> <candidate>\n");
    return 2;
  }
  exp::parse_result base = exp::load_records_file(opt.names[0].c_str());
  exp::parse_result cand = exp::load_records_file(opt.names[1].c_str());
  if (!base.ok() || !cand.ok()) {
    std::fprintf(stderr, "amo_lab diff: %s\n",
                 (!base.ok() ? base.error : cand.error).c_str());
    return 3;
  }
  exp::diff_options dopt;
  dopt.tolerance = opt.tol;
  dopt.dist_test = opt.dist_test;
  const exp::diff_report report =
      exp::report_diff(base.records, cand.records, dopt);
  if (!opt.quiet || report.severity != exp::diff_severity::clean) {
    std::fputs(exp::format_diff(report).c_str(), stdout);
  }
  if (!report.ok()) return 2;
  switch (report.severity) {
    case exp::diff_severity::clean:
    case exp::diff_severity::info: return 0;
    case exp::diff_severity::regression: return 1;
    case exp::diff_severity::hard_fail: return 2;
  }
  return 2;
}

int cmd_serve(const cli_options& opt) {
  if (!opt.names.empty()) {
    std::fprintf(stderr, "serve takes no scenario arguments "
                         "(submit jobs over --jobs or stdin)\n");
    return 2;
  }
  // A FIFO reaches EOF whenever its last writer closes; a resident server
  // must survive that and wait for the next submitter, so on a FIFO the
  // serve loop reopens after every drained session (the open blocks until
  // a writer appears). --once keeps the drain-one-session behaviour.
  bool resident = false;
  if (!opt.jobs.empty() && !opt.once) {
    struct stat st {};
    resident = ::stat(opt.jobs.c_str(), &st) == 0 && S_ISFIFO(st.st_mode);
  }
  svc::worker_pool pool(opt.pool);
  svc::server_options sopt;
  sopt.quiet = opt.quiet;
  sopt.heartbeat_s = opt.heartbeat_s;
  sopt.stall_s = opt.stall_s;
  // Tracing implies a machine consumer: heartbeat/stall lines switch to
  // one-line JSON so the log stream is tailable alongside the trace.
  sopt.json_heartbeat = !opt.trace_out.empty();
  std::fprintf(stderr, "amo_lab serve: pool of %zu workers, reading jobs "
                       "from %s%s\n",
               pool.size(), opt.jobs.empty() ? "stdin" : opt.jobs.c_str(),
               resident ? " (FIFO, resident: reopening on EOF)" : "");
  svc::serve_summary sum;
  if (opt.jobs.empty()) {
    sum = svc::serve(std::cin, pool, sopt);
  } else {
    do {
      std::ifstream in(opt.jobs);
      if (!in) {
        std::fprintf(stderr, "serve: cannot open %s\n", opt.jobs.c_str());
        return 3;
      }
      const svc::serve_summary session = svc::serve(in, pool, sopt);
      sum.jobs += session.jobs;
      sum.rejected += session.rejected;
      sum.failed += session.failed;
      sum.timeouts += session.timeouts;
      sum.unsafe += session.unsafe;
      sum.io_errors += session.io_errors;
      if (resident && !opt.quiet) {
        std::fprintf(stderr, "amo_lab serve: session drained (%zu jobs so "
                             "far); waiting for the next writer\n",
                     sum.jobs);
      }
    } while (resident);
  }
  std::fprintf(stderr, "amo_lab serve: %zu jobs (%zu rejected, %zu failed "
                       "of which %zu timeouts, %zu unsafe, %zu I/O errors) "
                       "on %zu pool batches\n",
               sum.jobs, sum.rejected, sum.failed, sum.timeouts, sum.unsafe,
               sum.io_errors, pool.batches_run());
  return sum.exit_code();
}

/// The job fields on which `a` and `b` differ, comma-separated.
std::string differing_fields(const svc::job& a, const svc::job& b) {
  std::string out;
  const auto check = [&out](bool same, const char* field) {
    if (same) return;
    if (!out.empty()) out += ", ";
    out += field;
  };
  check(a.scenarios == b.scenarios, "scenarios");
  check(a.params.n == b.params.n, "n=");
  check(a.params.m == b.params.m, "m=");
  check(a.params.beta == b.params.beta, "beta=");
  check(a.params.eps_inv == b.params.eps_inv, "eps=");
  check(a.params.seed == b.params.seed, "seed=");
  check(a.params.seeds == b.params.seeds, "seeds=");
  check(a.params.replicas == b.params.replicas, "replicas=");
  check(a.scheduled_only == b.scheduled_only, "scheduled-only");
  check(a.no_timing == b.no_timing, "no-timing");
  check(a.have_shard == b.have_shard && a.shard == b.shard, "shard=");
  check(a.out == b.out, "out=");
  check(a.have_format == b.have_format && a.format == b.format, "format=");
  return out;
}

int cmd_submit(const cli_options& opt) {
  if (opt.names.empty()) {
    std::fprintf(stderr, "submit: name at least one scenario (see amo_lab list)\n");
    return 2;
  }
  for (const std::string& name : opt.names) {
    if (exp::find_scenario(name) == nullptr) {
      std::fprintf(stderr, "submit: unknown scenario '%s'\n", name.c_str());
      return 2;
    }
  }
  const svc::job built = job_from_options(opt);
  const std::string line = svc::to_line(built);
  // Round-trip through the parser so a job that serve would reject, or
  // read back as a different job, can never be submitted.
  svc::job parsed;
  bool has_job = false;
  std::string error;
  if (!svc::parse_job_line(line, 1, parsed, has_job, error) || !has_job) {
    std::fprintf(stderr, "submit: %s\n", error.c_str());
    return 2;
  }
  parsed.line = built.line;
  if (parsed != built) {
    std::fprintf(stderr,
                 "submit: the job line reads back as a different job "
                 "(differs in: %s; a value cannot hold whitespace or '#'): "
                 "%s\n",
                 differing_fields(built, parsed).c_str(), line.c_str());
    return 2;
  }
  if (opt.to.empty()) {
    std::printf("%s\n", line.c_str());
    return 0;
  }
  std::FILE* f = std::fopen(opt.to.c_str(), "a");
  if (f == nullptr) {
    std::fprintf(stderr, "submit: cannot open %s\n", opt.to.c_str());
    return 3;
  }
  const bool ok = std::fprintf(f, "%s\n", line.c_str()) > 0;
  if (std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "submit: cannot write %s\n", opt.to.c_str());
    return 3;
  }
  std::fprintf(stderr, "submitted to %s: %s\n", opt.to.c_str(), line.c_str());
  return 0;
}

int cmd_batch(const cli_options& opt) {
  if (opt.names.size() != 1) {
    std::fprintf(stderr, "batch: need exactly one batch file\n");
    return 2;
  }
  svc::job_parse_result parsed = svc::parse_batch_file(opt.names[0].c_str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "amo_lab batch: %s\n", parsed.error.c_str());
    return parsed.error.rfind("cannot ", 0) == 0 ? 3 : 2;
  }
  if (parsed.jobs.empty()) {
    std::fprintf(stderr, "amo_lab batch: %s holds no jobs\n",
                 opt.names[0].c_str());
    return 2;
  }
  svc::worker_pool pool(opt.pool);
  svc::server_options sopt;
  sopt.quiet = opt.quiet;
  const svc::serve_summary sum = svc::run_jobs(parsed.jobs, pool, sopt);
  std::fprintf(stderr, "amo_lab batch: %zu jobs (%zu failed, %zu unsafe, "
                       "%zu I/O errors) on a pool of %zu\n",
               sum.jobs, sum.failed, sum.unsafe, sum.io_errors, pool.size());
  return sum.exit_code();
}

int cmd_dispatch(const cli_options& opt, const char* argv0) {
  if (opt.shards == 0) {
    std::fprintf(stderr, "dispatch: need --shards=k (k >= 1)\n");
    return 2;
  }
  if (opt.have_shard) {
    std::fprintf(stderr, "dispatch: --shard belongs to the child sweeps; "
                         "use --shards=k\n");
    return 2;
  }

  // The child argument string: a canonical `sweep` invocation carrying
  // every knob this process was given, so `dispatch --shards=k X` is the
  // distributed spelling of `sweep X`.
  std::string args = "sweep";
  for (const std::string& name : opt.names) args += " " + name;
  char buf[224];
  std::snprintf(buf, sizeof buf,
                " --n=%zu --m=%zu --beta=%zu --eps=%u --seed=%llu --seeds=%zu"
                " --replicas=%zu --pool=%zu",
                opt.params.n, opt.params.m, opt.params.beta, opt.params.eps_inv,
                static_cast<unsigned long long>(opt.params.seed),
                opt.params.seeds, opt.params.replicas, opt.pool);
  args += buf;
  if (opt.scheduled_only) args += " --scheduled-only";
  if (opt.no_timing) args += " --no-timing";
  args += " --quiet";

  svc::dispatch_options dopt;
  dopt.shards = opt.shards;
  dopt.retries = opt.retries;
  dopt.self = argv0;
  if (!opt.command.empty()) dopt.command = opt.command;
  dopt.dir = opt.dir;
  dopt.out = opt.out;
  dopt.keep_shards = opt.keep_shards;
  dopt.quiet = opt.quiet;
  dopt.deadline_s = opt.deadline_s;
  dopt.inject = opt.inject;
  dopt.resume = opt.resume;
  // Fan the trace out: every child gets its own --trace-out shard, and the
  // dispatcher attaches them to this process's session so the export is one
  // stitched timeline (child i = pid i+1).
  dopt.trace = !opt.trace_out.empty();
  // Shard files and the merged output travel in the same encoding; the
  // children need no extra flag — they infer colfmt from their ".amoc"
  // --out names.
  dopt.format = format_for(opt, opt.out);
  if (dopt.format == exp::record_format::colfmt && opt.out.empty()) {
    std::fprintf(stderr, "dispatch: --format=colfmt needs --out=FILE "
                         "(stdout is text)\n");
    return 2;
  }

  const svc::dispatch_result result = svc::dispatch(args, dopt);
  if (!result.ok()) {
    std::fprintf(stderr, "amo_lab dispatch: %s\n", result.error.c_str());
    for (const svc::shard_run& run : result.shards) {
      if (run.exit_code != 0 && !run.output.empty()) {
        std::fprintf(stderr, "--- shard %s output ---\n%s\n",
                     exp::to_string(run.shard).c_str(), run.output.c_str());
      }
    }
    return result.exit_code;
  }
  if (opt.out.empty()) {
    std::fputs(exp::render_records(result.merged).c_str(), stdout);
  } else {
    std::printf("[%zu cells from %zu shards -> %s]\n", result.merged.size(),
                result.shards.size(), opt.out.c_str());
  }
  return result.exit_code;
}

int cmd_stats(const cli_options& opt) {
  if (opt.names.size() != 1) {
    std::fprintf(stderr, "stats: need exactly one trace file (--trace-out "
                         "output)\n");
    return 2;
  }
  const obs::trace_parse_result parsed =
      obs::parse_trace_file(opt.names[0].c_str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "amo_lab stats: %s\n", parsed.error.c_str());
    return 3;
  }
  const obs::trace_summary sum =
      obs::summarize_trace(parsed.events, parsed.dropped);
  if (!opt.quiet) std::fputs(obs::render_summary_table(sum).c_str(), stdout);
  if (!opt.out.empty()) {
    std::string werr;
    if (!svc::write_artifact(opt.out.c_str(),
                             obs::render_summary_json(sum), 0, werr)) {
      std::fprintf(stderr, "amo_lab stats: %s\n", werr.c_str());
      return 3;
    }
    if (!opt.quiet) {
      std::printf("[%zu stages, %zu counters -> %s]\n", sum.stages.size(),
                  sum.counters.size(), opt.out.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help" || cmd == "-h") {
    usage(stdout);
    return 0;
  }
  cli_options opt;
  if (!parse_args(argc, argv, 2, opt)) {
    usage(stderr);
    return 2;
  }
  // A fault plan in the environment must be well-formed before anything
  // runs: failing hard here beats silently running fault-free under a
  // typo'd chaos spec (env_fault_plan alone would warn and ignore it).
  if (const char* spec = std::getenv("AMO_FAULT");
      spec != nullptr && *spec != '\0') {
    svc::fault_plan plan;
    std::string error;
    if (!svc::parse_fault_plan(spec, plan, error)) {
      std::fprintf(stderr, "amo_lab: bad AMO_FAULT spec: %s\n", error.c_str());
      return 2;
    }
  }
  // --trace-out arms the process-wide telemetry session around the whole
  // command ("stats" only reads traces, so it never records one). Probes
  // everywhere else in the stack are branch-on-null: without this session
  // they cost one relaxed pointer load.
  std::unique_ptr<obs::session> trace;
  if (!opt.trace_out.empty() && cmd != "stats") {
    trace = std::make_unique<obs::session>();
    obs::set_thread_name("main");
  }

  int rc = 2;
  bool known = true;
  try {
    if (cmd == "list") {
      rc = cmd_list(opt);
    } else if (cmd == "run") {
      if (opt.names.empty()) {
        std::fprintf(stderr, "run: name at least one scenario (see amo_lab list)\n");
        return 2;
      }
      rc = cmd_run(opt);
    } else if (cmd == "sweep") {
      rc = cmd_sweep(opt);
    } else if (cmd == "merge") {
      rc = cmd_merge(opt);
    } else if (cmd == "convert") {
      rc = cmd_convert(opt);
    } else if (cmd == "diff") {
      rc = cmd_diff(opt);
    } else if (cmd == "serve") {
      rc = cmd_serve(opt);
    } else if (cmd == "submit") {
      rc = cmd_submit(opt);
    } else if (cmd == "batch") {
      rc = cmd_batch(opt);
    } else if (cmd == "dispatch") {
      rc = cmd_dispatch(opt, argv[0]);
    } else if (cmd == "stats") {
      rc = cmd_stats(opt);
    } else {
      known = false;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amo_lab: %s\n", e.what());
    return 2;
  }
  if (!known) {
    std::fprintf(stderr, "amo_lab: unknown command '%s'\n", cmd.c_str());
    usage(stderr);
    return 2;
  }

  if (trace != nullptr && trace->installed()) {
    obs::export_options eopt;
    eopt.process_name = "amo_lab " + cmd;
    if (opt.have_shard) {
      eopt.process_name += " shard=" + exp::to_string(opt.shard);
    }
    std::string werr;
    if (obs::export_file(trace->sink(), opt.trace_out.c_str(), eopt, werr)) {
      if (!opt.quiet) {
        std::fprintf(stderr, "amo_lab: trace -> %s\n", opt.trace_out.c_str());
      }
    } else {
      std::fprintf(stderr, "amo_lab: %s\n", werr.c_str());
      if (rc == 0) rc = 3;
    }
  }
  return rc;
}
