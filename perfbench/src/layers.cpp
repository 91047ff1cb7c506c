#include "layers.hpp"

#include <malloc.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/amo_checker.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_read.hpp"
#include "sets/bitset_rank_set.hpp"
#include "sets/try_set.hpp"
#include "svc/worker_pool.hpp"
#include "util/prng.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {
namespace {

using amo::job_id;
using amo::usize;

constexpr std::uint64_t min_ops = 1024;
constexpr std::uint64_t max_ops = std::uint64_t{1} << 20;

std::uint64_t stream_length(std::uint64_t traced) {
  return std::clamp(traced, min_ops, max_ops);
}

std::vector<job_id> random_jobs(amo::xoshiro256& rng, usize n,
                                std::uint64_t count) {
  std::vector<job_id> jobs(count);
  for (job_id& j : jobs) j = static_cast<job_id>(rng.below(n) + 1);
  return jobs;
}

/// 1..n in a uniformly random order.
std::vector<job_id> permutation(amo::xoshiro256& rng, usize n) {
  std::vector<job_id> p(n);
  for (usize i = 0; i < n; ++i) p[i] = static_cast<job_id>(i + 1);
  for (usize i = n; i > 1; --i) std::swap(p[i - 1], p[rng.below(i)]);
  return p;
}

double ns_per(double seconds, std::uint64_t ops) {
  return ops == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(ops);
}

bool same_result(const amo::model::explore_result& a,
                 const amo::model::explore_result& b) {
  return a.complete == b.complete && a.states == b.states &&
         a.transitions == b.transitions &&
         a.duplicate_found == b.duplicate_found &&
         a.cycle_found == b.cycle_found &&
         a.lemma62_violated == b.lemma62_violated &&
         a.quiescent_states == b.quiescent_states &&
         a.min_effectiveness == b.min_effectiveness &&
         a.max_effectiveness == b.max_effectiveness &&
         a.max_depth == b.max_depth;
}

bool same_stats(const amo::model::por_stats& a,
                const amo::model::por_stats& b) {
  return a.singleton_states == b.singleton_states &&
         a.full_states == b.full_states && a.sleep_pruned == b.sleep_pruned &&
         a.resumed_states == b.resumed_states &&
         a.peak_frontier == b.peak_frontier && a.layers == b.layers;
}

}  // namespace

set_costs replay_sets(usize n, usize m, const set_op_counts& ops,
                      std::uint64_t seed) {
  amo::xoshiro256 rng(seed);
  set_costs c;
  const usize try_cap = std::max<usize>(1, m - 1);
  const auto universe = static_cast<job_id>(n);

  {  // TRY: clear() then up to m-1 announcements, as every gatherTry round.
    const std::uint64_t len = stream_length(ops.try_inserts);
    const std::vector<job_id> jobs = random_jobs(rng, n, len);
    amo::try_set t;
    t.bind_universe(universe);
    amo::stopwatch clock;
    for (std::uint64_t i = 0; i < len; ++i) {
      if (i % try_cap == 0) t.clear();
      c.checksum += t.insert(jobs[i], static_cast<amo::process_id>(i % m + 1));
    }
    c.try_insert_ns = ns_per(clock.seconds(), len);
  }
  {  // TRY membership probes against a full (m-1)-entry set.
    const std::uint64_t len = stream_length(ops.try_contains);
    const std::vector<job_id> jobs = random_jobs(rng, n, len);
    amo::try_set t;
    t.bind_universe(universe);
    for (const job_id j : random_jobs(rng, n, try_cap)) t.insert(j, 1);
    amo::stopwatch clock;
    for (const job_id j : jobs) c.checksum += t.contains(j);
    c.try_contains_ns = ns_per(clock.seconds(), len);
  }

  amo::bitset_rank_set full = amo::bitset_rank_set::full(universe);
  {
    const std::uint64_t len = stream_length(ops.free_selects);
    std::vector<usize> ranks(len);
    for (usize& k : ranks) k = static_cast<usize>(rng.below(n) + 1);
    amo::stopwatch clock;
    for (const usize k : ranks) c.checksum += full.select(k);
    c.free_select_ns = ns_per(clock.seconds(), len);
  }
  {
    const std::uint64_t len = stream_length(ops.free_ranks);
    const std::vector<job_id> jobs = random_jobs(rng, n, len);
    amo::stopwatch clock;
    for (const job_id j : jobs) c.checksum += full.rank_le(j);
    c.free_rank_ns = ns_per(clock.seconds(), len);
  }
  {  // FREE erasures: rounds over fresh full sets, each emptied in random order.
    const std::uint64_t len = stream_length(ops.free_erases);
    double seconds = 0.0;
    for (std::uint64_t done = 0; done < len;) {
      const std::vector<job_id> order = permutation(rng, n);
      const usize round = static_cast<usize>(std::min<std::uint64_t>(n, len - done));
      amo::bitset_rank_set s = amo::bitset_rank_set::full(universe);
      amo::stopwatch clock;
      for (usize i = 0; i < round; ++i) c.checksum += s.erase(order[i]);
      seconds += clock.seconds();
      done += round;
    }
    c.free_erase_ns = ns_per(seconds, len);
  }
  return c;
}

std::uint64_t set_working_set_bytes(usize n, usize m) {
  const auto universe = static_cast<job_id>(n);
  std::vector<std::unique_ptr<amo::bitset_rank_set>> free_sets;
  std::vector<std::unique_ptr<amo::try_set>> try_sets;
  free_sets.reserve(m);
  try_sets.reserve(m);
  // In-use heap plus mmapped blocks: a 2^20-job bitmap is above the
  // allocator's mmap threshold.
  auto in_use = [] {
    const struct mallinfo2 mi = mallinfo2();
    return mi.uordblks + mi.hblkhd;
  };
  const std::size_t before = in_use();
  for (usize p = 0; p < m; ++p) {
    free_sets.push_back(std::make_unique<amo::bitset_rank_set>(
        amo::bitset_rank_set::full(universe)));
    try_sets.push_back(std::make_unique<amo::try_set>());
    try_sets.back()->bind_universe(universe);
  }
  const std::size_t after = in_use();
  return after > before ? after - before : 0;
}

double checker_record_ns(usize n, usize m, std::uint64_t seed) {
  amo::xoshiro256 rng(seed);
  double seconds = 0.0;
  std::uint64_t records = 0;
  while (records < max_ops) {
    const std::vector<job_id> order = permutation(rng, n);
    std::vector<amo::process_id> who(n);
    for (amo::process_id& p : who) {
      p = static_cast<amo::process_id>(rng.below(m) + 1);
    }
    amo::amo_checker checker(n);
    amo::stopwatch clock;
    for (usize i = 0; i < n; ++i) checker.record(who[i], order[i]);
    seconds += clock.seconds();
    records += n;
  }
  return ns_per(seconds, records);
}

bool measure_model(const amo::model::model_config& cfg,
                   amo::svc::worker_pool& pool, model_costs& out) {
  amo::model::por_options opt;
  opt.cfg = cfg;
  opt.pool = &pool;
  amo::stopwatch clock;
  out.result = amo::model::explore_por(opt, out.stats);
  out.pooled_s = clock.seconds();

  opt.pool = nullptr;
  amo::model::por_stats serial_stats;
  clock.reset();
  const amo::model::explore_result serial =
      amo::model::explore_por(opt, serial_stats);
  out.serial_s = clock.seconds();
  return same_result(out.result, serial) && same_stats(out.stats, serial_stats);
}

trace_fold fold_trace(amo::obs::telemetry& sink) {
  trace_fold f;
  const amo::obs::trace_parse_result parsed =
      amo::obs::parse_trace(amo::obs::export_json(sink));
  if (!parsed.ok()) {
    f.error = "trace: " + parsed.error;
    return f;
  }
  f.dropped = parsed.dropped;
  for (const amo::obs::trace_event& e : parsed.events) {
    if (e.ph == 'X' && e.cat == "sweep" &&
        (e.name == "unit" || e.name == "replica_block")) {
      f.unit_span_s += e.dur_us * 1e-6;
    } else if (e.ph == 'C' && e.cat == "pool" && e.name == "steals") {
      ++f.steals;
    }
  }
  return f;
}

}  // namespace perfbench
