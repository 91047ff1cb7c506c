#include "exp/batch.hpp"

#include <cassert>
#include <memory>
#include <vector>

#include "exp/engine.hpp"
#include "sim/trace.hpp"

namespace amo::exp {

batch_class classify_batch(const run_spec& cell) {
  if (cell.driver != driver_kind::scheduled) return batch_class::not_batchable;
  if (cell.memory != memory_kind::sim) return batch_class::not_batchable;
  if (cell.free_set != free_set_kind::bitset) return batch_class::not_batchable;
  if (cell.record_trace) return batch_class::not_batchable;
  if (cell.n == 0 || cell.m == 0) return batch_class::not_batchable;
  if (cell.algo == algo_family::ao2) {
    if (cell.m != 2) return batch_class::not_batchable;
  } else if (cell.algo != algo_family::kk) {
    return batch_class::not_batchable;
  }
  // The class follows the type make_adversary builds, so the engine's
  // grammar is the only one. Names it rejects (nullptr) and adversary types
  // not listed here — the seeded ones included — run each replica through
  // the scalar engine, which throws exactly as every scalar unit would.
  const std::unique_ptr<sim::adversary> adv = make_adversary(cell.adversary);
  const sim::adversary* a = adv.get();
  // These schedules ignore the seed: every replica is the same execution.
  if (dynamic_cast<const sim::round_robin_adversary*>(a) != nullptr ||
      dynamic_cast<const sim::stale_view_adversary*>(a) != nullptr ||
      dynamic_cast<const sim::announce_crash_adversary*>(a) != nullptr ||
      dynamic_cast<const sim::scripted_adversary*>(a) != nullptr ||
      dynamic_cast<const sim::replay_adversary*>(a) != nullptr) {
    return batch_class::replicate;
  }
  return batch_class::not_batchable;
}

std::vector<run_report> run_replica_block(const run_spec& cell,
                                          std::span<const usize> replicas) {
  assert(!replicas.empty());
  assert(classify_batch(cell) == batch_class::replicate);
  // One scalar pass; replicas of a seed-independent schedule are the same
  // execution, differing only in the echoed seed.
  const run_report base = run(replica_spec(cell, replicas.front()));
  std::vector<run_report> out;
  out.reserve(replicas.size());
  for (const usize r : replicas) {
    out.push_back(base);
    out.back().seed = replica_seed(cell.adversary.seed, r);
  }
  return out;
}

}  // namespace amo::exp
