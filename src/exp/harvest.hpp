// Report-assembly helpers shared by the scalar engine (exp/engine.cpp) and
// the batched replica engine (exp/batch.cpp). Both must fill run_report
// fields from the same sources in the same way — the batched engine's whole
// contract is per-replica reports bit-identical to scalar runs — so the
// field plumbing lives once, here, instead of drifting apart in two TUs.
#pragma once

#include <memory>
#include <vector>

#include "analysis/amo_checker.hpp"
#include "exp/spec.hpp"

namespace amo::exp {

inline void echo_spec(run_report& rep, const run_spec& s) {
  rep.label = s.label;
  rep.algo = s.algo;
  rep.driver = s.driver;
  rep.memory = s.memory;
  rep.free_set = s.free_set;
  rep.n = s.n;
  rep.m = s.m;
  rep.beta = s.beta == 0 ? s.m : s.beta;
  rep.eps_inv = s.eps_inv;
  rep.crash_budget = s.crash_budget;
}

inline void harvest_checker(run_report& rep, const amo_checker& checker) {
  rep.effectiveness = checker.distinct();
  rep.perform_events = checker.total_events();
  rep.at_most_once = checker.ok();
  rep.duplicate = checker.first_duplicate();
}

/// Aggregates KK_beta per-process tallies; shared by every memory backend
/// and driver.
template <class Proc>
void harvest_kk(run_report& rep, const std::vector<std::unique_ptr<Proc>>& procs) {
  usize stopped = 0;
  for (const auto& p : procs) {
    rep.per_process.push_back(p->stats());
    rep.total_work += p->stats().work;
    rep.total_collisions +=
        p->stats().collisions_try + p->stats().collisions_done;
    if (p->status() == kk_status::end) ++rep.terminated;
    if (p->status() == kk_status::stop) ++stopped;
  }
  rep.crashes = stopped;
}

}  // namespace amo::exp
