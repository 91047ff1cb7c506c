// The trivial at-most-once algorithm from Section 2.2: "splitting the n
// jobs in groups of size n/m and assigning one group to each process."
// No shared-memory coordination at all, hence trivially at-most-once; its
// effectiveness collapses to (m - f) * (n / m) when f processes crash at
// the start — the line bench_claims' c11.vs_trivial rows hold KK_beta above.
#pragma once

#include <functional>

#include "core/automaton.hpp"
#include "util/types.hpp"

namespace amo::baseline {

class trivial_split_process final : public automaton {
 public:
  using perform_fn = std::function<void(process_id, job_id)>;

  /// Process `pid` of m performs jobs [(pid-1)*(n/m)+1 .. pid*(n/m)]; the
  /// last process also takes the n % m remainder.
  trivial_split_process(usize n, usize m, process_id pid, perform_fn fn);

  void step() override;
  [[nodiscard]] bool runnable() const override {
    return !crashed_ && cursor_ <= last_;
  }
  void crash() override { crashed_ = true; }
  [[nodiscard]] process_id id() const override { return pid_; }
  [[nodiscard]] action_kind next_action() const override {
    if (crashed_) return action_kind::crashed;
    return cursor_ <= last_ ? action_kind::perform : action_kind::terminated;
  }
  [[nodiscard]] usize announce_count() const override { return 0; }
  [[nodiscard]] usize perform_count() const override { return performed_; }
  [[nodiscard]] usize step_count() const override { return performed_; }

 private:
  process_id pid_;
  job_id cursor_;
  job_id last_;
  usize performed_ = 0;
  bool crashed_ = false;
  perform_fn fn_;
};

}  // namespace amo::baseline
