// A decorator around a sim::adversary that attributes scheduler time to the
// sim and core layers without any probe inside the library.
//
// Every decide() is counted, and the chosen process's next_action() is
// tallied per action kind, into a caller-owned tally that may span many
// runs. Every `period`-th decision of the tally is also clocked: the
// time spent inside the wrapped decide() is charged to sim, and the interval
// from the end of that decide() to the start of the next one (the scheduler
// loop plus the chosen process's step()) is charged to core under the kind
// the process was about to execute. Clocking every decision would inflate a
// KK run about 2.5x, hence the sampling; the decisions themselves are
// forwarded unchanged, so a decorated run is equivalent() to a plain one.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

#include "core/automaton.hpp"
#include "sim/adversary.hpp"

namespace perfbench {

/// The action kinds the core layer is broken down by, in output order.
inline constexpr std::array<const char*, 5> action_kind_names = {
    "local_compute", "announce", "gather", "perform", "record"};

struct adversary_tally {
  std::uint64_t decisions = 0;
  std::uint64_t crash_decisions = 0;
  std::array<std::uint64_t, 5> actions{};  ///< every step decision, by kind

  // Sampled clocks.
  std::uint64_t decide_samples = 0;
  std::uint64_t decide_ns = 0;
  std::array<std::uint64_t, 5> step_samples{};
  std::array<std::uint64_t, 5> step_ns{};

  adversary_tally& operator+=(const adversary_tally& o);
};

class timed_adversary final : public amo::sim::adversary {
 public:
  /// `period` >= 1: decisions 1, 1 + period, 1 + 2*period, ... of `tally`
  /// are clocked, so short runs sharing one tally are sampled too. A prime
  /// period keeps the sample from locking onto a round-robin rotation.
  timed_adversary(amo::sim::adversary& inner, std::uint64_t period,
                  adversary_tally& tally)
      : inner_(inner), period_(period == 0 ? 1 : period), tally_(tally) {}

  amo::sim::decision decide(const amo::sim::sched_view& v) override;
  [[nodiscard]] const char* name() const override { return inner_.name(); }

 private:
  using clock = std::chrono::steady_clock;
  static constexpr int no_pending = -1;

  amo::sim::adversary& inner_;
  std::uint64_t period_;
  adversary_tally& tally_;
  int pending_kind_ = no_pending;  ///< kind of the step being clocked
  clock::time_point step_start_{};
};

inline amo::sim::decision timed_adversary::decide(
    const amo::sim::sched_view& v) {
  const bool sample = tally_.decisions++ % period_ == 0;
  clock::time_point t0{};
  if (pending_kind_ != no_pending || sample) t0 = clock::now();
  if (pending_kind_ != no_pending) {
    const auto k = static_cast<std::size_t>(pending_kind_);
    tally_.step_ns[k] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - step_start_)
            .count());
    ++tally_.step_samples[k];
    pending_kind_ = no_pending;
  }

  const amo::sim::decision d = inner_.decide(v);

  int kind = no_pending;
  if (d.what == amo::sim::decision::kind::crash) {
    ++tally_.crash_decisions;
  } else {
    const auto a = v.processes[d.pid - 1]->next_action();
    if (static_cast<std::size_t>(a) < action_kind_names.size()) {
      kind = static_cast<int>(a);
      ++tally_.actions[static_cast<std::size_t>(a)];
    }
  }

  if (sample) {
    const clock::time_point t1 = clock::now();
    tally_.decide_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    ++tally_.decide_samples;
    pending_kind_ = kind;
    step_start_ = t1;
  }
  return d;
}

inline adversary_tally& adversary_tally::operator+=(const adversary_tally& o) {
  decisions += o.decisions;
  crash_decisions += o.crash_decisions;
  decide_samples += o.decide_samples;
  decide_ns += o.decide_ns;
  for (std::size_t k = 0; k < actions.size(); ++k) {
    actions[k] += o.actions[k];
    step_samples[k] += o.step_samples[k];
    step_ns[k] += o.step_ns[k];
  }
  return *this;
}

}  // namespace perfbench
