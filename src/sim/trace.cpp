#include "sim/trace.hpp"

#include <cstdint>
#include <limits>

namespace amo::sim {

std::string trace::serialize() const {
  std::string out;
  out.reserve(events_.size() * 4);
  for (const trace_event& e : events_) {
    if (!out.empty()) out += ' ';
    out += e.what == decision::kind::crash ? 'c' : 's';
    out += std::to_string(e.pid);
  }
  return out;
}

bool trace::parse(std::string_view text, trace& out) {
  trace result;
  usize i = 0;
  const usize n = text.size();
  while (i < n) {
    while (i < n && text[i] == ' ') ++i;
    if (i == n) break;
    trace_event e;
    if (text[i] == 's') {
      e.what = decision::kind::step;
    } else if (text[i] == 'c') {
      e.what = decision::kind::crash;
    } else {
      return false;
    }
    ++i;
    if (i == n || text[i] < '0' || text[i] > '9') return false;
    // Accumulate in 64 bits and reject as soon as the value leaves the
    // process_id range, so long digit strings can neither wrap nor be
    // truncated into a valid-looking pid.
    std::uint64_t pid = 0;
    while (i < n && text[i] >= '0' && text[i] <= '9') {
      pid = pid * 10 + static_cast<std::uint64_t>(text[i] - '0');
      if (pid > std::numeric_limits<process_id>::max()) return false;
      ++i;
    }
    if (pid == 0) return false;
    e.pid = static_cast<process_id>(pid);
    result.append(e);
  }
  out = std::move(result);
  return true;
}

trace trace::prefix(usize count) const {
  trace out;
  for (usize i = 0; i < count && i < events_.size(); ++i) {
    out.append(events_[i]);
  }
  return out;
}

decision recording_adversary::decide(const sched_view& v) {
  decision d = inner_.decide(v);
  trace_event e;
  e.pid = d.pid;
  // Mirror the scheduler's budget rule so the trace records what actually
  // happens rather than what was requested.
  e.what = (d.what == decision::kind::crash && v.crashes_used < v.crash_budget)
               ? decision::kind::crash
               : decision::kind::step;
  out_.append(e);
  return d;
}

decision replay_adversary::decide(const sched_view& v) {
  while (cursor_ < trace_.events().size()) {
    const trace_event& e = trace_.events()[cursor_];
    ++cursor_;
    for (const process_id r : v.runnable) {
      if (r == e.pid) return {e.what, e.pid};
    }
    // Recorded process not runnable: the trace does not belong to this
    // configuration. Mark and fall through to the next event.
    faithful_ = false;
  }
  const process_id pid = v.runnable[fallback_cursor_++ % v.runnable.size()];
  return {decision::kind::step, pid};
}

}  // namespace amo::sim
