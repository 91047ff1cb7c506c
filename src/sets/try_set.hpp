// TRY_p — the set of jobs process p believes other processes are about to
// perform (Fig. 1). The paper proves |TRY_p| < m at all times, so a small
// sorted vector gives O(log m) search and O(m) insert, well inside the
// O(log n) per-operation budget the work analysis charges.
//
// Each entry also records *which* process announced the job (the value was
// read from next_q). The announcer plays no role in the algorithm itself —
// membership alone drives `check` — but it lets the analysis layer attribute
// collisions to process pairs, which is how bench E5 validates the pairwise
// collision bound of Lemma 5.5.
//
// The set holds no universe-sized state: everything the algorithm asks of
// TRY — membership, insert, the sorted entries the FREE \ TRY operators in
// rank_select.hpp merge against — is answered from the < m entries alone.
#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "util/math.hpp"
#include "util/op_counter.hpp"
#include "util/types.hpp"

namespace amo {

class try_set {
 public:
  struct entry {
    job_id job;
    process_id announcer;
  };

  try_set() = default;

  void set_counter(op_counter* oc) { oc_ = oc; }

  /// Records the job universe [1..universe]; inserting a job above it is
  /// then an error (the KK automaton never does: announcements are job ids).
  void bind_universe(job_id universe) {
    assert(universe >= 1);
    universe_ = universe;
  }

  // The per-step operations are defined inline below the class: the KK
  // automaton touches TRY on nearly every action, and |TRY| < m keeps each
  // of them a handful of instructions — call overhead would dominate.

  /// Resets to empty (compNext does this on every invocation).
  void clear() { entries_.clear(); }

  /// Inserts (job, announcer); if the job is already present the announcer
  /// is refreshed to the most recent reader observation. Returns true if the
  /// job was new.
  bool insert(job_id j, process_id announcer);

  [[nodiscard]] bool contains(job_id j) const {
    charge(clamped_log2(entries_.size() + 1));
    return peek(j);
  }

  /// Uncharged membership probe (binary search over the < m entries) for
  /// bookkeeping the paper's cost model does not see.
  [[nodiscard]] bool peek(job_id j) const {
    const usize pos = lower_bound(j);
    return pos < entries_.size() && entries_[pos].job == j;
  }

  /// Number of entries with job <= j (uncharged, O(log m)).
  [[nodiscard]] usize count_le(job_id j) const {
    // First index with job > j == number of entries <= j.
    if (j == ~job_id{0}) return entries_.size();
    return lower_bound(j + 1);
  }

  /// Announcer recorded for job j, or 0 if j is absent.
  [[nodiscard]] process_id announcer_of(job_id j) const {
    const usize pos = lower_bound(j);
    if (pos < entries_.size() && entries_[pos].job == j) {
      return entries_[pos].announcer;
    }
    return 0;
  }

  [[nodiscard]] usize size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  /// Entries sorted ascending by job id.
  [[nodiscard]] std::span<const entry> entries() const { return entries_; }

 private:
  void charge(usize units) const {
    if (oc_ != nullptr) oc_->local_ops += units;
  }

  /// Index of first entry with job >= j.
  [[nodiscard]] usize lower_bound(job_id j) const {
    usize lo = 0;
    usize hi = entries_.size();
    while (lo < hi) {
      const usize mid = lo + (hi - lo) / 2;
      if (entries_[mid].job < j) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  std::vector<entry> entries_;
  job_id universe_ = 0;
  op_counter* oc_ = nullptr;
};

inline bool try_set::insert(job_id j, process_id announcer) {
  assert(universe_ == 0 || j <= universe_);
  const usize pos = lower_bound(j);
  charge(clamped_log2(entries_.size() + 1));
  if (pos < entries_.size() && entries_[pos].job == j) {
    entries_[pos].announcer = announcer;
    return false;
  }
  charge(entries_.size() - pos + 1);  // shift cost of the vector insert
  entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(pos),
                  entry{j, announcer});
  return true;
}

}  // namespace amo
