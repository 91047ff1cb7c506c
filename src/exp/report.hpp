// The one JSON emitter every bench, test and the amo_lab CLI share.
//
// json_writer replaces the per-bench benchx::json_report copies; unlike its
// predecessor, str() escapes the full set JSON requires — quote, backslash,
// and every control character below 0x20 (\n, \t, \r named; the rest as
// \u00XX) — so a label can never produce an unparseable file.
//
// add_report() maps a run_report onto the unified record schema (documented
// in README.md and emitted by amo_lab); `include_timing = false` drops the
// wall-clock field, which is what makes sweep output byte-comparable across
// pool sizes.
#pragma once

#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "exp/shard.hpp"
#include "exp/spec.hpp"
#include "exp/sweep.hpp"

namespace amo::exp {

/// Accumulates flat {string: value} records and renders them as a JSON
/// array. Values are passed pre-encoded via num()/str()/boolean().
class json_writer {
 public:
  /// Shortest round-trip decimal via std::to_chars: locale-independent
  /// (always '.'-separated, whatever LC_NUMERIC says) and value-exact —
  /// parsing the token back yields bit-equal v, which is what lets
  /// exp::merge_stream re-fold parsed replica records into aggregates
  /// byte-identical to the in-process fold.
  static std::string num(double v);
  static std::string num(std::uint64_t v) { return std::to_string(v); }
  static std::string str(const std::string& s);
  static std::string boolean(bool b) { return b ? "true" : "false"; }

  void add(std::initializer_list<std::pair<std::string, std::string>> fields);
  void add(const std::vector<std::pair<std::string, std::string>>& fields);

  /// The full `[ {...}, ... ]` document, newline-terminated.
  [[nodiscard]] std::string dump() const;

  /// Writes dump() to `path`; returns false on I/O failure.
  bool write(const char* path) const;

  [[nodiscard]] usize size() const { return rows_.size(); }

 private:
  void add_row(const std::pair<std::string, std::string>* fields, usize count);

  std::vector<std::string> rows_;
};

/// The unified record for one run_report, in schema order. Every amo_lab /
/// bench record uses exactly these fields (prefixed by any caller-supplied
/// extras), so downstream tooling parses one shape.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> report_fields(
    const run_report& r, bool include_timing = true);

/// Appends one record per report. `include_timing = false` omits
/// wall_seconds so identical executions dump identical bytes.
void add_reports(json_writer& out, const std::vector<run_report>& reports,
                 bool include_timing = true);

/// Legacy sweep-grid records (pre-replica schema): report_fields prefixed
/// with the record's global grid position {"cell": cell_indices[i],
/// "cells_total": cells_total} and the grid's fingerprint {"grid": hex of
/// exp::grid_fingerprint(full grid)}. Kept for non-replicated record
/// producers and the merge pass-through path; replica-aware sweeps emit
/// add_cell_records / add_unit_records below.
void add_sweep_records(json_writer& out, const std::vector<run_report>& reports,
                       const std::vector<usize>& cell_indices,
                       usize cells_total, std::uint64_t grid,
                       bool include_timing = true);

/// Extra caller-supplied fields appended verbatim at the end of each
/// record (e.g. the serve layer's per-job timing fields).
using extra_fields = std::vector<std::pair<std::string, std::string>>;

/// Aggregate cell records — what an unsharded sweep emits: one record per
/// cell, {"cell", "cells_total", "grid", "replicas"}, then the base
/// replica's report_fields with the safety fields (at_most_once,
/// quiescent, wa_complete, duplicate) replaced by their any-replica fold,
/// then exp::summary_fields, then the cell's summed wall clock (timing
/// runs only). Aggregate output is always the whole grid (sharded sweeps
/// emit per-unit records instead), so record i's "cell" index is i and
/// cells_total is swept.cells.size(). exp::merge_stream rebuilds exactly
/// these bytes from per-unit shard records.
void add_cell_records(json_writer& out, const sweep_result& swept,
                      std::uint64_t grid, bool include_timing = true,
                      const extra_fields& extra = {});

/// Per-replica unit records — what a sharded sweep emits: one record per
/// owned (cell, replica) unit, {"unit", "units_total", "cell",
/// "cells_total", "replica", "replicas", "grid"} then the replica's
/// report_fields (its "seed" is the exp::replica_seed-derived seed).
/// Requires units.size() == reports.size().
void add_unit_records(json_writer& out, const std::vector<run_report>& reports,
                      const std::vector<unit_ref>& units, usize units_total,
                      usize cells_total, std::uint64_t grid,
                      bool include_timing = true,
                      const extra_fields& extra = {});

}  // namespace amo::exp
