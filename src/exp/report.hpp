// The one JSON emitter every bench, test and the amo_lab CLI share.
//
// json_writer replaces the per-bench benchx::json_report copies; unlike its
// predecessor, str() escapes the full set JSON requires — quote, backslash,
// and every control character below 0x20 (\n, \t, \r named; the rest as
// \u00XX) — so a label can never produce an unparseable file.
//
// The record schema below maps run_reports onto the unified record shapes
// (documented in docs/json_schema.md and emitted by amo_lab);
// `include_timing = false` drops the wall-clock fields, which is what makes
// sweep output byte-comparable across pool sizes.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/shard.hpp"
#include "exp/spec.hpp"
#include "exp/sweep.hpp"

namespace amo::exp {

struct record_table;

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

  /// Appends every row of `table` (declared below).
  void add(const record_table& table);

  /// The full `[ {...}, ... ]` document, newline-terminated.
  [[nodiscard]] std::string dump() const;

  /// Writes dump() to `path`; returns false on I/O failure.
  bool write(const char* path) const;

  [[nodiscard]] usize size() const { return rows_.size(); }

 private:
  void add_row(const std::pair<std::string, std::string>* fields, usize count);

  std::vector<std::string> rows_;
};

/// Extra caller-supplied numeric fields appended at the end of each
/// record (e.g. the serve layer's per-job timing fields).
using extra_fields = std::vector<std::pair<std::string, double>>;

// --- the record schema ----------------------------------------------------
// One ordered table of typed columns (key, type, value accessor) defines
// every record shape below; json_writer::add and the .amoc writer
// (exp::colfmt_encode) both read it, so the two spellings cannot drift.

/// The JSON value type a column holds.
enum class field_type : std::uint8_t { u64, f64, str, boolean };

/// One typed value; the column's field_type says which member is set.
struct field_value {
  std::uint64_t u64 = 0;
  double f64 = 0.0;
  std::string_view str;
  bool boolean = false;
};

/// What one record renders from: a unit's report, or a cell's base-replica
/// report plus the replica fold that replaces its safety flags and clock.
struct record_row {
  const run_report* report = nullptr;
  const cell_stats* stats = nullptr;  ///< aggregate records only
  unit_ref unit;  ///< aggregate records: .cell and .cell_replicas
};

/// One column: its key, its JSON type and how a row yields its value.
struct record_column {
  std::string_view key;
  field_type type = field_type::u64;
  field_value (*get)(const record_table&, const record_row&, usize arg) = nullptr;
  usize arg = 0;  ///< summary / extra columns: which one
};

/// One record array: columns (schema order), rows, and the values every
/// row shares. Extra columns' keys point into `extra`: move, never copy.
struct record_table {
  std::vector<record_column> columns;
  std::vector<record_row> rows;
  usize units_total = 0;
  usize cells_total = 0;
  char grid_hex[16] = {};  ///< grid as 16 lowercase hex digits
  extra_fields extra;

  record_table() = default;
  record_table(record_table&&) = default;  // and no copies
};

/// Aggregate cell records — what an unsharded sweep emits: one record per
/// cell, {"cell", "cells_total", "grid", "replicas"}, then the base
/// replica's report columns with the safety fields (at_most_once,
/// quiescent, wa_complete, duplicate) replaced by their any-replica fold,
/// then the <metric>_<stat> summaries (exp::summary_stats), then the
/// cell's summed wall clock (timing runs only), then `extra`. Aggregate
/// output is always the whole grid, so record i's "cell" is i.
/// exp::merge_stream rebuilds exactly these bytes from unit records.
[[nodiscard]] record_table cell_table(const sweep_result& swept,
                                      std::uint64_t grid, bool include_timing,
                                      extra_fields extra = {});

/// Per-replica unit records — what a sharded sweep emits: one record per
/// owned (cell, replica) unit, {"unit", "units_total", "cell",
/// "cells_total", "replica", "replicas", "grid"} then the replica's report
/// columns (its "seed" is the exp::replica_seed-derived seed), then
/// `extra`. Requires units.size() == reports.size().
[[nodiscard]] record_table unit_table(const std::vector<run_report>& reports,
                                      const std::vector<unit_ref>& units,
                                      usize units_total, usize cells_total,
                                      std::uint64_t grid, bool include_timing,
                                      extra_fields extra = {});

/// The unified record for one run_report, in schema order, pre-encoded.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> report_fields(
    const run_report& r, bool include_timing = true);

/// One record per report: the report columns, wall_seconds when timing.
void add_reports(json_writer& out, const std::vector<run_report>& reports,
                 bool include_timing = true);

/// Legacy sweep-grid records (pre-replica schema): the report columns
/// prefixed with {"cell": cell_indices[i], "cells_total", "grid"}. Kept
/// for non-replicated record producers and the merge pass-through path.
void add_sweep_records(json_writer& out, const std::vector<run_report>& reports,
                       const std::vector<usize>& cell_indices,
                       usize cells_total, std::uint64_t grid,
                       bool include_timing = true);

/// json_writer::add(cell_table(...)) / json_writer::add(unit_table(...)).
void add_cell_records(json_writer& out, const sweep_result& swept,
                      std::uint64_t grid, bool include_timing = true,
                      const extra_fields& extra = {});
void add_unit_records(json_writer& out, const std::vector<run_report>& reports,
                      const std::vector<unit_ref>& units, usize units_total,
                      usize cells_total, std::uint64_t grid,
                      bool include_timing = true,
                      const extra_fields& extra = {});

}  // namespace amo::exp
