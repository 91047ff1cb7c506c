#include "exp/report.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <type_traits>

#include "exp/stats.hpp"
#include "util/fileio.hpp"

namespace amo::exp {

namespace {

/// Appends `s` quoted and escaped: the json_writer::str spelling.
void append_str(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_value(std::string& out, field_type t, const field_value& v) {
  switch (t) {
    case field_type::u64: {
      char buf[24];
      const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v.u64);
      out.append(buf, end);
      break;
    }
    case field_type::f64: out += json_writer::num(v.f64); break;
    case field_type::str: append_str(out, v.str); break;
    case field_type::boolean: out += v.boolean ? "true" : "false"; break;
  }
}

}  // namespace

std::string json_writer::num(double v) {
  // std::to_chars: shortest representation that parses back to exactly v,
  // locale-independent by definition (snprintf %g obeys LC_NUMERIC and
  // would emit "0,5" under a comma-decimal locale — an unparseable record).
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : std::string("0");
}

std::string json_writer::str(const std::string& s) {
  std::string out;
  append_str(out, s);
  return out;
}

void json_writer::add_row(const std::pair<std::string, std::string>* fields,
                          usize count) {
  std::string row = "  {";
  for (usize i = 0; i < count; ++i) {
    if (i != 0) row += ", ";
    row += str(fields[i].first) + ": " + fields[i].second;
  }
  row += "}";
  rows_.push_back(std::move(row));
}

void json_writer::add(
    std::initializer_list<std::pair<std::string, std::string>> fields) {
  add_row(fields.begin(), fields.size());
}

void json_writer::add(
    const std::vector<std::pair<std::string, std::string>>& fields) {
  add_row(fields.data(), fields.size());
}

std::string json_writer::dump() const {
  std::string out = "[\n";
  for (usize i = 0; i < rows_.size(); ++i) {
    out += rows_[i];
    out += i + 1 < rows_.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

bool json_writer::write(const char* path) const {
  std::string ignored;
  return write_file_atomic(path, dump(), ignored);
}

void json_writer::add(const record_table& table) {
  for (const record_row& row : table.rows) {
    std::string line = "  {";
    for (usize c = 0; c < table.columns.size(); ++c) {
      const record_column& col = table.columns[c];
      if (c != 0) line += ", ";
      append_str(line, col.key);
      line += ": ";
      append_value(line, col.type, col.get(table, row, col.arg));
    }
    line += '}';
    rows_.push_back(std::move(line));
  }
}

namespace {

/// The field_value of one typed value.
template <class T>
field_value value_of(const T& v) {
  field_value f;
  if constexpr (std::is_same_v<T, bool>) {
    f.boolean = v;
  } else if constexpr (std::is_floating_point_v<T>) {
    f.f64 = v;
  } else if constexpr (std::is_integral_v<T>) {
    f.u64 = v;
  } else {
    f.str = v;
  }
  return f;
}

using D = const record_table&;
using R = const record_row&;
constexpr field_type kU64 = field_type::u64;
constexpr field_type kF64 = field_type::f64;
constexpr field_type kStr = field_type::str;
constexpr field_type kBool = field_type::boolean;

/// Reads run_report::*Member.
template <auto Member>
field_value member(D, R r, usize) {
  return value_of(r.report->*Member);
}

/// Reads the replica fold's cell_stats::*Fold on aggregate rows, else the
/// report's own run_report::*Member.
template <auto Member, auto Fold>
field_value folded(D, R r, usize) {
  return value_of(r.stats != nullptr ? r.stats->*Fold : r.report->*Member);
}

// Grid-position columns; the record layouts below compose them.
constexpr record_column kUnit{
    "unit", kU64, [](D, R r, usize) { return value_of(r.unit.unit); }};
constexpr record_column kUnitsTotal{
    "units_total", kU64, [](D d, R, usize) { return value_of(d.units_total); }};
constexpr record_column kCell{
    "cell", kU64, [](D, R r, usize) { return value_of(r.unit.cell); }};
constexpr record_column kCellsTotal{
    "cells_total", kU64, [](D d, R, usize) { return value_of(d.cells_total); }};
constexpr record_column kReplica{
    "replica", kU64, [](D, R r, usize) { return value_of(r.unit.replica); }};
constexpr record_column kReplicas{"replicas", kU64, [](D, R r, usize) {
  return value_of(r.unit.cell_replicas);
}};
constexpr record_column kGrid{"grid", kStr, [](D d, R, usize) {
  return value_of(std::string_view(d.grid_hex, sizeof d.grid_hex));
}};

/// The run_report columns, schema order. Aggregate rows take the safety
/// flags (and, in kWallSeconds, the wall clock) from the replica fold.
constexpr record_column kReportColumns[] = {
    {"scenario", kStr, member<&run_report::label>},
    {"algo", kStr,
     [](D, R r, usize) { return value_of(to_string(r.report->algo)); }},
    {"driver", kStr,
     [](D, R r, usize) { return value_of(to_string(r.report->driver)); }},
    {"memory", kStr,
     [](D, R r, usize) { return value_of(to_string(r.report->memory)); }},
    {"free_set", kStr,
     [](D, R r, usize) { return value_of(to_string(r.report->free_set)); }},
    {"adversary", kStr, member<&run_report::adversary>},
    {"seed", kU64, member<&run_report::seed>},
    {"n", kU64, member<&run_report::n>},
    {"m", kU64, member<&run_report::m>},
    {"beta", kU64, member<&run_report::beta>},
    {"eps_inv", kU64, member<&run_report::eps_inv>},
    {"crash_budget", kU64, member<&run_report::crash_budget>},
    {"steps", kU64, member<&run_report::total_steps>},
    {"crashes", kU64, member<&run_report::crashes>},
    {"quiescent", kBool, folded<&run_report::quiescent, &cell_stats::quiescent>},
    {"terminated", kU64, member<&run_report::terminated>},
    {"effectiveness", kU64, member<&run_report::effectiveness>},
    {"perform_events", kU64, member<&run_report::perform_events>},
    {"at_most_once", kBool,
     folded<&run_report::at_most_once, &cell_stats::at_most_once>},
    {"duplicate", kU64, folded<&run_report::duplicate, &cell_stats::duplicate>},
    {"shared_reads", kU64,
     [](D, R r, usize) { return value_of(r.report->total_work.shared_reads); }},
    {"shared_writes", kU64,
     [](D, R r, usize) { return value_of(r.report->total_work.shared_writes); }},
    {"local_ops", kU64,
     [](D, R r, usize) { return value_of(r.report->total_work.local_ops); }},
    {"actions", kU64,
     [](D, R r, usize) { return value_of(r.report->total_work.actions); }},
    {"work", kU64,
     [](D, R r, usize) { return value_of(r.report->total_work.total()); }},
    {"collisions", kU64, member<&run_report::total_collisions>},
    {"worst_pair_ratio", kF64, member<&run_report::worst_pair_ratio>},
    {"num_levels", kU64, member<&run_report::num_levels>},
    {"wa_complete", kBool,
     folded<&run_report::wa_complete, &cell_stats::wa_complete>},
    {"wa_written", kU64, member<&run_report::wa_written>},
    {"trace_events", kU64,
     [](D, R r, usize) { return value_of(r.report->trace.size()); }},
};

/// Timing runs only: the report's wall clock, or the cell's summed one.
constexpr record_column kWallSeconds{
    "wall_seconds", kF64,
    folded<&run_report::wall_seconds, &cell_stats::wall_seconds>};

/// The <metric>_<stat> aggregate columns, summary_metrics() x
/// summary_stats(); `arg` indexes the pair.
const std::vector<record_column>& summary_columns() {
  struct schema {
    std::vector<std::string> keys;
    std::vector<record_column> columns;
  };
  static const schema s = [] {
    schema out;
    for (auto& [key, value] : summary_values({})) out.keys.push_back(key);
    for (usize i = 0; i < out.keys.size(); ++i) {
      out.columns.push_back({out.keys[i], kF64, [](D, R r, usize arg) {
        const usize per = summary_stats().size();
        const metric_summary& ms = r.stats->*summary_metrics()[arg / per].summary;
        return value_of(ms.*summary_stats()[arg % per].value);
      }, i});
    }
    return out;
  }();
  return s.columns;
}

/// A record layout: `prefix`, the report columns, the summaries
/// (aggregate records), wall_seconds (timing runs), then `extra`.
record_table layout(std::initializer_list<record_column> prefix,
                    bool summaries, bool include_timing, extra_fields extra,
                    std::uint64_t grid = 0) {
  record_table t;
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(grid));
  std::memcpy(t.grid_hex, hex, sizeof t.grid_hex);
  t.extra = std::move(extra);
  t.columns.assign(prefix);
  t.columns.insert(t.columns.end(), std::begin(kReportColumns),
                   std::end(kReportColumns));
  if (summaries) {
    t.columns.insert(t.columns.end(), summary_columns().begin(),
                     summary_columns().end());
  }
  if (include_timing) t.columns.push_back(kWallSeconds);
  for (usize i = 0; i < t.extra.size(); ++i) {
    t.columns.push_back({t.extra[i].first, kF64, [](D d, R, usize arg) {
      return value_of(d.extra[arg].second);
    }, i});
  }
  return t;
}

}  // namespace

record_table cell_table(const sweep_result& swept, std::uint64_t grid,
                        bool include_timing, extra_fields extra) {
  record_table t = layout({kCell, kCellsTotal, kGrid, kReplicas},
                          /*summaries=*/true, include_timing, std::move(extra),
                          grid);
  t.cells_total = swept.cells.size();
  t.rows.reserve(swept.cells.size());
  for (usize i = 0; i < swept.cells.size(); ++i) {
    const cell_report& cr = swept.cells[i];
    t.rows.push_back({&swept.reports[cr.first], &cr.stats,
                      unit_ref{0, i, 0, cr.replicas}});
  }
  return t;
}

record_table unit_table(const std::vector<run_report>& reports,
                        const std::vector<unit_ref>& units, usize units_total,
                        usize cells_total, std::uint64_t grid,
                        bool include_timing, extra_fields extra) {
  record_table t = layout({kUnit, kUnitsTotal, kCell, kCellsTotal, kReplica,
                           kReplicas, kGrid},
                          /*summaries=*/false, include_timing, std::move(extra),
                          grid);
  t.units_total = units_total;
  t.cells_total = cells_total;
  t.rows.reserve(reports.size());
  for (usize i = 0; i < reports.size(); ++i) {
    t.rows.push_back({&reports[i], nullptr, units[i]});
  }
  return t;
}

std::vector<std::pair<std::string, std::string>> report_fields(
    const run_report& r, bool include_timing) {
  const record_table t = layout({}, false, include_timing, {});
  const record_row row{&r, nullptr, {}};
  std::vector<std::pair<std::string, std::string>> f;
  f.reserve(t.columns.size());
  for (const record_column& col : t.columns) {
    std::string value;
    append_value(value, col.type, col.get(t, row, col.arg));
    f.emplace_back(std::string(col.key), std::move(value));
  }
  return f;
}

void add_reports(json_writer& out, const std::vector<run_report>& reports,
                 bool include_timing) {
  record_table t = layout({}, false, include_timing, {});
  for (const run_report& r : reports) t.rows.push_back({&r, nullptr, {}});
  out.add(t);
}

void add_sweep_records(json_writer& out, const std::vector<run_report>& reports,
                       const std::vector<usize>& cell_indices,
                       usize cells_total, std::uint64_t grid,
                       bool include_timing) {
  record_table t =
      layout({kCell, kCellsTotal, kGrid}, false, include_timing, {}, grid);
  t.cells_total = cells_total;
  for (usize i = 0; i < reports.size(); ++i) {
    t.rows.push_back({&reports[i], nullptr, unit_ref{0, cell_indices[i], 0, 1}});
  }
  out.add(t);
}

void add_cell_records(json_writer& out, const sweep_result& swept,
                      std::uint64_t grid, bool include_timing,
                      const extra_fields& extra) {
  out.add(cell_table(swept, grid, include_timing, extra));
}

void add_unit_records(json_writer& out, const std::vector<run_report>& reports,
                      const std::vector<unit_ref>& units, usize units_total,
                      usize cells_total, std::uint64_t grid,
                      bool include_timing, const extra_fields& extra) {
  out.add(unit_table(reports, units, units_total, cells_total, grid,
                     include_timing, extra));
}

}  // namespace amo::exp
