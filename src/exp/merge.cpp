#include "exp/merge.hpp"

#include <charconv>
#include <cmath>
#include <cstring>

#include "exp/colfmt.hpp"
#include "exp/report.hpp"
#include "exp/stats.hpp"
#include "exp/timing_keys.hpp"
#include "obs/telemetry.hpp"

namespace amo::exp {

namespace {

/// Reads field `key` as a non-negative integer; false when absent,
/// non-numeric or fractional.
bool read_index(const record& rec, const char* key, usize& out) {
  const record_field* f = rec.find(key);
  if (f == nullptr || f->type != record_field::kind::number) return false;
  if (f->number < 0 || f->number != std::floor(f->number)) return false;
  out = static_cast<usize>(f->number);
  return true;
}

std::string shard_tag(usize si) { return "shard " + std::to_string(si); }

std::string grid_of(const record& rec) {
  const record_field* g = rec.find("grid");
  return g != nullptr && g->type == record_field::kind::string ? g->text : "";
}

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

class memory_source final : public record_source {
 public:
  explicit memory_source(std::vector<record> records)
      : records_(std::move(records)) {}

  bool next(record& out, bool& end, std::string& error) override {
    (void)error;
    if (pos_ >= records_.size()) {
      end = true;
      return true;
    }
    out = std::move(records_[pos_++]);
    return true;
  }

 private:
  std::vector<record> records_;
  usize pos_ = 0;
};

class file_source final : public record_source {
 public:
  explicit file_source(std::string path) : path_(std::move(path)) {}

  bool next(record& out, bool& end, std::string& error) override {
    if (!opened_ && !open(error)) return false;
    if (col_ != nullptr) {
      // Refill from the next chunk; a colfmt chunk always holds at least
      // one record, but loop defensively.
      while (pos_ >= buffer_.size()) {
        buffer_.clear();
        pos_ = 0;
        bool chunks_done = false;
        if (!col_->next_chunk(buffer_, chunks_done, error)) return false;
        if (chunks_done) {
          end = true;
          return true;
        }
      }
    } else if (pos_ >= buffer_.size()) {
      end = true;
      return true;
    }
    out = std::move(buffer_[pos_++]);
    return true;
  }

 private:
  bool open(std::string& error) {
    opened_ = true;
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    if (f == nullptr) {
      error = "cannot open " + path_ + ": " + std::strerror(errno);
      return false;
    }
    char magic[4] = {};
    const usize got = std::fread(magic, 1, sizeof magic, f);
    std::fclose(f);
    if (got == sizeof magic && is_colfmt(std::string_view(magic, got))) {
      col_ = std::make_unique<colfmt_reader>();
      return col_->open(path_.c_str(), error);
    }
    parse_result parsed = parse_records_file(path_.c_str());
    if (!parsed.ok()) {
      error = parsed.error;
      return false;
    }
    buffer_ = std::move(parsed.records);
    return true;
  }

  std::string path_;
  bool opened_ = false;
  std::unique_ptr<colfmt_reader> col_;  ///< set iff the file is .amoc
  std::vector<record> buffer_;          ///< whole file (JSON) or one chunk
  usize pos_ = 0;
};

// ---------------------------------------------------------------------------
// Per-record validation (shared contract state of a running merge)
// ---------------------------------------------------------------------------

/// The grid agreement state every pulled record is checked against,
/// anchored by the first record seen.
struct merge_ctx {
  bool unit_schema = false;
  bool first_seen = false;
  std::string grid;
  usize units_total = 0;
  usize cells_total = 0;
};

/// Validates one legacy per-cell record, yielding its cell index.
bool check_cell_record(const record& rec, usize si, merge_ctx& ctx,
                       usize& idx, std::string& error) {
  usize cell = 0;
  usize total = 0;
  if (!read_index(rec, "cell", cell) ||
      !read_index(rec, "cells_total", total)) {
    error = shard_tag(si) +
            ": record without integer cell/cells_total fields "
            "(not a sharded sweep output?)";
    return false;
  }
  const std::string this_grid = grid_of(rec);
  if (!ctx.first_seen) {
    ctx.cells_total = total;
    ctx.grid = this_grid;
    ctx.first_seen = true;
  }
  if (total != ctx.cells_total) {
    error = shard_tag(si) + ": cells_total " + std::to_string(total) +
            " disagrees with " + std::to_string(ctx.cells_total) +
            " (shards of different grids?)";
    return false;
  }
  // Equal cell counts are not grid agreement: the fingerprint covers
  // every spec of the full grid, so shards of a *different* sweep of
  // the same size are refused too.
  if (this_grid != ctx.grid) {
    error = shard_tag(si) + ": grid fingerprint '" + this_grid +
            "' disagrees with '" + ctx.grid +
            "' (shards of different sweeps)";
    return false;
  }
  if (cell >= total) {
    error = shard_tag(si) + ": cell index " + std::to_string(cell) +
            " out of range [0, " + std::to_string(total) + ")";
    return false;
  }
  idx = cell;
  return true;
}

/// Validates one replica-aware unit record, yielding its unit index.
bool check_unit_record(const record& rec, usize si, merge_ctx& ctx,
                       usize& idx, std::string& error) {
  usize unit = 0;
  usize units_total = 0;
  usize cell = 0;
  usize cells_total = 0;
  usize replica = 0;
  usize replicas = 0;
  if (!read_index(rec, "unit", unit) ||
      !read_index(rec, "units_total", units_total) ||
      !read_index(rec, "cell", cell) ||
      !read_index(rec, "cells_total", cells_total) ||
      !read_index(rec, "replica", replica) ||
      !read_index(rec, "replicas", replicas)) {
    error = shard_tag(si) +
            ": record mixes replica-aware and legacy schemas "
            "(unit/units_total/cell/cells_total/replica/replicas "
            "must all be integers)";
    return false;
  }
  const std::string this_grid = grid_of(rec);
  if (!ctx.first_seen) {
    ctx.units_total = units_total;
    ctx.cells_total = cells_total;
    ctx.grid = this_grid;
    ctx.first_seen = true;
  }
  if (units_total != ctx.units_total || cells_total != ctx.cells_total) {
    error = shard_tag(si) + ": units_total/cells_total " +
            std::to_string(units_total) + "/" + std::to_string(cells_total) +
            " disagree with " + std::to_string(ctx.units_total) + "/" +
            std::to_string(ctx.cells_total) + " (shards of different grids?)";
    return false;
  }
  if (this_grid != ctx.grid) {
    error = shard_tag(si) + ": grid fingerprint '" + this_grid +
            "' disagrees with '" + ctx.grid +
            "' (shards of different sweeps)";
    return false;
  }
  if (unit >= units_total || cell >= cells_total || replica >= replicas) {
    error = shard_tag(si) + ": unit " + std::to_string(unit) + " (cell " +
            std::to_string(cell) + ", replica " + std::to_string(replica) +
            "/" + std::to_string(replicas) + ") out of range";
    return false;
  }
  idx = unit;
  return true;
}

// ---------------------------------------------------------------------------
// Cell fold helpers
// ---------------------------------------------------------------------------

/// Bookkeeping / timing keys a unit record carries that the aggregate
/// record must not copy verbatim: positions are re-emitted, wall clocks
/// are re-summed, per-job serve fields are job-scoped not cell-scoped.
/// The timing half lives in exp::timing_keys(), shared with diff's
/// classify_field so the two ignore surfaces cannot drift.
bool is_unit_bookkeeping(const std::string& key) {
  return key == "unit" || key == "units_total" || key == "cell" ||
         key == "cells_total" || key == "replica" || key == "replicas" ||
         key == "grid" || is_timing_key(key);
}

/// Reads the named numeric field of every unit into a replica-ordered
/// sample vector.
bool metric_samples(const std::vector<record>& units, const char* key,
                    std::vector<double>& out, std::string& error) {
  out.clear();
  out.reserve(units.size());
  for (const record& u : units) {
    const record_field* f = u.find(key);
    if (f == nullptr || f->type != record_field::kind::number) {
      usize unit = 0;
      read_index(u, "unit", unit);
      error = "unit " + std::to_string(unit) + ": record has no numeric '" +
              key + "' field — cannot fold replica aggregates";
      return false;
    }
    out.push_back(f->number);
  }
  return true;
}

/// AND-folds the named boolean field; false (plus `error`) when a record
/// lacks it.
bool fold_flag(const std::vector<record>& units, const char* key, bool& out,
               std::string& error) {
  out = true;
  for (const record& u : units) {
    const record_field* f = u.find(key);
    if (f == nullptr || f->type != record_field::kind::boolean) {
      usize unit = 0;
      read_index(u, "unit", unit);
      error = "unit " + std::to_string(unit) + ": record has no boolean '" +
              key + "' field";
      return false;
    }
    out = out && f->truth;
  }
  return true;
}

}  // namespace

bool fold_unit_cell(const std::vector<record>& units, record& agg,
                    std::string& error) {
  // Re-fold the cell and render the aggregate record add_cell_records
  // would have emitted: raw tokens of the base replica pass through, the
  // safety fields fold, the summaries are recomputed from the parsed
  // replica values — bit-equal to the in-process fold because
  // json_writer::num round-trips exactly.
  using W = json_writer;
  agg = record{};
  const record& base = units.front();

  cell_stats st;
  st.replicas = units.size();
  std::vector<double> samples;
  // The same summary_metrics() table fold_replicas and summary_values
  // iterate: a metric added there is automatically re-folded here.
  for (const summary_metric& m : summary_metrics()) {
    if (!metric_samples(units, m.name, samples, error)) return false;
    st.*m.summary = summarize(samples);
  }
  if (!fold_flag(units, "at_most_once", st.at_most_once, error) ||
      !fold_flag(units, "quiescent", st.quiescent, error) ||
      !fold_flag(units, "wa_complete", st.wa_complete, error)) {
    return false;
  }

  // duplicate: the first replica's duplicate job, replica order (the
  // fold exp::fold_replicas applies to in-memory reports).
  std::string duplicate_raw = "0";
  for (const record& u : units) {
    const record_field* d = u.find("duplicate");
    if (d != nullptr && d->type == record_field::kind::number &&
        d->number != 0) {
      duplicate_raw = d->raw;
      break;
    }
  }

  // Summed wall clock, present iff the unit records carried one.
  bool have_wall = false;
  double wall = 0.0;
  for (const record& u : units) {
    const record_field* w = u.find("wall_seconds");
    if (w != nullptr && w->type == record_field::kind::number) {
      have_wall = true;
      wall += w->number;
    }
  }

  // duplicate_raw was written by json_writer::num, so re-parsing it for
  // the decoded .number is exact — the in-memory records downstream
  // consumers (report_diff, a re-merge) see must agree with their raws.
  auto copy_field = [&agg, &base](const char* key) {
    const record_field* f = base.find(key);
    if (f != nullptr) agg.fields.push_back(*f);
  };
  auto push_number = [&agg](std::string key, double value, std::string raw) {
    record_field f;
    f.key = std::move(key);
    f.type = record_field::kind::number;
    f.number = value;
    f.raw = std::move(raw);
    agg.fields.push_back(std::move(f));
  };
  // The position prefix copies the base replica's decoded fields whole
  // (raw AND value); a unit file written without a grid fingerprint
  // simply yields an aggregate without one, never an empty token.
  copy_field("cell");
  copy_field("cells_total");
  copy_field("grid");
  copy_field("replicas");
  for (const record_field& f : base.fields) {
    if (is_unit_bookkeeping(f.key)) continue;
    record_field g = f;
    if (f.key == "at_most_once") {
      g.raw = W::boolean(st.at_most_once);
      g.truth = st.at_most_once;
    } else if (f.key == "quiescent") {
      g.raw = W::boolean(st.quiescent);
      g.truth = st.quiescent;
    } else if (f.key == "wa_complete") {
      g.raw = W::boolean(st.wa_complete);
      g.truth = st.wa_complete;
    } else if (f.key == "duplicate") {
      g.raw = duplicate_raw;
      std::from_chars(duplicate_raw.data(),
                      duplicate_raw.data() + duplicate_raw.size(), g.number);
    }
    agg.fields.push_back(std::move(g));
  }
  for (auto& [key, value] : summary_values(st)) {
    push_number(std::move(key), value, W::num(value));
  }
  if (have_wall) {
    push_number("wall_seconds", wall, W::num(wall));
  }
  return true;
}

std::unique_ptr<record_source> make_memory_source(std::vector<record> records) {
  return std::make_unique<memory_source>(std::move(records));
}

std::unique_ptr<record_source> make_file_source(std::string path) {
  return std::make_unique<file_source>(std::move(path));
}

merge_result merge_stream(std::vector<std::unique_ptr<record_source>> sources,
                          const record_sink& sink) {
  merge_result out;
  const usize k = sources.size();
  obs::span msp("merge", "merge_stream");
  msp.arg("sources", static_cast<std::uint64_t>(k));

  merge_ctx ctx;

  /// One head record per source — the whole residency of the k-way merge.
  struct head {
    record rec;
    usize idx = 0;
    bool alive = false;
    bool any = false;    ///< this source has yielded at least one record
    usize prev_idx = 0;  ///< last index yielded (order enforcement)
  };
  std::vector<head> heads(k);
  usize seen = 0;  ///< records pulled across all sources

  auto pull = [&](usize si) -> bool {
    head& h = heads[si];
    h.alive = false;
    record rec;
    bool end = false;
    std::string err;
    if (!sources[si]->next(rec, end, err)) {
      out.error = std::move(err);
      return false;
    }
    if (end) return true;
    ++seen;
    // Strided progress gauges: cheap enough to leave in the pull loop.
    if ((seen & 1023) == 0) {
      obs::counter("merge", "records_in", static_cast<double>(seen));
    }
    if (!ctx.first_seen) {
      // The first record anywhere decides the schema: a unit record
      // always carries "unit".
      ctx.unit_schema = rec.find("unit") != nullptr;
    }
    usize idx = 0;
    const bool ok = ctx.unit_schema
                        ? check_unit_record(rec, si, ctx, idx, out.error)
                        : check_cell_record(rec, si, ctx, idx, out.error);
    if (!ok) return false;
    if (h.any && idx < h.prev_idx) {
      out.error = shard_tag(si) + ": records out of order (index " +
                  std::to_string(idx) + " after " +
                  std::to_string(h.prev_idx) +
                  ") — streaming merge needs index-sorted shards";
      return false;
    }
    h.rec = std::move(rec);
    h.idx = idx;
    h.alive = true;
    h.any = true;
    h.prev_idx = idx;
    return true;
  };

  for (usize si = 0; si < k; ++si) {
    if (!pull(si)) return out;
  }

  const auto what = [&ctx]() -> const char* {
    return ctx.unit_schema ? "unit" : "cell";
  };

  usize emitted = 0;  ///< merged records handed to the sink
  auto emit = [&](record&& rec) -> bool {
    ++emitted;
    if ((emitted & 255) == 0) {
      obs::counter("merge", "cells_out", static_cast<double>(emitted));
    }
    if (sink) {
      std::string err;
      if (!sink(std::move(rec), err)) {
        out.error = std::move(err);
        return false;
      }
      return true;
    }
    out.records.push_back(std::move(rec));
    return true;
  };

  usize expect = 0;  ///< next index owed by the union of the sources
  bool have_prev = false;
  usize prev_idx = 0;
  usize prev_shard = 0;
  // A gap does not abort immediately: the remaining records are still
  // pulled (validated, duplicate-checked) so the final message can say
  // how much of the index space the shards actually covered — and so a
  // duplicate, which outranks a gap diagnostically, is still found.
  bool gap = false;
  usize gap_at = 0;

  // Unit path: the current cell's replicas, in order. Bounded by R.
  std::vector<record> cell_units;
  usize expect_cell = 0;
  usize cell_replicas = 0;

  while (true) {
    usize best = k;
    for (usize si = 0; si < k; ++si) {
      if (heads[si].alive && (best == k || heads[si].idx < heads[best].idx)) {
        best = si;
      }
    }
    if (best == k) break;  // every source drained

    if (have_prev && heads[best].idx == prev_idx) {
      out.error = std::string("duplicate ") + what() + " " +
                  std::to_string(prev_idx) + " (shards " +
                  std::to_string(prev_shard) + " and " +
                  std::to_string(best) + " both ran it)";
      return out;
    }
    if (heads[best].idx != expect && !gap) {
      gap = true;
      gap_at = expect;
    }
    expect = heads[best].idx + 1;
    have_prev = true;
    prev_idx = heads[best].idx;
    prev_shard = best;
    record rec = std::move(heads[best].rec);
    if (!pull(best)) return out;
    if (gap) continue;  // keep validating, stop folding/emitting

    if (!ctx.unit_schema) {
      if (!emit(std::move(rec))) return out;
      continue;
    }

    // Unit coverage is contiguous so far; the records must additionally
    // tile the grid cell-major — cells 0..cells_total-1 in order, each
    // cell's replicas 0..R-1 in order. Anything else means the records
    // lie about their grid.
    usize cell = 0;
    usize replica = 0;
    usize replicas = 0;
    read_index(rec, "cell", cell);
    read_index(rec, "replica", replica);
    read_index(rec, "replicas", replicas);
    if (cell_units.empty()) {
      if (cell != expect_cell) {
        usize unit = 0;
        read_index(rec, "unit", unit);
        out.error = "unit " + std::to_string(unit) + " claims cell " +
                    std::to_string(cell) + " where cell " +
                    std::to_string(expect_cell) +
                    " was expected (inconsistent unit numbering)";
        return out;
      }
      cell_replicas = replicas;
    }
    if (cell != expect_cell || replica != cell_units.size() ||
        replicas != cell_replicas) {
      out.error = "cell " + std::to_string(expect_cell) + ": replica " +
                  std::to_string(cell_units.size()) + " of " +
                  std::to_string(cell_replicas) +
                  " missing or inconsistent";
      return out;
    }
    cell_units.push_back(std::move(rec));
    if (cell_units.size() == cell_replicas) {
      record agg;
      if (!fold_unit_cell(cell_units, agg, out.error)) return out;
      if (!emit(std::move(agg))) return out;
      cell_units.clear();
      ++expect_cell;
    }
  }

  msp.arg("records_in", static_cast<std::uint64_t>(seen));
  msp.arg("records_out", static_cast<std::uint64_t>(emitted));

  if (!ctx.first_seen) return out;  // no records anywhere: empty success

  out.cells_total = ctx.cells_total;
  out.units_total = ctx.units_total;
  const usize total = ctx.unit_schema ? ctx.units_total : ctx.cells_total;
  if (gap || expect != total) {
    out.error = std::string("coverage gap: ") + what() + " " +
                std::to_string(gap ? gap_at : expect) + " missing (" +
                std::to_string(seen) + " of " + std::to_string(total) + " " +
                what() + "s present)";
    out.records.clear();
    return out;
  }
  if (ctx.unit_schema) {
    if (!cell_units.empty()) {
      out.error = "cell " + std::to_string(expect_cell) + ": replica " +
                  std::to_string(cell_units.size()) + " of " +
                  std::to_string(cell_replicas) + " missing or inconsistent";
      out.records.clear();
      return out;
    }
    if (expect_cell != ctx.cells_total) {
      out.error = "coverage gap: cell " + std::to_string(expect_cell) +
                  " missing (" + std::to_string(expect_cell) + " of " +
                  std::to_string(ctx.cells_total) + " cells present)";
      out.records.clear();
      return out;
    }
  }
  return out;
}

bool verify_shard_records(const std::vector<record>& records,
                          const shard_ref& s, std::string& error) {
  if (!s.valid()) {
    error = "invalid shard reference " + std::to_string(s.index) + "/" +
            std::to_string(s.count);
    return false;
  }
  if (records.empty()) return true;  // a shard can legitimately own nothing

  const bool unit_schema = records[0].find("unit") != nullptr;
  const char* what = unit_schema ? "unit" : "cell";
  const char* total_key = unit_schema ? "units_total" : "cells_total";
  const std::string tag = "shard " + to_string(s);

  usize total = 0;
  std::string grid;
  usize expect = s.index;
  for (usize i = 0; i < records.size(); ++i) {
    const record& rec = records[i];
    usize idx = 0;
    usize this_total = 0;
    if (!read_index(rec, what, idx) ||
        !read_index(rec, total_key, this_total)) {
      error = tag + ": record " + std::to_string(i) + " lacks integer " +
              what + "/" + total_key +
              " fields (torn or foreign shard file?)";
      return false;
    }
    const std::string this_grid = grid_of(rec);
    if (i == 0) {
      total = this_total;
      grid = this_grid;
    } else if (this_total != total || this_grid != grid) {
      error = tag + ": record " + std::to_string(i) +
              " disagrees with the file's own " + total_key +
              "/grid (corrupted shard file?)";
      return false;
    }
    if (idx >= total) {
      error = tag + ": " + what + " index " + std::to_string(idx) +
              " out of range [0, " + std::to_string(total) + ")";
      return false;
    }
    if (idx != expect) {
      error = tag + ": record " + std::to_string(i) + " holds " + what + " " +
              std::to_string(idx) + " where " + what + " " +
              std::to_string(expect) +
              " was owed (torn, truncated, or reordered shard file?)";
      return false;
    }
    expect += s.count;
  }
  const usize owed = total > s.index ? (total - s.index - 1) / s.count + 1 : 0;
  if (records.size() != owed) {
    error = tag + ": holds " + std::to_string(records.size()) + " of " +
            std::to_string(owed) + " owed " + what + "s (" + total_key + " " +
            std::to_string(total) + ") — truncated shard file?";
    return false;
  }
  return true;
}

}  // namespace amo::exp
