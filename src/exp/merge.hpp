// Recombines sharded sweep outputs into the byte-identical equivalent of
// the unsharded sweep — as a STREAMING fold.
//
// Replica-aware shards (since the replica refactor) emit one record per
// (cell, replica) UNIT, keyed by "unit"/"units_total"; the merge re-groups
// the units by cell, re-folds each cell's replicas through exp::stats, and
// renders the same aggregate records add_cell_records would have — byte
// identical, because json_writer::num is round-trip-exact and the fold is
// a deterministic function of the replica values in replica order. Legacy
// per-cell records (no "unit" field — old artifacts, BENCH files) merge as
// before: k-way merge by "cell", raw tokens pass through.
//
// merge_stream consumes record_sources — in-memory arrays, JSON files, or
// streaming .amoc readers (exp::colfmt_reader) — through a k-way merge
// that holds one head record per source plus at most one cell's replicas,
// so a merge over million-unit shard files never materializes a
// full-sweep record vector. Every source must be index-ascending, which
// every writer in this repo guarantees (and verify_shard_records checks).
//
// The contract is strict: the shards must agree on the grid
// (fingerprint + sizes), and the union must cover the whole index space
// with no duplicate and no gap — anything else (a shard run twice, a shard
// missing, shards from different grids, a cell missing a replica) is an
// error, not a best-effort output.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exp/record.hpp"
#include "exp/shard.hpp"

namespace amo::exp {

struct merge_result {
  std::vector<record> records;  ///< sorted by cell index; empty on error
  usize cells_total = 0;        ///< the grid size the shards agreed on
  usize units_total = 0;        ///< replica-aware shards: units recombined
  std::string error;            ///< empty on success

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// One ordered stream of records (a shard). next() yields records until it
/// sets `end`; false with `error` on any failure (I/O, parse, a corrupt
/// .amoc chunk). A source is pulled single-threaded and in order.
class record_source {
 public:
  virtual ~record_source() = default;
  [[nodiscard]] virtual bool next(record& out, bool& end,
                                  std::string& error) = 0;
};

/// Wraps an in-memory record array (already index-sorted) as a source.
[[nodiscard]] std::unique_ptr<record_source> make_memory_source(
    std::vector<record> records);

/// Wraps a record file as a source. The file is opened lazily at the
/// first next(): a .amoc file (sniffed by magic) streams chunk by chunk
/// through colfmt_reader; a JSON file is parsed whole (the JSON grammar
/// is not self-delimiting per record). Errors carry the path.
[[nodiscard]] std::unique_ptr<record_source> make_file_source(
    std::string path);

/// Where merge_stream delivers each output record when the caller wants
/// to stream them onward (e.g. into a colfmt_writer chunk by chunk)
/// instead of accumulating merge_result.records. False aborts the merge
/// with `error`.
using record_sink = std::function<bool(record&&, std::string& error)>;

/// The streaming fold: k-way-merges the sources by unit (or legacy cell)
/// index — the first record pulled decides which (a unit record always
/// carries "unit") — validates the grid/coverage contract, folds each complete cell's
/// replicas, and emits aggregates — to `sink` when given (records is left
/// empty), else into merge_result.records. Bounded memory: one head
/// record per source + one cell's replicas, independent of sweep size.
merge_result merge_stream(std::vector<std::unique_ptr<record_source>> sources,
                          const record_sink& sink = {});

/// Folds ONE cell's unit records (complete, replica order) into the
/// aggregate record add_cell_records would have emitted — raw tokens of
/// the base replica pass through, safety flags AND-fold, summaries are
/// recomputed through exp::stats, wall clocks sum. The byte-identity
/// kernel merge_stream and bench_records share. False with `error`
/// when a record lacks a foldable field.
bool fold_unit_cell(const std::vector<record>& units, record& agg,
                    std::string& error);

/// Integrity check for ONE shard file against the slice it owes: the
/// records must be internally consistent (every record carries the same
/// units_total/cells_total/grid) and their unit (or legacy cell) indices
/// must be exactly the strided partition {s.index, s.index + s.count, ...}
/// below the declared total, in order — the record-layer completeness
/// contract that lets a supervisor reject a torn, truncated, or corrupted
/// shard artifact with a precise diagnostic *before* feeding it to a
/// merge. An empty record array passes (a shard can legitimately own zero
/// units). False with `error` set on any violation.
bool verify_shard_records(const std::vector<record>& records,
                          const shard_ref& s, std::string& error);

}  // namespace amo::exp
