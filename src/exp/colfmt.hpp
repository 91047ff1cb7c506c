// exp::colfmt — the compact columnar record format (.amoc) beside JSON.
//
// Flat JSON is the human view; .amoc is the raw-scale view of the SAME
// records: a versioned binary layout (normative byte-level spec in
// docs/record_format.md) holding one schema header — magic, version, grid
// fingerprint, grid sizes, the column (field-name) table, a header
// checksum — followed by one chunk per cell, each chunk holding one typed
// column block per field with per-block min/max for the numeric encodings
// and a content checksum, closed by an end marker. Chunks are
// self-delimiting, so a reader folds a file cell by cell in bounded
// memory (exp::merge_stream) instead of materializing every unit record.
//
// Losslessness is the contract that keeps the byte-identity invariant
// alive across the format boundary: decode(encode(records)) reproduces
// every record_field exactly — decoded value AND raw source token — so
// colfmt -> JSON conversion re-emits the very bytes json_writer wrote.
// The encoder picks, per column block, the narrowest encoding whose
// decode provably reproduces the raw tokens (u64 / f64 / str / bool /
// null), and falls back to verbatim raw-token storage for anything else
// (foreign escapes, exotic number spellings), so no input is ever
// approximated.
//
// Readers validate everything — magic, version, flags, header checksum,
// per-chunk checksums, every length against the bytes actually present,
// the header counts against the decoded records — and report failures
// with the byte offset ("offset 72: ..."), plus the errno text on I/O
// errors, so a truncated or bit-flipped artifact is a precise diagnostic,
// never garbage records (fuzzed per byte in tests/test_exp_colfmt.cpp).
#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "exp/record.hpp"
#include "util/types.hpp"

namespace amo::exp {

/// The two on-disk spellings of a record array.
enum class record_format : std::uint8_t { json, colfmt };

/// The one version this writer emits and this reader accepts. Readers
/// must reject any other major version (docs/record_format.md).
inline constexpr std::uint16_t colfmt_version = 1;

/// The per-chunk row cap, stated as a value count: a chunk's row_count
/// times max(1, column_count) must not exceed it. Writers refuse a larger
/// chunk and readers reject one before allocating its records, so a tiny
/// crafted chunk (zero or null columns) cannot demand billions of rows.
inline constexpr std::uint64_t colfmt_max_chunk_values = std::uint64_t{1} << 20;

/// The 4-byte file magic; a buffer/file starting with anything else is
/// not a .amoc file (the sniff every loader uses).
[[nodiscard]] bool is_colfmt(std::string_view bytes);

/// Format inference from a path: ".amoc" means colfmt, everything else
/// JSON — the rule behind `out=foo.amoc` in the job grammar and `--out`
/// on the CLI.
[[nodiscard]] record_format format_for_path(std::string_view path);

/// The decoded schema header of a .amoc file.
struct colfmt_header {
  std::uint64_t grid_fp = 0;      ///< grid fingerprint; 0 = records carry none
  std::uint64_t cells_total = 0;  ///< echo of the records' cells_total (0 = none)
  std::uint64_t units_total = 0;  ///< per-unit files; 0 = aggregate/legacy
  std::uint64_t replicas = 0;     ///< echo of the records' replicas (0 = none)
  std::uint64_t record_count = 0;
  std::uint64_t chunk_count = 0;
  std::vector<std::string> columns;  ///< field keys, schema order
};

/// Encodes records into .amoc bytes. The records must share one field
/// schema (identical key sequence — every record array the sweep/merge
/// emitters produce does); false with `error` otherwise, or when a raw
/// token would not survive the round trip.
[[nodiscard]] bool colfmt_encode(const std::vector<record>& records,
                                 std::string& out, std::string& error);

/// Decodes and fully validates a .amoc buffer. Errors carry the byte
/// offset of the violation.
[[nodiscard]] parse_result colfmt_decode(std::string_view bytes);

/// Sniffs `content` and decodes it as .amoc or parses it as JSON — the
/// buffer-level half of load_records_file, for callers that already hold
/// the bytes (the dispatcher's shard validation).
[[nodiscard]] parse_result decode_records(std::string_view content);

/// Reads + sniffs + decodes a record file of either format. File and
/// decode errors come back through .error, prefixed with the path.
[[nodiscard]] parse_result load_records_file(const char* path);

/// Renders records in the requested format: JSON via render_records,
/// colfmt via colfmt_encode. False with `error` on an encode failure.
[[nodiscard]] bool render_records_as(const std::vector<record>& records,
                                     record_format format, std::string& out,
                                     std::string& error);

/// write_records_file, format-aware; both formats go through
/// util::write_file_atomic (tmp + fsync + rename).
[[nodiscard]] bool write_records_file_as(const char* path,
                                         const std::vector<record>& records,
                                         record_format format,
                                         std::string& error);

/// Streaming .amoc reader: the header is read and validated at open();
/// next_chunk() then decodes one cell's records at a time, so a merge
/// over shard files holds one chunk per shard, never a whole file.
class colfmt_reader {
 public:
  colfmt_reader() = default;
  ~colfmt_reader();
  colfmt_reader(const colfmt_reader&) = delete;
  colfmt_reader& operator=(const colfmt_reader&) = delete;

  /// Opens + validates the header. False with `error` (path + offset,
  /// errno text on I/O failure).
  [[nodiscard]] bool open(const char* path, std::string& error);

  /// Decodes the next chunk into `out` (replacing its contents). Sets
  /// `end` (with `out` empty) once the end marker closes the file. False
  /// with `error` on any violation — including content after the end
  /// marker or a file that stops before it.
  [[nodiscard]] bool next_chunk(std::vector<record>& out, bool& end,
                                std::string& error);

  [[nodiscard]] const colfmt_header& header() const { return header_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  colfmt_header header_;
  std::uint64_t offset_ = 0;       ///< file offset of the next read
  std::uint64_t chunks_seen_ = 0;
  std::uint64_t records_seen_ = 0;
};

/// Streaming .amoc writer for content too large to buffer (bench_records
/// writes a million units through it). Same crash discipline as
/// util::write_file_atomic: bytes land in "<path>.tmp", the header counts
/// and checksum are patched in place, the file is fsynced, and only then
/// renamed — a killed writer never publishes a torn artifact. The schema
/// (column table) is fixed by the first chunk's first record.
class colfmt_writer {
 public:
  colfmt_writer() = default;
  ~colfmt_writer();
  colfmt_writer(const colfmt_writer&) = delete;
  colfmt_writer& operator=(const colfmt_writer&) = delete;

  [[nodiscard]] bool open(const char* path, std::string& error);

  /// Appends one chunk (one cell's records, at least one). Every record
  /// must match the schema established by the first call.
  [[nodiscard]] bool add_chunk(const std::vector<record>& rows,
                               std::string& error);

  /// Writes the end marker, patches the header, fsyncs, renames. The
  /// writer is closed afterwards whatever the outcome.
  [[nodiscard]] bool finish(std::string& error);

  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_; }

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  std::string tmp_;
  std::string header_bytes_;  ///< header image for the finish() patch
  std::vector<std::string> columns_;
  std::uint64_t record_count_ = 0;
  std::uint64_t chunk_count_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace amo::exp
