#include "exp/colfmt.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "exp/report.hpp"
#include "obs/telemetry.hpp"
#include "util/fileio.hpp"
#include "util/fnv.hpp"

namespace amo::exp {

namespace {

constexpr char kMagic[4] = {'A', 'M', 'O', 'C'};
constexpr char kChunkMagic[4] = {'C', 'H', 'N', 'K'};
constexpr char kEndMarker[8] = {'A', 'M', 'O', 'C', 'E', 'N', 'D', '\n'};
constexpr usize kHeaderFixed = 60;  ///< magic..column_count, before the table
constexpr usize kChunkFixed = 20;   ///< magic, length, cell, row_count
/// "no cell field" sentinel for a chunk's cell number.
constexpr std::uint64_t kNoCell = ~std::uint64_t{0};

/// Column-block encoding tags (docs/record_format.md).
enum : std::uint8_t {
  kTagU64 = 0,   ///< raw == std::to_string(u64 value)
  kTagF64 = 1,   ///< raw == json_writer::num(double value)
  kTagStr = 2,   ///< raw == json_writer::str(decoded text)
  kTagBool = 3,  ///< raw == "true" / "false"
  kTagNull = 4,  ///< raw == "null"
  kTagVerbatim = 5,  ///< anything else: the raw token, stored byte-exact
};

// --- little-endian primitives --------------------------------------------

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void patch_u64(std::string& bytes, usize at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes[at + static_cast<usize>(i)] = static_cast<char>((v >> (8 * i)) & 0xFF);
}

std::uint16_t get_u16(const char* p) {
  return static_cast<std::uint16_t>(static_cast<unsigned char>(p[0]) |
                                    (static_cast<unsigned char>(p[1]) << 8));
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

double get_f64(const char* p) { return std::bit_cast<double>(get_u64(p)); }

/// Bounds-checked reader over a byte slice; `base` is the slice's offset
/// in the file, so every failure names an absolute position. A read past
/// the end is flagged as likely truncation — the signature of a partial
/// copy or a torn non-atomic writer.
struct cursor {
  std::string_view bytes;
  usize pos = 0;
  std::uint64_t base = 0;
  std::string error;

  [[nodiscard]] bool failed() const { return !error.empty(); }
  [[nodiscard]] std::uint64_t offset() const { return base + pos; }

  void fail(const std::string& why) {
    if (error.empty()) {
      error = "offset " + std::to_string(offset()) + ": " + why;
    }
  }

  [[nodiscard]] bool need(usize n, const char* what) {
    if (bytes.size() - pos >= n) return true;
    fail(std::string("file ends inside ") + what + " (need " +
         std::to_string(n) + " bytes, " + std::to_string(bytes.size() - pos) +
         " left) (truncated .amoc file?)");
    return false;
  }

  [[nodiscard]] const char* take(usize n) {
    const char* p = bytes.data() + pos;
    pos += n;
    return p;
  }

  void skip(usize n) { pos += n; }
};

/// Row cap for a chunk of the given width (colfmt_max_chunk_values).
[[nodiscard]] std::uint64_t max_chunk_rows(usize columns) {
  return colfmt_max_chunk_values / std::max<usize>(columns, 1);
}

// --- schema metadata ------------------------------------------------------

/// Reads a non-negative integral number field, the read_index contract.
bool meta_index(const record& rec, const char* key, std::uint64_t& out) {
  const record_field* f = rec.find(key);
  if (f == nullptr || f->type != record_field::kind::number) return false;
  if (f->number < 0 || f->number != std::floor(f->number)) return false;
  out = static_cast<std::uint64_t>(f->number);
  return true;
}

/// The grid fingerprint as the records spell it: 16 lowercase hex digits.
std::uint64_t meta_grid(const record& rec) {
  const record_field* f = rec.find("grid");
  if (f == nullptr || f->type != record_field::kind::string ||
      f->text.size() != 16) {
    return 0;
  }
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(f->text.data(), f->text.data() + 16, v, 16);
  if (ec != std::errc{} || end != f->text.data() + 16) return 0;
  return v;
}

/// Fills the header's record-derived fields from the first record.
void header_meta_from(const record& rec, colfmt_header& h) {
  h.grid_fp = meta_grid(rec);
  meta_index(rec, "cells_total", h.cells_total);
  meta_index(rec, "units_total", h.units_total);
  meta_index(rec, "replicas", h.replicas);
}

/// Serializes the header image with the given counts; the checksum is the
/// final u64, over every preceding byte.
std::string build_header_bytes(const colfmt_header& h) {
  std::string out;
  out.append(kMagic, sizeof kMagic);
  put_u16(out, colfmt_version);
  put_u16(out, 0);  // flags: must be zero in v1
  put_u64(out, h.grid_fp);
  put_u64(out, h.cells_total);
  put_u64(out, h.units_total);
  put_u64(out, h.replicas);
  put_u64(out, h.record_count);
  put_u64(out, h.chunk_count);
  put_u32(out, static_cast<std::uint32_t>(h.columns.size()));
  for (const std::string& key : h.columns) {
    put_u16(out, static_cast<std::uint16_t>(key.size()));
    out += key;
  }
  put_u64(out, fnv1a64(out));
  return out;
}

bool schema_matches(const record& rec, const std::vector<std::string>& columns,
                    usize rec_no, std::string& error) {
  if (rec.fields.size() != columns.size()) {
    error = "record " + std::to_string(rec_no) + " has " +
            std::to_string(rec.fields.size()) + " fields where the file schema has " +
            std::to_string(columns.size()) +
            " (colfmt requires one uniform record schema per file)";
    return false;
  }
  for (usize i = 0; i < columns.size(); ++i) {
    if (rec.fields[i].key != columns[i]) {
      error = "record " + std::to_string(rec_no) + " field " +
              std::to_string(i) + " is '" + rec.fields[i].key +
              "' where the file schema has '" + columns[i] +
              "' (colfmt requires one uniform record schema per file)";
      return false;
    }
  }
  return true;
}

// --- block classification -------------------------------------------------

/// True when decoding tag `t` provably reproduces this field byte-exactly.
bool admits(const record_field& f, std::uint8_t t) {
  using K = record_field::kind;
  switch (t) {
    case kTagU64: {
      if (f.type != K::number) return false;
      std::uint64_t v = 0;
      const char* first = f.raw.data();
      const char* last = first + f.raw.size();
      const auto [end, ec] = std::from_chars(first, last, v);
      return ec == std::errc{} && end == last && std::to_string(v) == f.raw;
    }
    case kTagF64:
      return f.type == K::number && json_writer::num(f.number) == f.raw;
    case kTagStr:
      return f.type == K::string && json_writer::str(f.text) == f.raw;
    case kTagBool:
      return f.type == K::boolean &&
             f.raw == (f.truth ? "true" : "false");
    case kTagNull:
      return f.type == K::null && f.raw == "null";
    default: return true;  // verbatim admits everything parseable
  }
}

std::uint8_t classify_column(const std::vector<const record*>& rows, usize col) {
  static constexpr std::uint8_t order[] = {kTagBool, kTagNull, kTagU64,
                                           kTagF64, kTagStr};
  for (const std::uint8_t t : order) {
    bool all = true;
    for (const record* r : rows) {
      if (!admits(r->fields[col], t)) {
        all = false;
        break;
      }
    }
    if (all) return t;
  }
  return kTagVerbatim;
}

// --- chunk encode ---------------------------------------------------------

/// Encodes one chunk (magic..checksum) for rows that already passed the
/// schema check. False when the chunk exceeds the row cap or a verbatim
/// token would not re-parse.
bool encode_chunk_bytes(const std::vector<const record*>& rows,
                        const std::vector<std::string>& columns,
                        std::uint64_t cell, std::string& out,
                        std::string& error) {
  if (rows.size() > max_chunk_rows(columns.size())) {
    error = "a chunk of " + std::to_string(rows.size()) + " rows x " +
            std::to_string(columns.size()) + " columns exceeds the " +
            std::to_string(colfmt_max_chunk_values) +
            "-value chunk cap (docs/record_format.md)";
    return false;
  }
  out.clear();
  out.append(kChunkMagic, sizeof kChunkMagic);
  put_u32(out, 0);  // chunk_bytes, patched below
  put_u64(out, cell);
  put_u32(out, static_cast<std::uint32_t>(rows.size()));

  for (usize c = 0; c < columns.size(); ++c) {
    const std::uint8_t tag = classify_column(rows, c);
    out.push_back(static_cast<char>(tag));
    switch (tag) {
      case kTagU64: {
        std::uint64_t lo = ~std::uint64_t{0};
        std::uint64_t hi = 0;
        std::string values;
        for (const record* r : rows) {
          std::uint64_t v = 0;
          std::from_chars(r->fields[c].raw.data(),
                          r->fields[c].raw.data() + r->fields[c].raw.size(), v);
          if (v < lo) lo = v;
          if (v > hi) hi = v;
          put_u64(values, v);
        }
        if (rows.empty()) lo = 0;
        put_u64(out, lo);
        put_u64(out, hi);
        out += values;
        break;
      }
      case kTagF64: {
        double lo = 0.0;
        double hi = 0.0;
        std::string values;
        for (usize i = 0; i < rows.size(); ++i) {
          const double v = rows[i]->fields[c].number;
          if (i == 0 || v < lo) lo = v;
          if (i == 0 || v > hi) hi = v;
          put_f64(values, v);
        }
        put_f64(out, lo);
        put_f64(out, hi);
        out += values;
        break;
      }
      case kTagStr:
        for (const record* r : rows) {
          put_u32(out, static_cast<std::uint32_t>(r->fields[c].text.size()));
          out += r->fields[c].text;
        }
        break;
      case kTagBool:
        for (usize i = 0; i < rows.size(); i += 8) {
          unsigned byte = 0;
          for (usize b = 0; b < 8 && i + b < rows.size(); ++b) {
            if (rows[i + b]->fields[c].truth) byte |= 1u << b;
          }
          out.push_back(static_cast<char>(byte));
        }
        break;
      case kTagNull: break;
      default:  // verbatim: every token must survive a re-parse
        for (const record* r : rows) {
          record_field check;
          std::string perr;
          if (!parse_value_token(r->fields[c].raw, check, perr)) {
            error = "field '" + columns[c] + "' holds token '" +
                    r->fields[c].raw +
                    "' that no encoding can round-trip: " + perr;
            return false;
          }
          put_u32(out, static_cast<std::uint32_t>(r->fields[c].raw.size()));
          out += r->fields[c].raw;
        }
        break;
    }
  }

  out.resize(out.size() + 8);  // checksum slot
  const std::uint32_t total = static_cast<std::uint32_t>(out.size());
  out[4] = static_cast<char>(total & 0xFF);
  out[5] = static_cast<char>((total >> 8) & 0xFF);
  out[6] = static_cast<char>((total >> 16) & 0xFF);
  out[7] = static_cast<char>((total >> 24) & 0xFF);
  patch_u64(out, out.size() - 8,
            fnv1a64(std::string_view(out.data(), out.size() - 8)));
  return true;
}

/// Splits records into chunk ranges: maximal runs of consecutive records
/// sharing one integral "cell" value; records without one stand alone.
std::vector<std::pair<usize, usize>> chunk_ranges(
    const std::vector<record>& records, std::vector<std::uint64_t>& cells) {
  std::vector<std::pair<usize, usize>> out;
  cells.clear();
  for (usize first = 0; first < records.size();) {
    std::uint64_t cell = kNoCell;
    usize last = first + 1;
    if (meta_index(records[first], "cell", cell)) {
      std::uint64_t next = 0;
      while (last < records.size() &&
             meta_index(records[last], "cell", next) && next == cell) {
        ++last;
      }
    }
    out.emplace_back(first, last);
    cells.push_back(cell);
    first = last;
  }
  return out;
}

// --- chunk decode ---------------------------------------------------------

/// Decodes one chunk slice (magic..checksum, checksum already verified by
/// the caller) into records appended to `out`. `owed` is how many records
/// the checksummed header still promises; the row count is checked against
/// it and the row cap before anything is allocated.
bool decode_chunk_blocks(std::string_view chunk, std::uint64_t base,
                         const std::vector<std::string>& columns,
                         std::uint64_t owed, std::vector<record>& out,
                         std::string& error) {
  cursor cur{chunk, kChunkFixed, base, {}};
  const std::uint32_t rows = get_u32(chunk.data() + 16);
  if (rows > owed) {
    error = "offset " + std::to_string(base + 16) + ": chunk declares " +
            std::to_string(rows) + " rows but the header owes only " +
            std::to_string(owed) + " more records";
    return false;
  }
  if (rows > max_chunk_rows(columns.size())) {
    error = "offset " + std::to_string(base + 16) + ": chunk declares " +
            std::to_string(rows) + " rows x " +
            std::to_string(columns.size()) + " columns, above the " +
            std::to_string(colfmt_max_chunk_values) + "-value chunk cap";
    return false;
  }

  const usize start = out.size();
  out.resize(start + rows);
  for (usize r = 0; r < rows; ++r) out[start + r].fields.resize(columns.size());

  for (usize c = 0; c < columns.size() && !cur.failed(); ++c) {
    if (!cur.need(1, "a column block tag")) break;
    const std::uint8_t tag = static_cast<std::uint8_t>(*cur.take(1));
    switch (tag) {
      case kTagU64: {
        if (!cur.need(16 + usize{rows} * 8, "a u64 column block")) break;
        cur.skip(16);  // min/max: advisory statistics, not re-validated
        for (usize r = 0; r < rows; ++r) {
          const std::uint64_t v = get_u64(cur.take(8));
          record_field& f = out[start + r].fields[c];
          f.key = columns[c];
          f.type = record_field::kind::number;
          f.raw = std::to_string(v);
          std::from_chars(f.raw.data(), f.raw.data() + f.raw.size(), f.number);
        }
        break;
      }
      case kTagF64: {
        if (!cur.need(16 + usize{rows} * 8, "an f64 column block")) break;
        cur.skip(16);
        for (usize r = 0; r < rows; ++r) {
          const double v = get_f64(cur.take(8));
          record_field& f = out[start + r].fields[c];
          f.key = columns[c];
          f.type = record_field::kind::number;
          f.number = v;
          f.raw = json_writer::num(v);
        }
        break;
      }
      case kTagStr:
      case kTagVerbatim: {
        for (usize r = 0; r < rows && !cur.failed(); ++r) {
          if (!cur.need(4, "a string length")) break;
          const std::uint32_t len = get_u32(cur.take(4));
          if (!cur.need(len, "string bytes")) break;
          const std::string_view s(cur.take(len), len);
          record_field& f = out[start + r].fields[c];
          f.key = columns[c];
          if (tag == kTagStr) {
            f.type = record_field::kind::string;
            f.text = std::string(s);
            f.raw = json_writer::str(f.text);
          } else {
            std::string perr;
            if (!parse_value_token(s, f, perr)) {
              cur.fail("verbatim token in column '" + columns[c] +
                       "' does not parse: " + perr);
              break;
            }
            f.key = columns[c];
          }
        }
        break;
      }
      case kTagBool: {
        const usize bytes = (usize{rows} + 7) / 8;
        if (!cur.need(bytes, "a bool column bitmap")) break;
        const char* bits = cur.take(bytes);
        for (usize r = 0; r < rows; ++r) {
          record_field& f = out[start + r].fields[c];
          f.key = columns[c];
          f.type = record_field::kind::boolean;
          f.truth = (static_cast<unsigned char>(bits[r / 8]) >> (r % 8)) & 1;
          f.raw = f.truth ? "true" : "false";
        }
        break;
      }
      case kTagNull:
        for (usize r = 0; r < rows; ++r) {
          record_field& f = out[start + r].fields[c];
          f.key = columns[c];
          f.type = record_field::kind::null;
          f.raw = "null";
        }
        break;
      default:
        cur.fail("unknown column encoding tag " + std::to_string(tag) +
                 " in column '" + columns[c] + "'");
        break;
    }
  }
  if (!cur.failed() && cur.pos != chunk.size() - 8) {
    cur.fail("chunk declares " + std::to_string(chunk.size()) +
             " bytes but its column blocks end at offset " +
             std::to_string(base + cur.pos));
  }
  if (cur.failed()) {
    error = cur.error;
    out.resize(start);
    return false;
  }
  return true;
}

/// Validates the chunk frame (magic, length already bounds-checked by the
/// caller, checksum) then decodes the blocks. `chunk` spans magic..checksum.
bool decode_chunk(std::string_view chunk, std::uint64_t base,
                  const std::vector<std::string>& columns, std::uint64_t owed,
                  std::vector<record>& out, std::string& error) {
  if (std::memcmp(chunk.data(), kChunkMagic, sizeof kChunkMagic) != 0) {
    error = "offset " + std::to_string(base) +
            ": bad chunk magic (expected \"CHNK\")";
    return false;
  }
  const std::uint64_t stored = get_u64(chunk.data() + chunk.size() - 8);
  const std::uint64_t computed =
      fnv1a64(std::string_view(chunk.data(), chunk.size() - 8));
  if (stored != computed) {
    error = "offset " + std::to_string(base + chunk.size() - 8) +
            ": chunk checksum mismatch (stored " + fnv_hex64(stored) +
            ", computed " + fnv_hex64(computed) + ") (corrupted .amoc file?)";
    return false;
  }
  return decode_chunk_blocks(chunk, base, columns, owed, out, error);
}

/// Parses + validates a complete header image laid out at file offset 0.
/// On success `header_len` is the byte length including the checksum.
bool parse_header(std::string_view bytes, colfmt_header& h, usize& header_len,
                  std::string& error) {
  // The magic is judged first, on however few bytes exist: a foreign file
  // deserves "not a .amoc file", not a truncation complaint.
  if (bytes.size() < sizeof kMagic ||
      std::memcmp(bytes.data(), kMagic, sizeof kMagic) != 0) {
    error = "offset 0: bad magic (not a .amoc file)";
    return false;
  }
  cursor cur{bytes, 0, 0, {}};
  if (!cur.need(kHeaderFixed, "the file header")) {
    error = cur.error;
    return false;
  }
  const char* p = cur.take(kHeaderFixed);
  const std::uint16_t version = get_u16(p + 4);
  if (version != colfmt_version) {
    error = "offset 4: unsupported .amoc version " + std::to_string(version) +
            " (this reader implements version " +
            std::to_string(colfmt_version) + ")";
    return false;
  }
  const std::uint16_t flags = get_u16(p + 6);
  if (flags != 0) {
    error = "offset 6: unknown header flags 0x" + fnv_hex64(flags).substr(12) +
            " (a v1 reader must refuse flags it does not implement)";
    return false;
  }
  h.grid_fp = get_u64(p + 8);
  h.cells_total = get_u64(p + 16);
  h.units_total = get_u64(p + 24);
  h.replicas = get_u64(p + 32);
  h.record_count = get_u64(p + 40);
  h.chunk_count = get_u64(p + 48);
  const std::uint32_t column_count = get_u32(p + 56);
  if (column_count > 65535) {
    error = "offset 56: implausible column count " +
            std::to_string(column_count);
    return false;
  }
  h.columns.clear();
  h.columns.reserve(column_count);
  for (std::uint32_t c = 0; c < column_count; ++c) {
    if (!cur.need(2, "a column name length")) {
      error = cur.error;
      return false;
    }
    const std::uint16_t len = get_u16(cur.take(2));
    if (!cur.need(len, "a column name")) {
      error = cur.error;
      return false;
    }
    h.columns.emplace_back(cur.take(len), len);
  }
  const usize checksum_at = cur.pos;
  if (!cur.need(8, "the header checksum")) {
    error = cur.error;
    return false;
  }
  const std::uint64_t stored = get_u64(cur.take(8));
  const std::uint64_t computed =
      fnv1a64(std::string_view(bytes.data(), checksum_at));
  if (stored != computed) {
    error = "offset " + std::to_string(checksum_at) +
            ": header checksum mismatch (stored " + fnv_hex64(stored) +
            ", computed " + fnv_hex64(computed) + ") (corrupted .amoc file?)";
    return false;
  }
  header_len = cur.pos;
  return true;
}

/// Post-decode consistency: the header's record-derived fields must match
/// what the decoded records themselves say.
bool check_header_meta(const colfmt_header& h,
                       const std::vector<record>& records, std::string& error) {
  colfmt_header from_records;
  if (!records.empty()) header_meta_from(records[0], from_records);
  if (h.grid_fp != from_records.grid_fp ||
      h.cells_total != from_records.cells_total ||
      h.units_total != from_records.units_total ||
      h.replicas != from_records.replicas) {
    error = "header grid/cells_total/units_total/replicas disagree with the "
            "decoded records (inconsistent .amoc file)";
    return false;
  }
  return true;
}

}  // namespace

bool is_colfmt(std::string_view bytes) {
  return bytes.size() >= sizeof kMagic &&
         std::memcmp(bytes.data(), kMagic, sizeof kMagic) == 0;
}

record_format format_for_path(std::string_view path) {
  return path.size() >= 5 && path.substr(path.size() - 5) == ".amoc"
             ? record_format::colfmt
             : record_format::json;
}

bool colfmt_encode(const std::vector<record>& records, std::string& out,
                   std::string& error) {
  colfmt_header h;
  if (!records.empty()) {
    header_meta_from(records[0], h);
    h.columns.reserve(records[0].fields.size());
    for (const record_field& f : records[0].fields) h.columns.push_back(f.key);
  }
  for (usize i = 0; i < records.size(); ++i) {
    if (!schema_matches(records[i], h.columns, i, error)) return false;
  }
  h.record_count = records.size();

  std::vector<std::uint64_t> cells;
  const std::vector<std::pair<usize, usize>> ranges =
      chunk_ranges(records, cells);
  h.chunk_count = ranges.size();

  out = build_header_bytes(h);
  std::string chunk;
  std::vector<const record*> rows;
  for (usize i = 0; i < ranges.size(); ++i) {
    rows.clear();
    for (usize r = ranges[i].first; r < ranges[i].second; ++r) {
      rows.push_back(&records[r]);
    }
    if (!encode_chunk_bytes(rows, h.columns, cells[i], chunk, error)) {
      out.clear();
      return false;
    }
    out += chunk;
  }
  out.append(kEndMarker, sizeof kEndMarker);
  return true;
}

parse_result colfmt_decode(std::string_view bytes) {
  parse_result out;
  colfmt_header h;
  usize pos = 0;
  if (!parse_header(bytes, h, pos, out.error)) return out;

  std::uint64_t chunks = 0;
  for (;;) {
    if (bytes.size() - pos < sizeof kEndMarker) {
      out.error = "offset " + std::to_string(pos) +
                  ": file ends before the end marker (truncated .amoc file?)";
      break;
    }
    if (std::memcmp(bytes.data() + pos, kEndMarker, sizeof kEndMarker) == 0) {
      pos += sizeof kEndMarker;
      if (pos != bytes.size()) {
        out.error = "offset " + std::to_string(pos) +
                    ": trailing content after the end marker";
      }
      break;
    }
    if (bytes.size() - pos < kChunkFixed + 8) {
      out.error = "offset " + std::to_string(pos) +
                  ": file ends inside a chunk frame (truncated .amoc file?)";
      break;
    }
    const std::uint32_t chunk_bytes = get_u32(bytes.data() + pos + 4);
    if (chunk_bytes < kChunkFixed + 8) {
      out.error = "offset " + std::to_string(pos + 4) +
                  ": chunk length " + std::to_string(chunk_bytes) +
                  " below the " + std::to_string(kChunkFixed + 8) +
                  "-byte minimum";
      break;
    }
    if (chunk_bytes > bytes.size() - pos) {
      out.error = "offset " + std::to_string(pos + 4) + ": chunk length " +
                  std::to_string(chunk_bytes) + " exceeds the " +
                  std::to_string(bytes.size() - pos) +
                  " bytes left in the file (truncated .amoc file?)";
      break;
    }
    if (!decode_chunk(bytes.substr(pos, chunk_bytes), pos, h.columns,
                      h.record_count - out.records.size(), out.records,
                      out.error)) {
      break;
    }
    pos += chunk_bytes;
    ++chunks;
  }
  if (out.ok() && chunks != h.chunk_count) {
    out.error = "header declares " + std::to_string(h.chunk_count) +
                " chunks but the file holds " + std::to_string(chunks);
  }
  if (out.ok() && out.records.size() != h.record_count) {
    out.error = "header declares " + std::to_string(h.record_count) +
                " records but the chunks hold " +
                std::to_string(out.records.size());
  }
  if (out.ok()) check_header_meta(h, out.records, out.error);
  if (!out.ok()) out.records.clear();
  return out;
}

parse_result decode_records(std::string_view content) {
  return is_colfmt(content) ? colfmt_decode(content) : parse_records(content);
}

parse_result load_records_file(const char* path) {
  parse_result out;
  std::string content;
  if (!read_file(path, content, out.error)) return out;
  out = decode_records(content);
  if (!out.ok()) out.error = std::string(path) + ": " + out.error;
  return out;
}

bool render_records_as(const std::vector<record>& records,
                       record_format format, std::string& out,
                       std::string& error) {
  if (format == record_format::json) {
    out = render_records(records);
    return true;
  }
  return colfmt_encode(records, out, error);
}

bool write_records_file_as(const char* path,
                           const std::vector<record>& records,
                           record_format format, std::string& error) {
  std::string content;
  if (!render_records_as(records, format, content, error)) return false;
  return write_file_atomic(path, content, error);
}

// --- streaming reader -----------------------------------------------------

colfmt_reader::~colfmt_reader() {
  if (file_ != nullptr) std::fclose(file_);
}

namespace {

/// Appends exactly `n` bytes of `f` to `buf`; on a short read reports the
/// absolute offset, the errno text for hard errors, and the truncation
/// hint for a clean early EOF.
bool read_exact(std::FILE* f, usize n, std::string& buf, std::uint64_t offset,
                const char* what, std::string& error) {
  const usize start = buf.size();
  buf.resize(start + n);
  const usize got = std::fread(buf.data() + start, 1, n, f);
  if (got == n) return true;
  buf.resize(start + got);
  if (std::ferror(f) != 0) {
    error = "offset " + std::to_string(offset + got) + ": cannot read " +
            what + ": " + std::strerror(errno);
  } else {
    error = "offset " + std::to_string(offset + got) + ": file ends inside " +
            what + " (need " + std::to_string(n) + " bytes, " +
            std::to_string(got) + " read) (truncated .amoc file?)";
  }
  return false;
}

}  // namespace

bool colfmt_reader::open(const char* path, std::string& error) {
  path_ = path;
  file_ = std::fopen(path, "rb");
  if (file_ == nullptr) {
    error = std::string("cannot open ") + path + ": " + std::strerror(errno);
    return false;
  }
  // Accumulate the variable-length header into a buffer, then reuse the
  // buffer-level parser (one definition of the validation rules). The
  // magic is judged on its own first: a short foreign file deserves "not
  // a .amoc file", not a truncation complaint.
  std::string buf;
  if (!read_exact(file_, sizeof kMagic, buf, 0, "the file magic", error)) {
    error = path_ + ": " + error;
    return false;
  }
  if (std::memcmp(buf.data(), kMagic, sizeof kMagic) != 0) {
    error = path_ + ": offset 0: bad magic (not a .amoc file)";
    return false;
  }
  if (!read_exact(file_, kHeaderFixed - sizeof kMagic, buf, buf.size(),
                  "the file header", error)) {
    error = path_ + ": " + error;
    return false;
  }
  const std::uint32_t column_count = get_u32(buf.data() + 56);
  if (column_count <= 65535) {
    for (std::uint32_t c = 0; c < column_count; ++c) {
      if (!read_exact(file_, 2, buf, buf.size(), "a column name length",
                      error)) {
        error = path_ + ": " + error;
        return false;
      }
      const std::uint16_t len = get_u16(buf.data() + buf.size() - 2);
      if (!read_exact(file_, len, buf, buf.size(), "a column name", error)) {
        error = path_ + ": " + error;
        return false;
      }
    }
    if (!read_exact(file_, 8, buf, buf.size(), "the header checksum", error)) {
      error = path_ + ": " + error;
      return false;
    }
  }
  usize header_len = 0;
  if (!parse_header(buf, header_, header_len, error)) {
    error = path_ + ": " + error;
    return false;
  }
  offset_ = header_len;
  return true;
}

bool colfmt_reader::next_chunk(std::vector<record>& out, bool& end,
                               std::string& error) {
  out.clear();
  end = false;
  if (file_ == nullptr) {
    error = path_ + ": reader is not open";
    return false;
  }
  std::string buf;
  if (!read_exact(file_, sizeof kEndMarker, buf, offset_, "a chunk frame",
                  error)) {
    error = path_ + ": " + error;
    return false;
  }
  if (std::memcmp(buf.data(), kEndMarker, sizeof kEndMarker) == 0) {
    char extra = 0;
    if (std::fread(&extra, 1, 1, file_) != 0) {
      error = path_ + ": offset " +
              std::to_string(offset_ + sizeof kEndMarker) +
              ": trailing content after the end marker";
      return false;
    }
    if (chunks_seen_ != header_.chunk_count ||
        records_seen_ != header_.record_count) {
      error = path_ + ": header declares " +
              std::to_string(header_.chunk_count) + " chunks / " +
              std::to_string(header_.record_count) +
              " records but the file holds " + std::to_string(chunks_seen_) +
              " / " + std::to_string(records_seen_);
      return false;
    }
    end = true;
    return true;
  }
  if (std::memcmp(buf.data(), kChunkMagic, sizeof kChunkMagic) != 0) {
    error = path_ + ": offset " + std::to_string(offset_) +
            ": bad chunk magic (expected \"CHNK\")";
    return false;
  }
  const std::uint32_t chunk_bytes = get_u32(buf.data() + 4);
  if (chunk_bytes < kChunkFixed + 8) {
    error = path_ + ": offset " + std::to_string(offset_ + 4) +
            ": chunk length " + std::to_string(chunk_bytes) + " below the " +
            std::to_string(kChunkFixed + 8) + "-byte minimum";
    return false;
  }
  if (!read_exact(file_, chunk_bytes - sizeof kEndMarker, buf,
                  offset_ + sizeof kEndMarker, "a chunk", error)) {
    error = path_ + ": " + error;
    return false;
  }
  if (!decode_chunk(buf, offset_, header_.columns,
                    header_.record_count - records_seen_, out, error)) {
    error = path_ + ": " + error;
    return false;
  }
  offset_ += chunk_bytes;
  ++chunks_seen_;
  records_seen_ += out.size();
  obs::counter("merge", "chunks_read", static_cast<double>(chunks_seen_));
  if (chunks_seen_ > header_.chunk_count) {
    error = path_ + ": offset " + std::to_string(offset_) +
            ": more chunks than the header declares";
    return false;
  }
  return true;
}

// --- streaming writer -----------------------------------------------------

colfmt_writer::~colfmt_writer() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(tmp_.c_str());
  }
}

bool colfmt_writer::open(const char* path, std::string& error) {
  path_ = path;
  tmp_ = path_ + ".tmp";
  file_ = std::fopen(tmp_.c_str(), "wb");
  if (file_ == nullptr) {
    error = "cannot open " + tmp_ + " for writing: " + std::strerror(errno);
    return false;
  }
  return true;
}

bool colfmt_writer::add_chunk(const std::vector<record>& rows,
                              std::string& error) {
  if (file_ == nullptr) {
    error = "colfmt_writer: not open";
    return false;
  }
  if (rows.empty()) {
    error = "colfmt_writer: a chunk needs at least one record";
    return false;
  }
  if (header_bytes_.empty()) {
    // First chunk fixes the schema; counts stay zero until finish().
    colfmt_header h;
    header_meta_from(rows[0], h);
    for (const record_field& f : rows[0].fields) columns_.push_back(f.key);
    h.columns = columns_;
    header_bytes_ = build_header_bytes(h);
    if (std::fwrite(header_bytes_.data(), 1, header_bytes_.size(), file_) !=
        header_bytes_.size()) {
      error = "cannot write " + tmp_ + ": " + std::strerror(errno);
      return false;
    }
    bytes_ = header_bytes_.size();
  }
  for (usize i = 0; i < rows.size(); ++i) {
    if (!schema_matches(rows[i], columns_, record_count_ + i, error)) {
      return false;
    }
  }
  std::uint64_t cell = kNoCell;
  meta_index(rows[0], "cell", cell);
  std::vector<const record*> ptrs;
  ptrs.reserve(rows.size());
  for (const record& r : rows) ptrs.push_back(&r);
  std::string chunk;
  if (!encode_chunk_bytes(ptrs, columns_, cell, chunk, error)) return false;
  if (std::fwrite(chunk.data(), 1, chunk.size(), file_) != chunk.size()) {
    error = "cannot write " + tmp_ + ": " + std::strerror(errno);
    return false;
  }
  bytes_ += chunk.size();
  record_count_ += rows.size();
  ++chunk_count_;
  obs::counter("merge", "chunks_written", static_cast<double>(chunk_count_));
  return true;
}

bool colfmt_writer::finish(std::string& error) {
  if (file_ == nullptr) {
    error = "colfmt_writer: not open";
    return false;
  }
  if (header_bytes_.empty()) header_bytes_ = build_header_bytes({});
  bool ok = std::fwrite(kEndMarker, 1, sizeof kEndMarker, file_) ==
            sizeof kEndMarker;
  bytes_ += sizeof kEndMarker;
  // Patch the counts and recompute the checksum in the buffered header
  // image, then rewrite it in place.
  patch_u64(header_bytes_, 40, record_count_);
  patch_u64(header_bytes_, 48, chunk_count_);
  patch_u64(header_bytes_, header_bytes_.size() - 8,
            fnv1a64(std::string_view(header_bytes_.data(),
                                     header_bytes_.size() - 8)));
  ok = ok && std::fseek(file_, 0, SEEK_SET) == 0 &&
       std::fwrite(header_bytes_.data(), 1, header_bytes_.size(), file_) ==
           header_bytes_.size() &&
       std::fflush(file_) == 0;
#if !defined(_WIN32)
  if (ok && ::fsync(::fileno(file_)) != 0 && errno != EINVAL) ok = false;
#endif
  if (std::fclose(file_) != 0) ok = false;
  file_ = nullptr;
  if (!ok) {
    error = "cannot write " + tmp_ + ": " + std::strerror(errno);
    std::remove(tmp_.c_str());
    return false;
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    error = "cannot rename " + tmp_ + " to " + path_ + ": " +
            std::strerror(errno);
    std::remove(tmp_.c_str());
    return false;
  }
  return true;
}

}  // namespace amo::exp
