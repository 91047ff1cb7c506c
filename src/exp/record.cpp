#include "exp/record.hpp"

#include <locale.h>
#include <stdlib.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <memory>

#include "exp/report.hpp"
#include "util/fileio.hpp"

namespace amo::exp {

namespace {

/// Cursor over the document with line tracking for error messages.
struct scanner {
  std::string_view doc = {};
  usize pos = 0;
  usize line = 1;
  std::string error;

  [[nodiscard]] bool failed() const { return !error.empty(); }

  void fail(const std::string& why) {
    if (error.empty()) error = "line " + std::to_string(line) + ": " + why;
  }

  [[nodiscard]] bool eof() const { return pos >= doc.size(); }
  [[nodiscard]] char peek() const { return doc[pos]; }

  char take() {
    const char c = doc[pos++];
    if (c == '\n') ++line;
    return c;
  }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      take();
    }
  }

  /// Consumes `c` or fails.
  bool expect(char c) {
    skip_ws();
    if (eof() || peek() != c) {
      fail(std::string("expected '") + c + "'");
      return false;
    }
    take();
    return true;
  }
};

void append_utf8(std::string& out, unsigned code) {
  if (code < 0x80) {
    out += static_cast<char>(code);
  } else if (code < 0x800) {
    out += static_cast<char>(0xC0 | (code >> 6));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else if (code < 0x10000) {
    out += static_cast<char>(0xE0 | (code >> 12));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (code >> 18));
    out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (code & 0x3F));
  }
}

/// Reads exactly four hex digits of a \u escape into `code`, echoing them
/// into `raw`.
bool read_hex4(scanner& sc, std::string& raw, unsigned& code) {
  code = 0;
  for (int i = 0; i < 4; ++i) {
    if (sc.eof()) {
      sc.fail("truncated \\u escape");
      return false;
    }
    const char h = sc.take();
    raw += h;
    code <<= 4;
    if (h >= '0' && h <= '9') {
      code |= static_cast<unsigned>(h - '0');
    } else if (h >= 'a' && h <= 'f') {
      code |= static_cast<unsigned>(h - 'a' + 10);
    } else if (h >= 'A' && h <= 'F') {
      code |= static_cast<unsigned>(h - 'A' + 10);
    } else {
      sc.fail("bad \\u escape");
      return false;
    }
  }
  return true;
}

/// Parses a JSON string token (opening quote already expected by caller);
/// yields both the decoded text and the raw token including quotes.
bool parse_string(scanner& sc, std::string& decoded, std::string& raw) {
  if (!sc.expect('"')) return false;
  raw.clear();
  raw.push_back('"');
  decoded.clear();
  while (true) {
    if (sc.eof()) {
      sc.fail("unterminated string");
      return false;
    }
    const char c = sc.take();
    raw += c;
    if (c == '"') return true;
    if (c != '\\') {
      decoded += c;
      continue;
    }
    if (sc.eof()) {
      sc.fail("unterminated escape");
      return false;
    }
    const char esc = sc.take();
    raw += esc;
    switch (esc) {
      case '"': decoded += '"'; break;
      case '\\': decoded += '\\'; break;
      case '/': decoded += '/'; break;
      case 'b': decoded += '\b'; break;
      case 'f': decoded += '\f'; break;
      case 'n': decoded += '\n'; break;
      case 't': decoded += '\t'; break;
      case 'r': decoded += '\r'; break;
      case 'u': {
        unsigned code = 0;
        if (!read_hex4(sc, raw, code)) return false;
        if (code >= 0xD800 && code <= 0xDBFF) {
          // Surrogate pair: a non-BMP codepoint split across two escapes
          // must decode to one 4-byte UTF-8 sequence, not CESU-8 — else
          // the same adversary label written escaped vs raw would compare
          // unequal in diff/merge identity keys.
          if (sc.eof() || sc.take() != '\\' || sc.eof() || sc.take() != 'u') {
            sc.fail("unpaired high surrogate in \\u escape");
            return false;
          }
          raw += "\\u";
          unsigned low = 0;
          if (!read_hex4(sc, raw, low)) return false;
          if (low < 0xDC00 || low > 0xDFFF) {
            sc.fail("bad low surrogate in \\u escape");
            return false;
          }
          code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        } else if (code >= 0xDC00 && code <= 0xDFFF) {
          sc.fail("unpaired low surrogate in \\u escape");
          return false;
        }
        append_utf8(decoded, code);
        break;
      }
      default: sc.fail("unknown escape"); return false;
    }
  }
}

bool parse_value(scanner& sc, record_field& f) {
  sc.skip_ws();
  if (sc.eof()) {
    sc.fail("expected a value");
    return false;
  }
  const char c = sc.peek();
  if (c == '"') {
    f.type = record_field::kind::string;
    return parse_string(sc, f.text, f.raw);
  }
  if (c == '{' || c == '[') {
    sc.fail("nested containers are not part of the flat record schema");
    return false;
  }
  if (c == 't' || c == 'f' || c == 'n') {
    static constexpr std::string_view words[] = {"true", "false", "null"};
    for (const std::string_view w : words) {
      if (sc.doc.substr(sc.pos, w.size()) == w) {
        for (usize i = 0; i < w.size(); ++i) sc.take();
        f.raw = w;
        if (w == "null") {
          f.type = record_field::kind::null;
        } else {
          f.type = record_field::kind::boolean;
          f.truth = (w == "true");
        }
        return true;
      }
    }
    sc.fail("bad literal");
    return false;
  }
  // Number: take the maximal [-+0-9.eE] run and let from_chars validate it
  // (strtod obeys LC_NUMERIC and would both misparse "0.5" and accept
  // locale-specific spellings under a comma-decimal locale; from_chars is
  // locale-independent and round-trip-exact against json_writer::num).
  const usize start = sc.pos;
  while (!sc.eof()) {
    const char d = sc.peek();
    const bool numeric = (d >= '0' && d <= '9') || d == '-' || d == '+' ||
                         d == '.' || d == 'e' || d == 'E';
    if (!numeric) break;
    sc.take();
  }
  if (sc.pos == start) {
    sc.fail("expected a value");
    return false;
  }
  f.raw = std::string(sc.doc.substr(start, sc.pos - start));
  // from_chars rejects a leading '+' that strtod tolerated; keep accepting
  // it for foreign documents ("+1e3") without changing the stored raw.
  const char* first = f.raw.c_str();
  const char* last = first + f.raw.size();
  if (first != last && *first == '+') ++first;
  const auto [end, ec] = std::from_chars(first, last, f.number);
  if (ec == std::errc::result_out_of_range && end == last) {
    // A well-formed number whose magnitude exceeds double (1e999, 1e-999):
    // strtod used to clamp these to ±inf / ±0 and prior releases accepted
    // such artifacts, so keep doing that. from_chars leaves the value
    // unmodified here, and the clamp direction needs a real float parse —
    // delegate to strtod pinned to the "C" locale (the token's '.' must
    // not be re-read under a comma-decimal LC_NUMERIC). Should newlocale
    // ever fail (ENOMEM), fall back to the ambient-locale strtod rather
    // than hand a null locale_t to strtod_l (undefined behavior).
    static const locale_t c_locale = ::newlocale(LC_ALL_MASK, "C", nullptr);
    f.number = c_locale != static_cast<locale_t>(nullptr)
                   ? ::strtod_l(first, nullptr, c_locale)
                   : ::strtod(first, nullptr);
  } else if (ec != std::errc{} || end != last) {
    sc.fail("malformed number '" + f.raw + "'");
    return false;
  }
  f.type = record_field::kind::number;
  return true;
}

bool parse_object(scanner& sc, record& rec) {
  if (!sc.expect('{')) return false;
  sc.skip_ws();
  if (!sc.eof() && sc.peek() == '}') {
    sc.take();
    return true;
  }
  while (true) {
    record_field f;
    std::string raw_key;
    sc.skip_ws();
    if (!parse_string(sc, f.key, raw_key)) return false;
    if (!sc.expect(':')) return false;
    if (!parse_value(sc, f)) return false;
    rec.fields.push_back(std::move(f));
    sc.skip_ws();
    if (sc.eof()) {
      sc.fail("unterminated object");
      return false;
    }
    const char c = sc.take();
    if (c == '}') return true;
    if (c != ',') {
      sc.fail("expected ',' or '}' in object");
      return false;
    }
  }
}

}  // namespace

const record_field* record::find(std::string_view key) const {
  for (const record_field& f : fields) {
    if (f.key == key) return &f;
  }
  return nullptr;
}

bool read_index(const record& rec, std::string_view key, usize& out) {
  const record_field* f = rec.find(key);
  if (f == nullptr || f->type != record_field::kind::number) return false;
  if (!(f->number >= 0) || f->number != std::floor(f->number) ||
      f->number >= 18446744073709551616.0) {
    return false;
  }
  out = static_cast<usize>(f->number);
  return true;
}

bool parse_value_token(std::string_view token, record_field& f,
                       std::string& error) {
  scanner sc;
  sc.doc = token;
  record_field parsed;
  if (!parse_value(sc, parsed)) {
    error = sc.error;
    return false;
  }
  sc.skip_ws();
  if (!sc.eof()) {
    error = "trailing content after value token '" + std::string(token) + "'";
    return false;
  }
  f = std::move(parsed);
  return true;
}

parse_result parse_records(std::string_view doc) {
  parse_result out;
  scanner sc;
  sc.doc = doc;
  if (!sc.expect('[')) {
    out.error = sc.error;
    return out;
  }
  sc.skip_ws();
  if (!sc.eof() && sc.peek() == ']') {
    sc.take();
  } else {
    while (true) {
      record rec;
      if (!parse_object(sc, rec)) break;
      out.records.push_back(std::move(rec));
      sc.skip_ws();
      if (sc.eof()) {
        sc.fail("unterminated array");
        break;
      }
      const char c = sc.take();
      if (c == ']') break;
      if (c != ',') {
        sc.fail("expected ',' or ']' in array");
        break;
      }
    }
  }
  if (!sc.failed()) {
    sc.skip_ws();
    if (!sc.eof()) sc.fail("trailing content after the record array");
  }
  out.error = sc.error;
  // A failure with the cursor at EOF is the signature of a document cut
  // short mid-token — name the likely cause (a torn artifact from a
  // non-atomic writer) so merge/dispatch diagnostics point at the file,
  // not the parser.
  if (!out.ok() && sc.eof()) out.error += " (truncated document?)";
  if (!out.ok()) out.records.clear();
  return out;
}

parse_result parse_records_file(const char* path) {
  parse_result out;
  std::string doc;
  if (!read_file(path, doc, out.error)) return out;
  out = parse_records(doc);
  if (!out.ok()) out.error = std::string(path) + ": " + out.error;
  return out;
}

std::string render_records(const std::vector<record>& records) {
  // Rebuilt through json_writer so the row format ("  {...}," etc.) has
  // exactly one definition; values pass through as their raw tokens.
  json_writer json;
  for (const record& rec : records) {
    std::vector<std::pair<std::string, std::string>> fields;
    fields.reserve(rec.fields.size());
    for (const record_field& f : rec.fields) fields.emplace_back(f.key, f.raw);
    json.add(fields);
  }
  return json.dump();
}

}  // namespace amo::exp
