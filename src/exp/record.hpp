// The flat JSON record layer: parse and re-render the one document shape
// every BENCH_*.json file and every amo_lab --out file uses — a JSON array
// of flat objects whose values are strings, numbers, booleans or null
// (exactly what exp::json_writer emits; see docs/json_schema.md).
//
// Each parsed field keeps BOTH the decoded value (for exp::report_diff's
// numeric comparisons) and the raw source token (verbatim). Re-rendering
// raw tokens in json_writer's row format makes parse ∘ render the identity
// on writer-produced documents, which is what lets exp::merge_stream
// promise byte-identical output without ever reformatting a number.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace amo::exp {

/// One key/value field of a flat record.
struct record_field {
  enum class kind : std::uint8_t { string, number, boolean, null };

  std::string key;      ///< decoded key
  kind type = kind::null;
  std::string text;     ///< decoded value (string fields)
  double number = 0.0;  ///< numeric value (number fields)
  bool truth = false;   ///< boolean fields
  std::string raw;      ///< the value token exactly as written in the source
};

/// One flat object, fields in source order.
struct record {
  std::vector<record_field> fields;

  /// First field named `key`, or nullptr.
  [[nodiscard]] const record_field* find(std::string_view key) const;
};

struct parse_result {
  std::vector<record> records;
  std::string error;  ///< empty on success, else "line N: why"

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Parses a whole document. Arbitrary JSON whitespace is accepted; nested
/// arrays/objects are rejected (the record schema is flat by contract).
parse_result parse_records(std::string_view doc);

/// Parses ONE value token (the exact value grammar parse_records accepts:
/// string, number, true/false/null) into `f`, which keeps the token as its
/// raw. The whole token must be consumed. This is how the columnar format
/// decodes verbatim-stored tokens with semantics identical to the document
/// parser's. False with `error` on a malformed or trailing-content token.
bool parse_value_token(std::string_view token, record_field& f,
                       std::string& error);

/// fopen + parse_records; a read failure is reported through .error.
parse_result parse_records_file(const char* path);

/// Renders records exactly as json_writer would have ("[\n  {...},\n ...]\n"),
/// re-emitting each value's raw source token verbatim.
std::string render_records(const std::vector<record>& records);

/// Writes render_records() to `path` atomically (util::write_file_atomic:
/// tmp + fsync + rename, so a killed writer can never leave a torn record
/// file); false on I/O failure with `error` carrying the path and errno
/// text.
bool write_records_file(const char* path, const std::vector<record>& records,
                        std::string& error);

/// As above, for callers with nowhere to put the diagnostic.
bool write_records_file(const char* path, const std::vector<record>& records);

}  // namespace amo::exp
