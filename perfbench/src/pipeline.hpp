// The record path a unit takes after it has executed: render the record
// document, re-parse it, encode .amoc, write the artifact, and stream the
// artifacts back through exp::merge_stream. Each stage is a call into the
// library's public functions, clocked here so the per-layer costs need no
// probe inside the library.
#pragma once

#include <string>
#include <vector>

#include "exp/spec.hpp"
#include "util/types.hpp"

namespace perfbench {

/// Wall seconds spent per record-path stage, summed over calls.
struct stage_times {
  double execute_s = 0.0;
  double render_s = 0.0;
  double reparse_s = 0.0;
  double encode_s = 0.0;
  double write_s = 0.0;
  double merge_s = 0.0;

  [[nodiscard]] double total() const {
    return execute_s + render_s + reparse_s + encode_s + write_s + merge_s;
  }
};

/// One executed run as the per-unit record document a one-unit sharded job
/// emits (exp::add_unit_records), without wall clocks so reruns render
/// identical bytes.
[[nodiscard]] std::string render_unit_document(const amo::exp::run_spec& spec,
                                               const amo::exp::run_report& r);

/// Record JSON -> .amoc bytes through exp::parse_records and
/// exp::colfmt_encode, the two calls svc::job_result::render_output makes;
/// each is clocked into `t`. False with `error` on a parse/encode failure.
bool encode_colfmt(const std::string& json, std::string& bytes, stage_times& t,
                   std::string& error);

/// Writes an artifact into the page cache (no fsync, so the shared disk's
/// flush latency stays out of the figure). Clocked into t.write_s.
bool write_artifact(const std::string& path, const std::string& bytes,
                    stage_times& t, std::string& error);

struct merged_output {
  std::string json;  ///< the merged aggregate, rendered as a record document
  amo::usize cells = 0;
  amo::usize units = 0;
};

/// Streams the artifacts through exp::merge_stream and renders the merged
/// aggregate. Clocked into t.merge_s.
bool merge_artifacts(const std::vector<std::string>& paths, merged_output& out,
                     stage_times& t, std::string& error);

}  // namespace perfbench
