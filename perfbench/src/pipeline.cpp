#include "pipeline.hpp"

#include <memory>
#include <utility>

#include "exp/colfmt.hpp"
#include "exp/merge.hpp"
#include "exp/record.hpp"
#include "exp/report.hpp"
#include "exp/shard.hpp"
#include "util/fileio.hpp"
#include "util/stopwatch.hpp"

namespace perfbench {

std::string render_unit_document(const amo::exp::run_spec& spec,
                                 const amo::exp::run_report& r) {
  amo::exp::json_writer w;
  amo::exp::add_unit_records(w, {r}, {amo::exp::unit_ref{0, 0, 0, 1}}, 1, 1,
                             amo::exp::grid_fingerprint({spec}),
                             /*include_timing=*/false);
  return w.dump();
}

bool encode_colfmt(const std::string& json, std::string& bytes, stage_times& t,
                   std::string& error) {
  amo::stopwatch clock;
  const amo::exp::parse_result parsed = amo::exp::parse_records(json);
  t.reparse_s += clock.seconds();
  if (!parsed.ok()) {
    error = "reparse: " + parsed.error;
    return false;
  }
  clock.reset();
  const bool ok = amo::exp::colfmt_encode(parsed.records, bytes, error);
  t.encode_s += clock.seconds();
  return ok;
}

bool write_artifact(const std::string& path, const std::string& bytes,
                    stage_times& t, std::string& error) {
  amo::stopwatch clock;
  const bool ok = amo::write_file(path.c_str(), bytes, error);
  t.write_s += clock.seconds();
  return ok;
}

bool merge_artifacts(const std::vector<std::string>& paths, merged_output& out,
                     stage_times& t, std::string& error) {
  amo::stopwatch clock;
  std::vector<std::unique_ptr<amo::exp::record_source>> sources;
  sources.reserve(paths.size());
  for (const std::string& p : paths) {
    sources.push_back(amo::exp::make_file_source(p));
  }
  const amo::exp::merge_result merged =
      amo::exp::merge_stream(std::move(sources));
  if (merged.ok()) out.json = amo::exp::render_records(merged.records);
  t.merge_s += clock.seconds();
  if (!merged.ok()) {
    error = "merge: " + merged.error;
    return false;
  }
  out.cells = merged.cells_total;
  out.units = merged.units_total;
  return true;
}

}  // namespace perfbench
