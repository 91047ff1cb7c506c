#include "svc/job.hpp"

#include <cstdio>
#include <limits>
#include <unordered_map>

#include "util/fileio.hpp"
#include "util/parse.hpp"

namespace amo::svc {

namespace {

std::string line_error(usize line_no, const std::string& why) {
  return "line " + std::to_string(line_no) + ": " + why;
}

bool parse_count(std::string_view key, std::string_view value, usize& out,
                 usize line_no, std::string& error) {
  std::uint64_t v = 0;
  if (!parse_u64(value, v)) {
    error = line_error(line_no, "bad " + std::string(key) + "= value '" +
                                    std::string(value) + "'");
    return false;
  }
  out = static_cast<usize>(v);
  return true;
}

}  // namespace

std::string to_line(const job& j) {
  std::string out;
  for (const std::string& name : j.scenarios) {
    if (!out.empty()) out += ' ';
    out += name;
  }
  char buf[192];
  std::snprintf(buf, sizeof buf,
                " n=%zu m=%zu beta=%zu eps=%u seed=%llu seeds=%zu replicas=%zu",
                j.params.n, j.params.m, j.params.beta, j.params.eps_inv,
                static_cast<unsigned long long>(j.params.seed), j.params.seeds,
                j.params.replicas);
  out += buf;
  if (j.scheduled_only) out += " scheduled-only";
  if (j.no_timing) out += " no-timing";
  if (j.have_shard) out += " shard=" + exp::to_string(j.shard);
  if (!j.out.empty()) out += " out=" + j.out;
  // format= only when explicit: an inferred colfmt (out=*.amoc) is already
  // carried by the path, so canonical lines for existing jobs are unchanged.
  if (j.have_format) {
    out += j.format == exp::record_format::colfmt ? " format=colfmt"
                                                  : " format=json";
  }
  return out;
}

bool parse_job_line(std::string_view text, usize line_no, job& out,
                    bool& has_job, std::string& error) {
  job j;
  j.line = line_no;
  has_job = false;
  bool any_token = false;

  const bool scanned = for_each_token(text, [&](std::string_view tok) {
    any_token = true;

    const usize eq = tok.find('=');
    if (eq == std::string_view::npos) {
      if (tok == "scheduled-only") {
        j.scheduled_only = true;
      } else if (tok == "no-timing") {
        j.no_timing = true;
      } else if (exp::find_scenario(tok) != nullptr) {
        j.scenarios.emplace_back(tok);
      } else {
        error = line_error(line_no, "unknown scenario or flag '" +
                                        std::string(tok) + "'");
        return false;
      }
      return true;
    }

    const std::string_view key = tok.substr(0, eq);
    const std::string_view value = tok.substr(eq + 1);
    if (key == "n") {
      return parse_count(key, value, j.params.n, line_no, error);
    }
    if (key == "m") {
      return parse_count(key, value, j.params.m, line_no, error);
    }
    if (key == "beta") {
      return parse_count(key, value, j.params.beta, line_no, error);
    }
    if (key == "eps") {
      std::uint64_t v = 0;
      if (!parse_u64(value, v) || v > std::numeric_limits<unsigned>::max()) {
        error = line_error(line_no,
                           "bad eps= value '" + std::string(value) + "'");
        return false;
      }
      j.params.eps_inv = static_cast<unsigned>(v);
      return true;
    }
    if (key == "seed") {
      std::uint64_t v = 0;
      if (!parse_u64(value, v)) {
        error = line_error(line_no,
                           "bad seed= value '" + std::string(value) + "'");
        return false;
      }
      j.params.seed = v;
      return true;
    }
    if (key == "seeds") {
      return parse_count(key, value, j.params.seeds, line_no, error);
    }
    if (key == "replicas") {
      return parse_count(key, value, j.params.replicas, line_no, error);
    }
    if (key == "shard") {
      if (!exp::parse_shard(value, j.shard)) {
        error = line_error(line_no, "bad shard= value '" + std::string(value) +
                                        "' (want i/k with 0 <= i < k)");
        return false;
      }
      j.have_shard = true;
      return true;
    }
    if (key == "out") {
      if (value.empty()) {
        error = line_error(line_no, "empty out= path");
        return false;
      }
      j.out = std::string(value);
      return true;
    }
    if (key == "format") {
      if (value == "json") {
        j.format = exp::record_format::json;
      } else if (value == "colfmt") {
        j.format = exp::record_format::colfmt;
      } else {
        error = line_error(line_no, "bad format= value '" +
                                        std::string(value) +
                                        "' (want json or colfmt)");
        return false;
      }
      j.have_format = true;
      return true;
    }
    error = line_error(line_no, "unknown key '" + std::string(key) + "='");
    return false;
  });
  if (!scanned) return false;

  if (j.scenarios.empty()) {
    // Nothing but whitespace/comments is a skip; options without a
    // scenario are a malformed job.
    if (!any_token) return true;
    error = line_error(line_no, "job names no scenario (see amo_lab list)");
    return false;
  }
  if (job_output_format(j) == exp::record_format::colfmt && j.out.empty()) {
    // The service streams results over a text FIFO; binary colfmt only
    // makes sense landing in a file.
    error = line_error(line_no,
                       "format=colfmt needs an out= file (the service "
                       "stream is JSON text)");
    return false;
  }
  out = std::move(j);
  has_job = true;
  return true;
}

job_parse_result parse_batch(std::string_view text) {
  job_parse_result out;
  std::unordered_map<std::string, usize> out_paths;  // path -> first line
  usize line_no = 0;
  usize pos = 0;
  while (pos <= text.size()) {
    ++line_no;
    usize nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;

    job j;
    bool has_job = false;
    if (!parse_job_line(line, line_no, j, has_job, out.error)) {
      out.jobs.clear();
      return out;
    }
    if (!has_job) continue;
    if (!j.out.empty()) {
      const auto [it, fresh] = out_paths.emplace(j.out, line_no);
      if (!fresh) {
        out.error = line_error(
            line_no, "duplicate output path '" + j.out + "' (first used on line " +
                         std::to_string(it->second) + ")");
        out.jobs.clear();
        return out;
      }
    }
    out.jobs.push_back(std::move(j));
  }
  return out;
}

job_parse_result parse_batch_file(const char* path) {
  job_parse_result out;
  std::string doc;
  if (!read_file(path, doc, out.error)) return out;
  out = parse_batch(doc);
  if (!out.ok()) out.error = std::string(path) + ": " + out.error;
  return out;
}

}  // namespace amo::svc
