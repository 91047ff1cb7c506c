#include "svc/fault.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/telemetry.hpp"
#include "util/fileio.hpp"
#include "util/parse.hpp"
#include "util/prng.hpp"

namespace amo::svc {

namespace {

struct kind_name {
  fault_kind kind;
  std::string_view name;
  std::uint64_t default_param;
};

constexpr kind_name kKinds[] = {
    {fault_kind::crash, "crash", 0},
    {fault_kind::torn, "torn", 0},
    {fault_kind::corrupt, "corrupt", 0},
    {fault_kind::hang, "hang", 0},
    {fault_kind::delay, "delay", 100},
};

bool parse_entry(std::string_view text, fault_entry& out, std::string& error) {
  fault_entry e;

  // Trailing decorations first, rightmost wins nothing: the grammar orders
  // them [:param][@key][%n/d][xN], so peel xN, then %n/d, then @key.
  // An 'x' is an attempt count only when digits follow it — kinds and
  // parameters may themselves contain letters ("explode" is not "e" x
  // "plode"; it is an unknown kind and must be reported as one).
  const usize x = text.rfind('x');
  if (x != std::string_view::npos && x > 0 && x + 1 < text.size() &&
      text.find_first_of("@%", x) == std::string_view::npos &&
      text.find_first_not_of("0123456789", x + 1) == std::string_view::npos) {
    if (!parse_u64(text.substr(x + 1), e.attempts)) {
      error = "bad attempt count in '" + std::string(text) + "'";
      return false;
    }
    text = text.substr(0, x);
  }
  const usize pct = text.find('%');
  if (pct != std::string_view::npos) {
    const std::string_view rate = text.substr(pct + 1);
    const usize slash = rate.find('/');
    if (slash == std::string_view::npos ||
        !parse_u64(rate.substr(0, slash), e.rate_num) ||
        !parse_u64(rate.substr(slash + 1), e.rate_den) || e.rate_den == 0) {
      error = "bad rate in '" + std::string(text) + "' (want %n/d, d > 0)";
      return false;
    }
    text = text.substr(0, pct);
  }
  const usize at = text.find('@');
  if (at != std::string_view::npos) {
    const std::string_view key = text.substr(at + 1);
    if (key == "*") {
      e.any_key = true;
    } else if (parse_u64(key, e.key)) {
      e.any_key = false;
    } else {
      error = "bad key in '" + std::string(text) + "' (want an index or *)";
      return false;
    }
    text = text.substr(0, at);
  }

  std::string_view kind = text;
  std::string_view param;
  const usize colon = text.find(':');
  if (colon != std::string_view::npos) {
    kind = text.substr(0, colon);
    param = text.substr(colon + 1);
  }
  for (const kind_name& k : kKinds) {
    if (kind != k.name) continue;
    e.action.kind = k.kind;
    e.action.param = k.default_param;
    if (!param.empty() && !parse_u64(param, e.action.param)) {
      error = "bad parameter in '" + std::string(text) + "'";
      return false;
    }
    out = e;
    return true;
  }
  error = "unknown fault kind '" + std::string(kind) +
          "' (want crash|torn|corrupt|hang|delay)";
  return false;
}

/// The deterministic coin behind "%n/d": pure in (seed, key, attempt).
bool rate_fires(const fault_plan& plan, const fault_entry& e,
                std::uint64_t key, std::uint64_t attempt) {
  if (e.rate_num >= e.rate_den) return true;
  std::uint64_t state = plan.seed ^ (key * 0x9E3779B97F4A7C15ull) ^
                        (attempt * 0xBF58476D1CE4E5B9ull);
  return splitmix64(state) % e.rate_den < e.rate_num;
}

}  // namespace

bool parse_fault_plan(std::string_view spec, fault_plan& out,
                      std::string& error) {
  fault_plan plan;
  usize pos = 0;
  while (pos <= spec.size()) {
    usize comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    const std::string_view item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) {
      if (spec.empty()) break;  // an empty spec is an empty plan
      error = "empty fault entry";
      return false;
    }
    if (item.substr(0, 5) == "seed=") {
      if (!parse_u64(item.substr(5), plan.seed)) {
        error = "bad seed in '" + std::string(item) + "'";
        return false;
      }
      continue;
    }
    fault_entry e;
    if (!parse_entry(item, e, error)) return false;
    plan.entries.push_back(e);
  }
  out = std::move(plan);
  return true;
}

fault_action plan_action(const fault_plan& plan, std::uint64_t key,
                         std::uint64_t attempt) {
  for (const fault_entry& e : plan.entries) {
    if (!e.any_key && e.key != key) continue;
    if (e.attempts != 0 && attempt > e.attempts) continue;
    if (!rate_fires(plan, e, key, attempt)) continue;
    return e.action;
  }
  return {};
}

std::string to_spec(const fault_action& a) {
  for (const kind_name& k : kKinds) {
    if (a.kind != k.kind) continue;
    std::string out(k.name);
    if (a.param != k.default_param) {
      out += ':';
      out += std::to_string(a.param);
    }
    return out;
  }
  return "";
}

void apply_pre_write(const fault_action& a) {
  switch (a.kind) {
    case fault_kind::crash:
      // An abrupt writer death before any output byte exists. 70 is
      // EX_SOFTWARE: unmistakably a hard failure, not a safety report.
      std::fflush(nullptr);
      std::_Exit(70);
    case fault_kind::hang:
      // Sleep far past any sane deadline; the supervisor's SIGTERM/SIGKILL
      // escalation is the only way out (default signal dispositions).
      std::this_thread::sleep_for(std::chrono::hours(1));
      return;
    case fault_kind::delay:
      std::this_thread::sleep_for(std::chrono::milliseconds(a.param));
      return;
    default:
      return;
  }
}

void mangle_output(const fault_action& a, std::string& bytes) {
  switch (a.kind) {
    case fault_kind::torn: {
      const usize keep = a.param == 0 ? bytes.size() / 2
                                      : static_cast<usize>(a.param);
      if (keep < bytes.size()) bytes.resize(keep);
      return;
    }
    case fault_kind::corrupt: {
      if (bytes.empty()) return;
      const usize offset = static_cast<usize>(a.param) % bytes.size();
      bytes[bytes.size() - 1 - offset] =
          static_cast<char>(bytes[bytes.size() - 1 - offset] ^ 0xFF);
      return;
    }
    default:
      return;
  }
}

bool write_artifact(const char* path, std::string_view content,
                    std::uint64_t key, std::string& error) {
  const fault_action a = plan_action(env_fault_plan(), key, env_fault_attempt());
  if (a.fires()) {
    // Emitted BEFORE the action applies: crash/hang never return, and the
    // trace is exactly where an injected death needs to be visible.
    if (obs::enabled()) {
      obs::instant("fault", "inject",
                   {{"action", to_spec(a)}, {"key", std::to_string(key)}});
    }
    apply_pre_write(a);  // crash and hang do not come back from this
    if (a.kind == fault_kind::torn || a.kind == fault_kind::corrupt) {
      std::string bytes(content);
      mangle_output(a, bytes);
      return write_file(path, bytes, error);
    }
  }
  return write_file_atomic(path, content, error);
}

const fault_plan& env_fault_plan() {
  static const fault_plan plan = [] {
    fault_plan p;
    const char* spec = std::getenv("AMO_FAULT");
    if (spec == nullptr || *spec == '\0') return p;
    std::string error;
    if (!parse_fault_plan(spec, p, error)) {
      std::fprintf(stderr, "AMO_FAULT ignored: %s\n", error.c_str());
      p = {};
    }
    return p;
  }();
  return plan;
}

std::uint64_t env_fault_attempt() {
  static const std::uint64_t attempt = [] {
    const char* text = std::getenv("AMO_FAULT_ATTEMPT");
    std::uint64_t value = 1;
    if (text != nullptr && *text != '\0' &&
        (!parse_u64(text, value) || value == 0)) {
      value = 1;
    }
    return value;
  }();
  return attempt;
}

}  // namespace amo::svc
