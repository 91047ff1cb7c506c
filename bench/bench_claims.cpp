// The paper's checkable claims as one gated ledger.
//
// Each row names a claim, the cell or group of cells that measures it (as
// exp::run_spec values), the run_report field it reads and how a group
// folds it, the bound it is held to, the relation and the slack. A bound is
// a closed form from analysis/bounds or, for a comparative row, the same
// field on a reference cell (beta = m against beta = 3m^2, the next smaller
// n). Analytic values appear only as bounds, never as measurements. Every
// cell of every row runs in one exp::sweep, and a spec shared by several
// rows runs once. The bench prints the ledger, writes BENCH_claims.json
// (flat records without timing fields, so two runs cmp equal) into the
// working directory and exits 1 unless every row holds.
//
// Claim ids follow analysis/bounds.hpp: thm2.1 (the n-f ceiling), lem4.1
// (at most once), thm4.4 (effectiveness n-(beta+m-2), tight), lem4.3
// (wait-freedom), lem5.5 and thm5.6 (collisions), thm6.3 and thm6.4
// (IterativeKK), thm7.1 (WA_IterativeKK) and c11 (the introduction's
// comparison). Theorem 5.6's work bound is BENCH_work.json's (bench_work);
// its cells are not repeated here.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "analysis/bounds.hpp"
#include "bench_common.hpp"
#include "exp/sweep.hpp"
#include "sim/adversary.hpp"

namespace {

using namespace amo;
using exp::algo_family;
using exp::run_report;
using exp::run_spec;

enum class relation { eq, le, ge, gt, noninc };

const char* to_string(relation r) {
  switch (r) {
    case relation::eq: return "eq";
    case relation::le: return "le";
    case relation::ge: return "ge";
    case relation::gt: return "gt";
    case relation::noninc: return "noninc";
  }
  return "?";
}

/// How far inside its relation a row sits: 0 for a holding `eq`, >= 0 for
/// a holding `le`/`ge`/`noninc`, > 0 for a holding `gt`. A `noninc` row
/// measures the larger n and its bound is the same field at the next
/// smaller n, so it holds as `le`.
double slack(relation r, double measured, double bound) {
  switch (r) {
    case relation::eq: return -std::fabs(measured - bound);
    case relation::le:
    case relation::noninc: return bound - measured;
    case relation::ge:
    case relation::gt: return measured - bound;
  }
  return 0.0;
}

/// A run_report quantity a row reads.
struct field {
  const char* name;
  double (*of)(const run_report&);
};

double as_double(usize v) { return static_cast<double>(v); }

const field kEffectiveness{
    "effectiveness", [](const run_report& r) { return as_double(r.effectiveness); }};
const field kLoss{"loss",
                  [](const run_report& r) { return as_double(r.n - r.effectiveness); }};
const field kCeilingGap{"ceiling-effectiveness", [](const run_report& r) {
  return as_double(bounds::effectiveness_upper(r.n, r.crash_budget) - r.effectiveness);
}};
const field kQuiescent{"quiescent",
                       [](const run_report& r) { return r.quiescent ? 1.0 : 0.0; }};
const field kAtMostOnce{"at_most_once",
                        [](const run_report& r) { return r.at_most_once ? 1.0 : 0.0; }};
const field kWaComplete{"wa_complete",
                        [](const run_report& r) { return r.wa_complete ? 1.0 : 0.0; }};
const field kPairRatio{"worst_pair_ratio",
                       [](const run_report& r) { return r.worst_pair_ratio; }};
const field kCollisions{
    "collisions", [](const run_report& r) { return as_double(r.total_collisions); }};
const field kWork{"work", [](const run_report& r) {
  return static_cast<double>(r.total_work.total());
}};
const field kWrites{"shared_writes", [](const run_report& r) {
  return static_cast<double>(r.total_work.shared_writes);
}};
const field kWorkPerEnvelope{"work/iterative_work_envelope", [](const run_report& r) {
  return static_cast<double>(r.total_work.total()) /
         bounds::iterative_work_envelope(r.n, r.m, r.eps_inv);
}};

enum class fold { min, max, sum };

/// A group of cells (indices into the ledger's cell list) and the one
/// number it contributes to a row.
struct probe {
  std::vector<usize> cells;
  field what;
  fold how = fold::max;
};

struct row {
  const char* claim;
  std::string cells;  ///< what the probe ran, for the reader
  probe measured;
  relation rel;
  std::string bound_of;  ///< the closed form, or the reference cell
  double bound = 0.0;    ///< closed-form value; unused when `reference` is set
  std::optional<probe> reference = std::nullopt;
};

std::string describe(const run_spec& s) {
  std::string d = std::string(exp::to_string(s.algo)) + "/" + s.adversary.name +
                  " n=" + std::to_string(s.n) + " m=" + std::to_string(s.m);
  if (s.beta != 0) d += " beta=" + std::to_string(s.beta);
  if (s.algo == algo_family::iterative || s.algo == algo_family::wa_iterative) {
    d += " 1/eps=" + std::to_string(s.eps_inv);
  }
  if (s.crash_budget != 0) d += " f=" + std::to_string(s.crash_budget);
  if (s.adversary.seed != 1) d += " seed=" + std::to_string(s.adversary.seed);
  return d;
}

/// JSON values are rounded to 1e-6 so that libm's last bit on the pow()
/// based bounds cannot break a byte comparison; verdicts use exact values.
double rounded(double v) {
  const double r = std::round(v * 1e6) / 1e6;
  return r == 0.0 ? 0.0 : r;  // no "-0" in the file
}

std::string cell_text(double v) {
  return v == std::floor(v) && std::fabs(v) < 1e15
             ? (v < 0 ? "-" : "") + fmt_count(static_cast<std::uint64_t>(std::fabs(v)))
             : fmt(v, 4);
}

class ledger {
 public:
  /// The cell's index; a spec already in the ledger is not run twice.
  usize cell(const run_spec& s) {
    for (usize i = 0; i < cells_.size(); ++i) {
      if (cells_[i] == s) return i;
    }
    cells_.push_back(s);
    return cells_.size() - 1;
  }

  probe one(const run_spec& s, field what) { return {{cell(s)}, what}; }

  probe group(const std::vector<run_spec>& specs, field what, fold how) {
    probe p{{}, what, how};
    for (const run_spec& s : specs) p.cells.push_back(cell(s));
    return p;
  }

  void add(row r) { rows_.push_back(std::move(r)); }

  /// A row that holds when the 0/1 field `what` is 1 on every cell.
  void add_all(const char* claim, std::string label,
               const std::vector<run_spec>& specs, field what) {
    add({claim, std::move(label), group(specs, what, fold::sum), relation::eq,
         "cells", as_double(specs.size())});
  }

  [[nodiscard]] const std::vector<run_spec>& cells() const { return cells_; }

  /// Runs every cell in one sweep, prints and writes the ledger; returns
  /// the number of rows that do not hold.
  usize run(const char* json_path) const {
    const exp::sweep_result result = exp::sweep(cells_);
    auto value = [&](const probe& p) {
      double acc = p.how == fold::min ? INFINITY : p.how == fold::max ? -INFINITY : 0.0;
      for (const usize c : p.cells) {
        const double v = p.what.of(result.reports[c]);
        acc = p.how == fold::min ? std::min(acc, v)
              : p.how == fold::max ? std::max(acc, v)
                                   : acc + v;
      }
      return acc;
    };

    text_table t({"claim", "cells", "field", "measured", "rel", "bound",
                  "bound of", "slack", "holds"});
    exp::json_writer json;
    usize failed = 0;
    for (const row& r : rows_) {
      const double measured = value(r.measured);
      const double bound = r.reference ? value(*r.reference) : r.bound;
      const double margin = slack(r.rel, measured, bound);
      const bool ok = r.rel == relation::gt ? margin > 0 : margin >= 0;
      failed += ok ? 0 : 1;
      const char* fold_name = r.measured.cells.size() == 1 ? ""
                              : r.measured.how == fold::min ? "min "
                              : r.measured.how == fold::max ? "max "
                                                            : "sum ";
      const std::string field_name = fold_name + std::string(r.measured.what.name);
      t.add_row({r.claim, r.cells, field_name, cell_text(measured),
                 to_string(r.rel), cell_text(bound), r.bound_of,
                 cell_text(margin), benchx::yesno(ok)});
      using jw = exp::json_writer;
      json.add({{"claim", jw::str(r.claim)},
                {"cells", jw::str(r.cells)},
                {"field", jw::str(field_name)},
                {"measured", jw::num(rounded(measured))},
                {"relation", jw::str(to_string(r.rel))},
                {"bound", jw::num(rounded(bound))},
                {"bound_of", jw::str(r.bound_of)},
                {"slack", jw::num(rounded(margin))},
                {"holds", jw::boolean(ok)}});
    }
    benchx::print_table(t);
    std::printf("\n%zu rows over %zu cells, %zu not holding\n", rows_.size(),
                cells_.size(), failed);
    if (!json.write(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return failed + 1;
    }
    std::printf("[%zu records -> %s]\n", json.size(), json_path);
    return failed;
  }

 private:
  std::vector<run_spec> cells_;
  std::vector<row> rows_;
};

run_spec spec(algo_family algo, usize n, usize m, std::string adversary,
              std::uint64_t seed = 1) {
  run_spec s;
  s.algo = algo;
  s.n = n;
  s.m = m;
  s.adversary = {std::move(adversary), seed};
  return s;
}

run_spec kk(usize n, usize m, usize beta, usize f, std::string adversary,
            std::uint64_t seed = 1) {
  run_spec s = spec(algo_family::kk, n, m, std::move(adversary), seed);
  s.beta = beta;
  s.crash_budget = f;
  return s;
}

/// The Theorem 4.4 adversary: processes 1..m-1 crash right after their
/// first announce.
run_spec worst_case(algo_family algo, usize n, usize m, usize beta = 0) {
  run_spec s = kk(n, m, beta, m - 1, "announce_crash");
  s.algo = algo;
  return s;
}

/// Theorem 2.1, Theorem 4.4 and the introduction's comparison (C11).
void effectiveness_rows(ledger& L) {
  for (const usize n : {usize{1024}, usize{16384}, usize{131072}}) {
    for (const usize m : {usize{2}, usize{8}, usize{32}}) {
      for (const usize beta : {m, 3 * m * m}) {
        if (beta + m >= n) continue;
        const run_spec s = worst_case(algo_family::kk, n, m, beta);
        L.add({"thm4.4.tight", describe(s), L.one(s, kEffectiveness),
               relation::eq, "n-(beta+m-2)", as_double(bounds::kk_effectiveness(n, m, beta))});
        L.add({"thm2.1.ceiling", describe(s), L.one(s, kEffectiveness),
               relation::le, "n-f", as_double(bounds::effectiveness_upper(n, m - 1))});
      }
    }
  }
  for (const usize beta : {usize{8}, usize{16}, usize{64}, usize{192}, usize{1024}}) {
    const run_spec s = worst_case(algo_family::kk, 32768, 8, beta);
    L.add({"thm4.4.loss", describe(s), L.one(s, kLoss), relation::eq,
           "beta+m-2", as_double(beta + 8 - 2)});
  }
  for (const usize m : {usize{2}, usize{8}, usize{32}, usize{64}}) {
    const run_spec s = worst_case(algo_family::kk, 65536, m);
    L.add({"thm4.4.tight", describe(s), L.one(s, kCeilingGap), relation::eq,
           "m-1", as_double(m - 1)});
  }

  // Crash-free: every standard schedule, two seeds, stays above the floor.
  for (const usize n : {usize{4096}, usize{65536}}) {
    for (const usize m : {usize{2}, usize{8}, usize{32}}) {
      std::vector<run_spec> group;
      for (const auto& factory : sim::standard_adversaries()) {
        for (const std::uint64_t seed : {1ull, 2ull}) {
          group.push_back(kk(n, m, 0, 0, factory.label, seed));
        }
      }
      L.add({"thm4.4.floor",
             "kk/<6 standard schedules x 2 seeds> n=" + std::to_string(n) +
                 " m=" + std::to_string(m),
             L.group(group, kEffectiveness, fold::min), relation::ge,
             "n-(2m-2)", as_double(bounds::kk_effectiveness(n, m, m))});
    }
  }
  {
    std::vector<run_spec> group;
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
      group.push_back(kk(16384, 8, 0, 7, "random+crash:1/400", seed * 104729));
    }
    L.add({"thm4.4.floor", "kk/random+crash:1/400 n=16384 m=8 f=7 x 64 seeds",
           L.group(group, kEffectiveness, fold::min), relation::ge, "n-(2m-2)",
           as_double(bounds::kk_effectiveness(16384, 8, 8))});
  }

  // The same worst case, measured for KK_m and for test-and-set (RMW,
  // outside the registers model), against the ceiling, [26] and trivial.
  for (const usize n : {usize{4096}, usize{65536}, usize{1048576}}) {
    for (const usize m : {usize{2}, usize{4}, usize{8}, usize{16}, usize{32}}) {
      const run_spec s = worst_case(algo_family::kk, n, m);
      const run_spec tas = worst_case(algo_family::tas, n, m);
      const double ceiling = as_double(bounds::effectiveness_upper(n, m - 1));
      L.add({"thm2.1.ceiling", describe(s), L.one(s, kEffectiveness),
             relation::le, "n-f", ceiling});
      L.add({"thm2.1.ceiling", describe(tas), L.one(tas, kEffectiveness),
             relation::le, "n-f", ceiling});
      if (m >= 4) {
        L.add({"c11.vs_kkns", describe(s), L.one(s, kEffectiveness),
               relation::gt, "[26] (n^(1/lg m)-1)^lg m",
               bounds::kkns_effectiveness(n, m)});
      }
      L.add({"c11.vs_trivial", describe(s), L.one(s, kEffectiveness),
             relation::gt, "(m-f)*floor(n/m)",
             as_double(bounds::trivial_effectiveness(n, m, m - 1))});
    }
  }
  // [26]'s two-process building block, measured at its own n.
  for (const usize n : {usize{4096}, usize{65536}}) {
    std::vector<run_spec> group;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      run_spec s = spec(algo_family::ao2, n, 2, "random+crash:1/100", seed);
      s.crash_budget = 1;
      group.push_back(std::move(s));
    }
    L.add({"c11.ao2", "ao2/random+crash:1/100 n=" + std::to_string(n) +
                          " m=2 f=1 x 8 seeds",
           L.group(group, kEffectiveness, fold::min), relation::ge,
           "[26] (n^(1/lg m)-1)^lg m", bounds::kkns_effectiveness(n, 2)});
  }
}

/// Lemma 4.3 (wait-freedom for beta >= m) and Lemma 4.1 where Lemma 4.3
/// does not apply.
void termination_rows(ledger& L) {
  for (const usize n : {usize{1024}, usize{16384}, usize{65536}}) {
    for (const usize m : {usize{2}, usize{8}, usize{24}}) {
      std::vector<run_spec> group;
      for (const auto& factory : sim::standard_adversaries()) {
        group.push_back(kk(n, m, 0, m - 1, factory.label, 4242));
      }
      L.add_all("lem4.3.quiescent",
                "kk/<6 standard schedules> n=" + std::to_string(n) +
                    " m=" + std::to_string(m) + " f=" + std::to_string(m - 1),
                group, kQuiescent);
    }
  }
  // beta < m forfeits termination, never safety.
  std::vector<run_spec> low_beta;
  for (const usize beta : {usize{1}, usize{2}}) {
    run_spec s = kk(512, 4, beta, 0, "random", 99);
    s.max_steps = 512 * 4 * 64;
    low_beta.push_back(std::move(s));
  }
  L.add_all("lem4.1.at_most_once", "kk/random n=512 m=4 beta=1,2 seed=99",
            low_beta, kAtMostOnce);
}

/// Lemma 5.5 and Theorem 5.6's collision count, with beta = 3m^2.
void collision_rows(ledger& L) {
  for (const usize n : {usize{4096}, usize{16384}, usize{65536}}) {
    for (const usize m : {usize{2}, usize{4}, usize{8}}) {
      std::vector<run_spec> group;
      for (const auto& factory : sim::standard_adversaries()) {
        group.push_back(kk(n, m, 3 * m * m, 0, factory.label, 1717));
      }
      const std::string label = "kk/<6 standard schedules> n=" + std::to_string(n) +
                                " m=" + std::to_string(m) +
                                " beta=" + std::to_string(3 * m * m) + " seed=1717";
      L.add({"lem5.5.pair", label, L.group(group, kPairRatio, fold::max),
             relation::le, "1 (pair/2ceil(n/(m|q-p|)))", 1.0});
      L.add({"thm5.6.collisions", label, L.group(group, kCollisions, fold::max),
             relation::le, "4(n+1)lg m", bounds::total_collision_bound(n, m)});
    }
  }
  for (const usize m : {usize{4}, usize{8}, usize{16}}) {
    const std::string adversary = "stale_view:" + std::to_string(32768 * 4);
    const run_spec wide = kk(32768, m, 3 * m * m, 0, adversary);
    const run_spec narrow = kk(32768, m, m, 0, adversary);
    L.add({"thm5.6.separation", describe(wide), L.one(wide, kCollisions),
           relation::le, "beta=m", 0.0, L.one(narrow, kCollisions)});
  }
  // Contention stress: n close to m with beta = 1 fires the collision
  // machinery constantly; safety must hold throughout.
  std::vector<run_spec> stress;
  for (const usize m : {usize{4}, usize{8}, usize{16}}) {
    for (const usize n : {m + 1, 2 * m, 4 * m}) {
      run_spec s = kk(n, m, 1, 0, "random", 321);
      s.max_steps = 200000;
      stress.push_back(std::move(s));
    }
  }
  L.add_all("lem4.1.at_most_once", "kk/random n=m+1,2m,4m m=4,8,16 beta=1 seed=321",
            stress, kAtMostOnce);
}

run_spec iterative(algo_family algo, usize n, usize m, unsigned eps_inv,
                   std::string adversary = "round_robin",
                   std::uint64_t seed = 1) {
  run_spec s = spec(algo, n, m, std::move(adversary), seed);
  s.eps_inv = eps_inv;
  return s;
}

/// Rows saying work / (n + m^{3+eps} lg n) does not grow with n, for each
/// pair of consecutive n at which m is inside Theorem 6.4's range.
void noninc_rows(ledger& L, const char* claim, const std::vector<run_spec>& series) {
  const run_spec* prev = nullptr;
  for (const run_spec& s : series) {
    if (!bounds::iterative_m_in_optimal_range(s.n, s.m, s.eps_inv)) continue;
    if (prev != nullptr && prev->m == s.m) {
      L.add({claim, describe(s), L.one(s, kWorkPerEnvelope), relation::noninc,
             "n=" + std::to_string(prev->n), 0.0, L.one(*prev, kWorkPerEnvelope)});
    }
    prev = &s;
  }
}

/// Theorems 6.3/6.4 (IterativeKK) and 7.1 (WA_IterativeKK).
void iterative_rows(ledger& L) {
  std::vector<run_spec> all;
  for (const usize n : {usize{8192}, usize{65536}, usize{262144}}) {
    for (const usize m : {usize{2}, usize{4}, usize{8}}) {
      for (const unsigned eps_inv : {1u, 2u, 3u}) {
        const run_spec s = iterative(algo_family::iterative, n, m, eps_inv);
        L.add({"thm6.4.loss", describe(s), L.one(s, kLoss), relation::le,
               "(2+1/eps)m(m-1)lg n lg m+3m^2+m-2",
               bounds::iterative_loss_envelope(n, m, eps_inv)});
        all.push_back(s);
      }
    }
  }
  L.add_all("thm6.3.at_most_once",
            "iterative/round_robin n=8192..262144 m=2,4,8 1/eps=1,2,3", all,
            kAtMostOnce);

  std::vector<run_spec> series;
  for (const usize m : {usize{4}, usize{8}, usize{16}}) {
    for (const usize n : {usize{16384}, usize{65536}, usize{262144},
                          usize{1048576}, usize{4194304}}) {
      if (m < 16 && n > 1048576) continue;
      series.push_back(iterative(algo_family::iterative, n, m, 2));
    }
  }
  noninc_rows(L, "thm6.4.work_noninc", series);
  {
    const run_spec iter = iterative(algo_family::iterative, 524288, 8, 2);
    const run_spec plain = kk(524288, 8, 3 * 8 * 8, 0, "round_robin");
    L.add({"thm6.4.vs_kk", describe(iter), L.one(iter, kWork), relation::le,
           "kk beta=3m^2 same n", 0.0, L.one(plain, kWork)});
  }

  std::vector<run_spec> wa;
  for (const usize n : {usize{16384}, usize{131072}}) {
    for (const usize m : {usize{4}, usize{16}}) {
      for (const usize f : {usize{0}, m - 1}) {
        run_spec s = iterative(algo_family::wa_iterative, n, m, 2,
                               f > 0 ? "random+crash:1/1000" : "random+crash:0/1000", 5);
        s.crash_budget = f;
        wa.push_back(s);
        if (f == 0) {
          run_spec trivial = s;
          trivial.algo = algo_family::wa_trivial;
          trivial.max_steps = 1000 * n + 10000000;
          L.add({"thm7.1.trivial_work", describe(trivial), L.one(trivial, kWrites),
                 relation::eq, "m*n", as_double(m * n)});
        }
      }
    }
  }
  L.add_all("thm7.1.complete",
            "wa_iterative/random+crash n=16384,131072 m=4,16 f=0,m-1 seed=5", wa,
            kWaComplete);

  series.clear();
  for (const usize m : {usize{4}, usize{16}}) {
    for (const usize n : {usize{16384}, usize{131072}, usize{524288}, usize{4194304}}) {
      if (m == 4 && n > 524288) continue;
      series.push_back(iterative(algo_family::wa_iterative, n, m, 2,
                                 "random+crash:0/1000", 9));
    }
  }
  noninc_rows(L, "thm7.1.work_noninc", series);
}

}  // namespace

int main() {
  stopwatch clock;
  benchx::print_title("Claims ledger",
                      "every row must hold; BENCH_claims.json is cmp-gated in CI");
  ledger L;
  effectiveness_rows(L);
  termination_rows(L);
  collision_rows(L);
  iterative_rows(L);

  // Lemma 4.1 over every at-most-once cell above (Write-All legally
  // repeats writes, so its families are not in this row).
  std::vector<run_spec> safe;
  for (const run_spec& s : L.cells()) {
    if (s.algo == algo_family::kk || s.algo == algo_family::iterative ||
        s.algo == algo_family::ao2 || s.algo == algo_family::tas) {
      safe.push_back(s);
    }
  }
  L.add_all("lem4.1.at_most_once", "every kk, iterative, ao2 and tas cell above",
            safe, kAtMostOnce);

  const usize failed = L.run("BENCH_claims.json");
  std::printf("[bench_claims done in %.1fs]\n", clock.seconds());
  return failed == 0 ? 0 : 1;
}
