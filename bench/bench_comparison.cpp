// Experiment E8 — the headline comparison of the paper's introduction
// (claim C11): worst-case effectiveness of
//   * the n - f ceiling over all algorithms          (Theorem 2.1),
//   * KK_m (this paper, measured under its tight adversary),
//   * the prior deterministic algorithm of [26]      (m = 2 measured via the
//     two-ends reconstruction; m > 2 analytic (n^{1/lg m}-1)^{lg m}),
//   * the trivial static split                        ((m-f) n/m),
//   * the TAS-based executor (outside the model: RMW primitives, n - f).
//
// The shape that must hold: KK_m sits within additive m of the ceiling for
// every m; [26] falls behind by a factor growing with lg m; trivial
// collapses by factor m.
#include <memory>

#include "analysis/bounds.hpp"
#include "baselines/tas_executor.hpp"
#include "bench_common.hpp"
#include "exp/engine.hpp"

namespace {

using namespace amo;

/// Worst effectiveness of the two-ends AO2 reconstruction across a batch of
/// crashy random schedules (m = 2 only).
usize measure_ao2_worst(usize n) {
  usize worst = ~usize{0};
  exp::run_spec s;
  s.algo = exp::algo_family::ao2;
  s.n = n;
  s.m = 2;
  s.crash_budget = 1;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    s.adversary = {"random+crash:1/100", seed};
    worst = std::min(worst, exp::run(s).effectiveness);
  }
  return worst;
}

usize measure_kk_worst(usize n, usize m) {
  exp::run_spec s;
  s.algo = exp::algo_family::kk;
  s.n = n;
  s.m = m;
  s.crash_budget = m - 1;
  s.adversary.name = "announce_crash";
  return exp::run(s).effectiveness;
}

}  // namespace

int main() {
  stopwatch clock;
  benchx::print_title(
      "E8  Who keeps how many jobs? (worst case, f = m-1 crashes)",
      "claim: KK_m ~ ceiling - m; [26] loses lg m * o(n); trivial loses (1-1/m) n");

  text_table t({"n", "m", "ceiling n-f", "KK_m (measured)", "[26] KKNS",
                "trivial", "TAS (RMW)"});
  for (const usize n : {usize{4096}, usize{65536}, usize{1048576}}) {
    for (const usize m : {usize{2}, usize{4}, usize{8}, usize{16}, usize{32}}) {
      std::string kkns;
      if (m == 2) {
        kkns = fmt_count(measure_ao2_worst(std::min(n, usize{8192})));
        if (n > 8192) {
          kkns = fmt_count(static_cast<std::uint64_t>(
              bounds::kkns_effectiveness(n, m)));
        }
      } else {
        kkns = fmt_count(static_cast<std::uint64_t>(
                   bounds::kkns_effectiveness(n, m))) +
               "*";
      }
      t.add_row({fmt_count(n), fmt_count(m),
                 fmt_count(bounds::effectiveness_upper(n, m - 1)),
                 fmt_count(measure_kk_worst(n, m)), kkns,
                 fmt_count(bounds::trivial_effectiveness(n, m, m - 1)),
                 fmt_count(bounds::effectiveness_upper(n, m - 1))});
    }
  }
  benchx::print_table(t);
  std::printf("(*) analytic (n^{1/lg m}-1)^{lg m} from [26]; the multi-process\n"
              "    composition of [26] is not reconstructed — see DESIGN.md #3.\n");

  benchx::print_title(
      "E8.2  Distance from the ceiling (jobs lost beyond n - f)",
      "claim: KK_m loses exactly m-1 more than the ceiling allows");
  text_table t2({"n", "m", "KK_m extra loss", "m-1", "exact?"});
  for (const usize n : {usize{65536}}) {
    for (const usize m : {usize{2}, usize{8}, usize{32}, usize{64}}) {
      const usize kk = measure_kk_worst(n, m);
      const usize ceiling = bounds::effectiveness_upper(n, m - 1);
      const usize extra = ceiling - kk;
      t2.add_row({fmt_count(n), fmt_count(m), fmt_count(extra), fmt_count(m - 1),
                  benchx::yesno(extra == m - 1)});
    }
  }
  benchx::print_table(t2);
  std::printf("\n[bench_comparison done in %.1fs]\n", clock.seconds());
  return 0;
}
