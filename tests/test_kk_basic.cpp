// Fundamental behavior of the KK_beta automaton: single-process runs, status
// progression, announce/record register discipline, output sets, and the
// compNext interval arithmetic of Fig. 2.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/kk_process.hpp"
#include "exp/engine.hpp"
#include "mem/sim_memory.hpp"
#include "sim/scheduler.hpp"

namespace amo {
namespace {

using sim_kk = kk_process<sim_memory>;

TEST(KkBasic, SingleProcessPerformsAllButBetaMinusOne) {
  // m = 1, beta = 1: |FREE \ TRY| >= 1 keeps it going until FREE is empty.
  const usize n = 50;
  sim_memory mem(1, n);
  std::vector<job_id> performed;
  kk_config cfg;
  cfg.pid = 1;
  cfg.num_processes = 1;
  cfg.beta = 1;
  sim_kk p(mem, cfg, [&performed](job_id j) { performed.push_back(j); });
  usize guard = 0;
  while (p.runnable() && ++guard < 100000) p.step();
  EXPECT_EQ(p.status(), kk_status::end);
  EXPECT_EQ(performed.size(), n);  // n - (beta + m - 2) = n - 0
  std::set<job_id> uniq(performed.begin(), performed.end());
  EXPECT_EQ(uniq.size(), n);
}

TEST(KkBasic, SingleProcessBetaFiveLeavesFourJobs) {
  const usize n = 50;
  sim_memory mem(1, n);
  usize performed = 0;
  kk_config cfg;
  cfg.pid = 1;
  cfg.num_processes = 1;
  cfg.beta = 5;
  sim_kk p(mem, cfg, [&performed](job_id) { ++performed; });
  while (p.runnable()) p.step();
  // E = n - (beta + m - 2) = 50 - 4.
  EXPECT_EQ(performed, 46u);
  EXPECT_EQ(p.output().size(), 4u);  // the beta-1 leftovers, TRY empty
}

TEST(KkBasic, StatusProgressionFirstIteration) {
  sim_memory mem(2, 20);
  kk_config cfg;
  cfg.pid = 1;
  cfg.num_processes = 2;
  cfg.beta = 2;
  sim_kk p(mem, cfg, nullptr);
  EXPECT_EQ(p.status(), kk_status::comp_next);
  p.step();  // compNext
  EXPECT_EQ(p.status(), kk_status::set_next);
  EXPECT_NE(p.current_next(), no_job);
  p.step();  // setNext: announcement visible in shared memory
  EXPECT_EQ(mem.peek_next(1), p.current_next());
  EXPECT_EQ(p.status(), kk_status::gather_try);
  p.step();  // gatherTry Q=1 (skip self) -> Q=2
  EXPECT_EQ(p.status(), kk_status::gather_try);
  p.step();  // gatherTry Q=2 -> wraps to gather_done
  EXPECT_EQ(p.status(), kk_status::gather_done);
  p.step();  // gatherDone Q=1 (self) -> Q=2
  p.step();  // gatherDone Q=2 (empty row) -> wraps to check
  EXPECT_EQ(p.status(), kk_status::check);
  p.step();  // check: nothing conflicts
  EXPECT_EQ(p.status(), kk_status::perform);
  p.step();  // do
  EXPECT_EQ(p.status(), kk_status::record);
  p.step();  // done: record visible in shared memory
  EXPECT_EQ(mem.peek_done_row(1).size(), 1u);
  EXPECT_EQ(mem.peek_done_row(1)[0], mem.peek_next(1));
  EXPECT_EQ(p.status(), kk_status::comp_next);
}

TEST(KkBasic, CompNextPicksPthIntervalStart) {
  // Fig. 2: with FREE = [1..n], TRY = {}, process p picks rank
  // floor((p-1)(n-m+1)/m) + 1.
  const usize n = 100;
  const usize m = 4;
  for (process_id pid = 1; pid <= m; ++pid) {
    sim_memory mem(m, n);
    kk_config cfg;
    cfg.pid = pid;
    cfg.num_processes = m;
    cfg.beta = m;
    sim_kk p(mem, cfg, nullptr);
    p.step();  // compNext
    const usize expect = (static_cast<usize>(pid - 1) * (n - m + 1)) / m + 1;
    EXPECT_EQ(p.current_next(), expect) << "pid " << pid;
  }
}

TEST(KkBasic, CompNextSmallFreeFallsBackToRankP) {
  // |FREE| < 2m-1 -> TMP < 1 -> rank p.
  const usize m = 4;
  const usize n = 6;  // 6 < 2*4-1
  for (process_id pid = 1; pid <= m; ++pid) {
    sim_memory mem(m, n);
    kk_config cfg;
    cfg.pid = pid;
    cfg.num_processes = m;
    cfg.beta = 2;  // < m, termination not guaranteed but selection is defined
    sim_kk p(mem, cfg, nullptr);
    p.step();
    EXPECT_EQ(p.current_next(), pid);
  }
}

TEST(KkBasic, CrashFreezesProcess) {
  sim_memory mem(1, 10);
  kk_config cfg;
  cfg.pid = 1;
  cfg.num_processes = 1;
  cfg.beta = 1;
  sim_kk p(mem, cfg, nullptr);
  p.step();
  p.crash();
  EXPECT_FALSE(p.runnable());
  EXPECT_EQ(p.status(), kk_status::stop);
  EXPECT_EQ(p.next_action(), action_kind::crashed);
}

TEST(KkBasic, TwoProcessesRoundRobinSplitTheJobs) {
  exp::run_spec opt;
  opt.n = 200;
  opt.m = 2;
  opt.beta = 2;
  sim::round_robin_adversary adv;
  const auto report = exp::run(opt, adv);
  EXPECT_TRUE(report.at_most_once);
  EXPECT_TRUE(report.quiescent);
  EXPECT_EQ(report.terminated, 2u);
  // E >= n - (beta + m - 2) = 198.
  EXPECT_GE(report.effectiveness, 198u);
  EXPECT_LE(report.effectiveness, 200u);
  // Both processes did real work under a fair schedule.
  EXPECT_GT(report.per_process[0].performs, 50u);
  EXPECT_GT(report.per_process[1].performs, 50u);
}

TEST(KkBasic, AnnouncementAlwaysPrecedesPerform) {
  // Every performed job must have been in the performer's next register at
  // perform time (the safety linchpin of Lemma 4.1).
  const usize n = 60;
  sim_memory mem(2, n);
  std::vector<std::unique_ptr<sim_kk>> procs;
  for (process_id pid = 1; pid <= 2; ++pid) {
    kk_config cfg;
    cfg.pid = pid;
    cfg.num_processes = 2;
    cfg.beta = 2;
    kk_hooks hooks;
    hooks.on_perform = [&mem](process_id p, job_id j) {
      EXPECT_EQ(mem.peek_next(p), j) << "perform without announcement";
    };
    procs.push_back(std::make_unique<sim_kk>(mem, cfg, nullptr, std::move(hooks)));
  }
  std::vector<automaton*> handles{procs[0].get(), procs[1].get()};
  sim::scheduler sched(handles);
  sim::random_adversary adv(17);
  const auto result = sched.run(adv, 0, 1000000);
  EXPECT_TRUE(result.quiescent);
}

TEST(KkBasic, StatsCountersConsistent) {
  exp::run_spec opt;
  opt.n = 150;
  opt.m = 3;
  sim::round_robin_adversary adv;
  const auto report = exp::run(opt, adv);
  usize performs = 0;
  for (const auto& s : report.per_process) {
    performs += s.performs;
    EXPECT_EQ(s.performs, s.records);  // every do is followed by its record
    EXPECT_GE(s.comp_nexts, s.announces);
    EXPECT_GT(s.work.shared_reads, 0u);
    EXPECT_GT(s.work.shared_writes, 0u);
  }
  EXPECT_EQ(performs, report.perform_events);
  EXPECT_EQ(report.effectiveness, report.perform_events);  // no duplicates
}

TEST(KkBasic, BetaDefaultsToM) {
  exp::run_spec opt;
  opt.n = 100;
  opt.m = 5;
  opt.beta = 0;  // default
  sim::round_robin_adversary adv;
  const auto report = exp::run(opt, adv);
  EXPECT_EQ(report.beta, 5u);
  EXPECT_GE(report.effectiveness, 100u - (5 + 5 - 2));
}

}  // namespace
}  // namespace amo
