#include "svc/dispatcher.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <thread>

#include "exp/merge.hpp"
#include "exp/report.hpp"
#include "obs/telemetry.hpp"
#include "svc/fault.hpp"
#include "util/fileio.hpp"
#include "util/fnv.hpp"

#if defined(_WIN32)
#error "svc::dispatcher uses fork/execve/waitpid; no Windows port yet"
#endif
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace amo::svc {

namespace {

using steady = std::chrono::steady_clock;

steady::duration secs(double s) {
  return std::chrono::duration_cast<steady::duration>(
      std::chrono::duration<double>(s));
}

void replace_all(std::string& s, std::string_view what, std::string_view with) {
  usize pos = 0;
  while ((pos = s.find(what, pos)) != std::string::npos) {
    s.replace(pos, what.size(), with);
    pos += with.size();
  }
}

std::string fmt_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", s);
  return buf;
}

/// Signals the child's whole process group (it setpgid'd itself before
/// exec), falling back to the child alone if the group is already gone.
void signal_group(pid_t pid, int sig) {
  if (::kill(-pid, sig) != 0) ::kill(pid, sig);
}

/// fork/exec into an own process group with combined stdout+stderr capture,
/// a wall-clock deadline with SIGTERM -> SIGKILL escalation, and a decoded
/// wait status. Never blocks past the deadline chain: if even SIGKILL does
/// not produce an exit (an escaped pipe holder, an unkillable child) the
/// supervisor abandons the attempt and reports it as a hard failure.
void run_supervised(shard_run& run, double deadline_s, double term_grace_s,
                    const std::vector<std::string>& env_add) {
  run.output.clear();
  run.exit_code = -1;
  run.term_signal = 0;
  run.timed_out = false;
  run.status.clear();

  int fds[2];
  if (::pipe(fds) != 0) {
    run.status = std::string("pipe failed: ") + std::strerror(errno);
    return;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    run.status = std::string("fork failed: ") + std::strerror(errno);
    ::close(fds[0]);
    ::close(fds[1]);
    return;
  }
  if (pid == 0) {
    // Child: own process group (so the deadline can kill the sh AND
    // whatever it spawned), both streams into the pipe, then exec. The
    // inherited AMO_FAULT* vars are scrubbed — fault injection reaches a
    // shard only as the action the dispatcher resolved for THIS attempt.
    ::setpgid(0, 0);
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(fds[1], STDERR_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::string_view(*e).rfind("AMO_FAULT", 0) == 0) continue;
      envp.push_back(*e);
    }
    for (const std::string& var : env_add) {
      envp.push_back(const_cast<char*>(var.c_str()));
    }
    envp.push_back(nullptr);
    char* const argv[] = {const_cast<char*>("/bin/sh"),
                          const_cast<char*>("-c"),
                          const_cast<char*>(run.command.c_str()), nullptr};
    ::execve("/bin/sh", argv, envp.data());
    std::_Exit(127);
  }
  ::setpgid(pid, pid);  // mirror the child's call; loses the race harmlessly
  ::close(fds[1]);

  // Escalation chain shared by the drain and reap loops: when stage_end
  // passes, SIGTERM the group; term_grace_s later, SIGKILL it; the same
  // grace later, give up waiting entirely.
  const double grace = term_grace_s > 0.05 ? term_grace_s : 0.05;
  steady::time_point stage_end =
      deadline_s > 0 ? steady::now() + secs(deadline_s)
                     : steady::time_point::max();
  int sig_next = SIGTERM;
  const auto escalate = [&]() -> bool {  // false: chain exhausted
    if (sig_next != SIGTERM && sig_next != SIGKILL) return false;
    if (obs::enabled()) {
      obs::instant("dispatch", "escalate",
                   {{"shard", exp::to_string(run.shard)},
                    {"signal", sig_next == SIGTERM ? "SIGTERM" : "SIGKILL"}});
    }
    if (sig_next == SIGTERM) {
      run.timed_out = true;
      signal_group(pid, SIGTERM);
      sig_next = SIGKILL;
    } else {
      signal_group(pid, SIGKILL);
      sig_next = 0;
    }
    stage_end = steady::now() + secs(grace);
    return true;
  };

  struct pollfd pfd = {};
  pfd.fd = fds[0];
  pfd.events = POLLIN;
  for (bool draining = true; draining;) {
    int timeout_ms = -1;
    if (stage_end != steady::time_point::max()) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            stage_end - steady::now())
                            .count();
      timeout_ms = left < 0 ? 0 : static_cast<int>(left < 60000 ? left : 60000);
    }
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr > 0) {
      char buf[4096];
      const ssize_t got = ::read(fds[0], buf, sizeof buf);
      if (got > 0) {
        run.output.append(buf, static_cast<usize>(got));
      } else if (got == 0 || (errno != EINTR && errno != EAGAIN)) {
        draining = false;  // EOF (or a hard read error): the stream is done
      }
    } else if (pr == 0) {
      if (stage_end != steady::time_point::max() &&
          steady::now() >= stage_end && !escalate()) {
        draining = false;  // SIGKILL did not close the pipe; stop waiting
      }
    } else if (errno != EINTR) {
      draining = false;
    }
  }
  ::close(fds[0]);

  int status = 0;
  bool reaped = false;
  for (;;) {
    const pid_t w = ::waitpid(pid, &status, WNOHANG);
    if (w == pid) {
      reaped = true;
      break;
    }
    if (w < 0 && errno != EINTR) break;
    if (stage_end != steady::time_point::max() &&
        steady::now() >= stage_end && !escalate()) {
      break;  // unkillable child: abandon the attempt, report hard failure
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  if (reaped) {
    if (WIFEXITED(status)) {
      run.exit_code = WEXITSTATUS(status);
      run.status = "exit " + std::to_string(run.exit_code);
    } else if (WIFSIGNALED(status)) {
      run.term_signal = WTERMSIG(status);
      run.exit_code = 128 + run.term_signal;
      run.status = "signal " + std::to_string(run.term_signal) + " (" +
                   signal_name(run.term_signal) + ")";
    } else {
      run.status = "unrecognized wait status";
    }
  } else if (run.status.empty()) {
    run.status = run.timed_out ? "unreaped after SIGKILL" : "waitpid failed";
  }
  if (run.timed_out) {
    run.status += "; deadline (" + fmt_seconds(deadline_s) + "s) expired";
    // A child that caught SIGTERM and exited 0/1 anyway still blew the
    // deadline: classify as the coreutils-timeout failure, not a result.
    if (run.exit_code == 0 || run.exit_code == 1) run.exit_code = 124;
  }
}

std::string manifest_path(const dispatch_options& opt) {
  return opt.manifest.empty() ? opt.dir + "/dispatch-manifest.json"
                              : opt.manifest;
}

/// Checkpoints every validated shard (atomic write): enough for a later
/// `dispatch --resume` to verify and adopt the file without rerunning it.
void write_manifest(const std::string& path,
                    const std::vector<shard_run>& runs,
                    std::uint64_t args_fp) {
  using W = exp::json_writer;
  W json;
  for (const shard_run& run : runs) {
    if (!run.validated) continue;
    json.add({{"shard", W::num(std::uint64_t{run.shard.index})},
              {"shards", W::num(std::uint64_t{run.shard.count})},
              {"file", W::str(run.file)},
              {"exit", W::num(std::uint64_t{
                           static_cast<unsigned>(run.exit_code)})},
              {"fnv64", W::str(fnv_hex64(run.content_fnv64))},
              {"args_fnv64", W::str(fnv_hex64(args_fp))}});
  }
  json.write(path.c_str());
}

/// Adopts completed shards from a previous dispatch's manifest. Trust
/// nothing: an entry counts only if its args fingerprint matches this
/// dispatch, the file's bytes still hash to the recorded value, and the
/// content parses and passes the shard-slice integrity check. Anything
/// else is skipped (and hence relaunched) with a note, never an error.
usize load_manifest(const std::string& path, std::vector<shard_run>& runs,
                    std::uint64_t args_fp, bool quiet) {
  const exp::parse_result parsed = exp::parse_records_file(path.c_str());
  if (!parsed.ok()) {
    if (!quiet) {
      std::fprintf(stderr, "dispatch: --resume found no usable manifest (%s)\n",
                   parsed.error.c_str());
    }
    return 0;
  }
  const std::string want_args = fnv_hex64(args_fp);
  usize adopted = 0;
  for (const exp::record& rec : parsed.records) {
    const exp::record_field* f_shard = rec.find("shard");
    const exp::record_field* f_count = rec.find("shards");
    const exp::record_field* f_file = rec.find("file");
    const exp::record_field* f_exit = rec.find("exit");
    const exp::record_field* f_hash = rec.find("fnv64");
    const exp::record_field* f_args = rec.find("args_fnv64");
    if (f_shard == nullptr || f_count == nullptr || f_file == nullptr ||
        f_exit == nullptr || f_hash == nullptr || f_args == nullptr) {
      continue;
    }
    const auto index = static_cast<usize>(f_shard->number);
    const auto count = static_cast<usize>(f_count->number);
    const int exit_code = static_cast<int>(f_exit->number);
    if (count != runs.size() || index >= runs.size() ||
        (exit_code != 0 && exit_code != 1) || f_args->text != want_args) {
      continue;  // a different partition or a different job: not ours
    }
    shard_run& run = runs[index];
    if (run.validated || f_file->text != run.file) continue;
    std::string content;
    std::string err;
    const auto skip = [&](const std::string& why) {
      if (!quiet) {
        std::fprintf(stderr, "dispatch: not reusing shard %s: %s\n",
                     exp::to_string(run.shard).c_str(), why.c_str());
      }
    };
    if (!read_file(run.file.c_str(), content, err)) {
      skip(err);
      continue;
    }
    if (fnv_hex64(fnv1a64(content)) != f_hash->text) {
      skip(run.file + ": content hash mismatch (file changed since checkpoint)");
      continue;
    }
    exp::parse_result shard_parsed = exp::decode_records(content);
    if (!shard_parsed.ok()) {
      skip(run.file + ": " + shard_parsed.error);
      continue;
    }
    if (!exp::verify_shard_records(shard_parsed.records, run.shard, err)) {
      skip(run.file + ": " + err);
      continue;
    }
    run.validated = true;
    run.reused = true;
    run.exit_code = exit_code;
    run.content_fnv64 = fnv1a64(content);
    run.records = std::move(shard_parsed.records);
    run.status = "reused from manifest (exit " + std::to_string(exit_code) +
                 ")";
    ++adopted;
  }
  return adopted;
}

}  // namespace

std::string expand_command(const std::string& tmpl, const std::string& self,
                           const std::string& args,
                           const exp::shard_ref& shard,
                           const std::string& out_file) {
  std::string cmd = tmpl;
  replace_all(cmd, "{self}", self);
  replace_all(cmd, "{args}", args);
  replace_all(cmd, "{shard}", exp::to_string(shard));
  replace_all(cmd, "{out}", out_file);
  return cmd;
}

std::string signal_name(int sig) {
  switch (sig) {
    case SIGHUP: return "SIGHUP";
    case SIGINT: return "SIGINT";
    case SIGQUIT: return "SIGQUIT";
    case SIGILL: return "SIGILL";
    case SIGTRAP: return "SIGTRAP";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGUSR1: return "SIGUSR1";
    case SIGSEGV: return "SIGSEGV";
    case SIGUSR2: return "SIGUSR2";
    case SIGPIPE: return "SIGPIPE";
    case SIGALRM: return "SIGALRM";
    case SIGTERM: return "SIGTERM";
    case SIGCHLD: return "SIGCHLD";
    case SIGXCPU: return "SIGXCPU";
    case SIGXFSZ: return "SIGXFSZ";
    default: return "SIG#" + std::to_string(sig);
  }
}

dispatch_result dispatch(const std::string& args, const dispatch_options& opt) {
  dispatch_result out;
  obs::span dsp("dispatch", "dispatch");
  dsp.arg("shards", static_cast<std::uint64_t>(opt.shards));
  if (opt.shards == 0) {
    out.error = "dispatch: need at least one shard";
    out.exit_code = 2;
    return out;
  }

  fault_plan plan;
  if (!opt.inject.empty()) {
    std::string perr;
    if (!parse_fault_plan(opt.inject, plan, perr)) {
      out.error = "dispatch: bad --inject spec: " + perr;
      out.exit_code = 2;
      return out;
    }
  }

  out.shards.resize(opt.shards);
  for (usize i = 0; i < opt.shards; ++i) {
    shard_run& run = out.shards[i];
    run.shard = {i, opt.shards};
    run.file = opt.dir + "/dispatch-shard-" + std::to_string(i) + "of" +
               std::to_string(opt.shards) +
               (opt.format == exp::record_format::colfmt ? ".amoc" : ".json");
    run.command =
        expand_command(opt.command, opt.self, args, run.shard, run.file);
    if (opt.trace) {
      // The child's trace shard rides next to its record file; the export
      // step stitches it into the parent's timeline as pid i+1.
      run.trace_file = run.file + ".trace.json";
      run.command += " --trace-out=" + run.trace_file;
    }
  }

  // The checkpoint identity: a manifest entry may only satisfy a dispatch
  // with the same job arguments, launch template, and partition width.
  const std::uint64_t args_fp = fnv1a64(args + "\n" + opt.command + "\n" +
                                        std::to_string(opt.shards));
  const std::string manifest = manifest_path(opt);
  if (opt.resume) {
    out.reused = load_manifest(manifest, out.shards, args_fp, opt.quiet);
    if (!opt.quiet && out.reused > 0) {
      std::fprintf(stderr, "dispatch: resumed %zu of %zu shards from %s\n",
                   out.reused, opt.shards, manifest.c_str());
    }
  }

  // Wave loop: launch every not-yet-validated shard in parallel (the point
  // of dispatching is that k partitions run on k processes), then classify
  // and VALIDATE the survivors' artifacts. A shard counts as done only
  // once its file parses and covers exactly the slice it owes — a crash, a
  // timeout, a torn write, and a corrupted byte all land in the same
  // retry path, with the cause spelled out.
  for (usize wave = 0;; ++wave) {
    std::vector<shard_run*> todo;
    for (shard_run& run : out.shards) {
      if (!run.validated) todo.push_back(&run);
    }
    if (todo.empty() || wave > opt.retries) break;

    {
      std::vector<std::jthread> launchers;
      launchers.reserve(todo.size());
      for (shard_run* run : todo) {
        if (wave > 0) {
          if (!opt.quiet) {
            std::fprintf(stderr,
                         "dispatch: retrying shard %s (%s%s%s), attempt %zu of "
                         "%zu\n",
                         exp::to_string(run->shard).c_str(), run->status.c_str(),
                         run->detail.empty() ? "" : ": ", run->detail.c_str(),
                         run->attempts + 1, opt.retries + 1);
          }
          if (obs::enabled()) {
            obs::instant("dispatch", "retry",
                         {{"shard", exp::to_string(run->shard)},
                          {"status", run->status}});
          }
        }
        run->output.clear();
        run->detail.clear();
        run->records.clear();
        ++run->attempts;
        std::vector<std::string> env_add;
        if (!opt.inject.empty()) {
          const fault_action a =
              plan_action(plan, run->shard.index, run->attempts);
          if (a.fires()) env_add.push_back("AMO_FAULT=" + to_spec(a));
        }
        launchers.emplace_back(
            [run, &opt, env = std::move(env_add)] {
              obs::span asp("dispatch", "shard_attempt");
              asp.arg("shard", std::uint64_t{run->shard.index});
              asp.arg("attempt", static_cast<std::uint64_t>(run->attempts));
              run_supervised(*run, opt.deadline_s, opt.term_grace_s, env);
              asp.arg("status", std::string_view(run->status));
            });
      }
    }  // join

    for (shard_run* run : todo) {
      if (run->exit_code != 0 && run->exit_code != 1) continue;  // retryable
      obs::span vsp("dispatch", "verify");
      vsp.arg("shard", std::uint64_t{run->shard.index});
      std::string content;
      std::string err;
      if (!read_file(run->file.c_str(), content, err)) {
        run->detail = err;
        continue;
      }
      exp::parse_result parsed = exp::decode_records(content);
      if (!parsed.ok()) {
        run->detail = run->file + ": " + parsed.error;
        continue;
      }
      if (!exp::verify_shard_records(parsed.records, run->shard, err)) {
        run->detail = run->file + ": " + err;
        continue;
      }
      run->validated = true;
      run->content_fnv64 = fnv1a64(content);
      run->records = std::move(parsed.records);
    }

    // Checkpoint after every wave: if THIS process dies next, --resume
    // picks up from here.
    {
      obs::span csp("dispatch", "checkpoint");
      write_manifest(manifest, out.shards, args_fp);
    }
  }

  if (opt.trace) {
    // Register every trace shard a child produced this dispatch (reused
    // shards did not run, so they wrote none) for export-time stitching —
    // including the failure paths below, so a half-failed dispatch still
    // exports the timelines of the shards that DID run.
    if (obs::telemetry* t = obs::active()) {
      for (const shard_run& run : out.shards) {
        if (run.reused || run.trace_file.empty()) continue;
        t->attach_child_trace(run.trace_file,
                              "amo_lab shard " + exp::to_string(run.shard),
                              /*remove_after_stitch=*/!opt.keep_shards);
      }
    }
  }

  int worst = 0;
  for (const shard_run& run : out.shards) {
    if (!opt.quiet) {
      std::fprintf(stderr, "dispatch: shard %s %s after %zu attempt%s (%s)\n",
                   exp::to_string(run.shard).c_str(), run.status.c_str(),
                   run.attempts, run.attempts == 1 ? "" : "s",
                   run.reused ? "reused" : run.command.c_str());
    }
    if (run.validated && run.exit_code == 1) worst = 1;
  }

  bool any_failed = false;
  bool any_hard = false;
  for (const shard_run& run : out.shards) {
    if (run.validated) continue;
    any_failed = true;
    if (run.exit_code < 0 || run.exit_code > 1) any_hard = true;
    if (out.error.empty()) {
      out.error = "shard " + exp::to_string(run.shard) + " failed (" +
                  run.status + ")" +
                  (run.detail.empty() ? "" : ": " + run.detail) + " after " +
                  std::to_string(run.attempts) + " attempt" +
                  (run.attempts == 1 ? "" : "s") + ": " + run.command;
    }
  }
  if (any_failed) {
    out.error += "; completed shards are checkpointed in " + manifest +
                 " (relaunch with --resume)";
    out.exit_code = any_hard ? 2 : 3;
    return out;
  }

  // Every shard's records passed verify_shard_records, so each is already
  // index-ascending: exactly what the streaming fold consumes.
  std::vector<std::unique_ptr<exp::record_source>> sources;
  sources.reserve(opt.shards);
  for (shard_run& run : out.shards) {
    sources.push_back(exp::make_memory_source(std::move(run.records)));
  }

  exp::merge_result merged = exp::merge_stream(std::move(sources));
  if (!merged.ok()) {
    out.error = merged.error;
    out.exit_code = 2;
    return out;
  }
  out.merged = std::move(merged.records);

  if (!opt.out.empty()) {
    std::string werr;
    if (!exp::write_records_file_as(opt.out.c_str(), out.merged, opt.format,
                                    werr)) {
      out.error = werr;
      out.exit_code = 3;
      return out;
    }
  }

  if (!opt.keep_shards) {
    for (const shard_run& run : out.shards) {
      std::remove(run.file.c_str());
      std::remove((run.file + ".tmp").c_str());  // stray from a torn fault
    }
    std::remove(manifest.c_str());
  }
  out.exit_code = worst;  // 0, or 1 when a shard flagged a safety violation
  return out;
}

bool fnv64_file(const char* path, std::uint64_t& hash, std::string& error) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) {
    error = std::string("cannot open ") + path + ": " + std::strerror(errno);
    return false;
  }
  hash = fnv1a64_offset;
  char buf[65536];
  for (;;) {
    const usize got = std::fread(buf, 1, sizeof buf, f);
    hash = fnv1a64_append(hash, std::string_view(buf, got));
    if (got < sizeof buf) break;
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    error = std::string("cannot read ") + path + ": " + std::strerror(errno);
    return false;
  }
  return true;
}

exp::merge_result merge_from_manifest(const std::string& manifest_file,
                                      double wait_s, bool quiet,
                                      const exp::record_sink& sink) {
  exp::merge_result out;

  struct entry {
    std::string file;
    std::string hash;  ///< fnv64 hex the dispatcher recorded
    bool present = false;
  };
  std::vector<entry> set;  ///< the winning (shards, args_fnv64) set

  const steady::time_point give_up =
      steady::now() + secs(wait_s > 0 ? wait_s : 0);
  bool announced = false;
  for (;;) {
    set.clear();
    std::string why;
    const exp::parse_result parsed =
        exp::parse_records_file(manifest_file.c_str());
    if (!parsed.ok()) {
      why = parsed.error;
    } else {
      // Group the entries by checkpoint identity (partition width + args
      // fingerprint); the first identity to cover every shard index wins.
      // A manifest normally holds exactly one identity — several appear
      // only when dispatches share a directory.
      struct group {
        std::string args;
        std::vector<entry> shards;
        usize present = 0;
      };
      std::vector<group> groups;
      for (const exp::record& rec : parsed.records) {
        const exp::record_field* f_shard = rec.find("shard");
        const exp::record_field* f_count = rec.find("shards");
        const exp::record_field* f_file = rec.find("file");
        const exp::record_field* f_exit = rec.find("exit");
        const exp::record_field* f_hash = rec.find("fnv64");
        const exp::record_field* f_args = rec.find("args_fnv64");
        if (f_shard == nullptr || f_count == nullptr || f_file == nullptr ||
            f_exit == nullptr || f_hash == nullptr || f_args == nullptr) {
          continue;
        }
        const auto index = static_cast<usize>(f_shard->number);
        const auto count = static_cast<usize>(f_count->number);
        const int exit_code = static_cast<int>(f_exit->number);
        if (count == 0 || index >= count || (exit_code != 0 && exit_code != 1)) {
          continue;
        }
        group* g = nullptr;
        for (group& have : groups) {
          if (have.shards.size() == count && have.args == f_args->text) {
            g = &have;
            break;
          }
        }
        if (g == nullptr) {
          groups.push_back({f_args->text, std::vector<entry>(count), 0});
          g = &groups.back();
        }
        entry& e = g->shards[index];
        if (!e.present) ++g->present;
        e = {f_file->text, f_hash->text, true};
      }
      usize best_present = 0;
      usize best_count = 0;
      for (const group& g : groups) {
        if (g.present == g.shards.size()) {
          set = g.shards;
          break;
        }
        if (g.present > best_present) {
          best_present = g.present;
          best_count = g.shards.size();
        }
      }
      if (set.empty()) {
        why = groups.empty()
                  ? "no usable shard entries"
                  : "holds " + std::to_string(best_present) + " of " +
                        std::to_string(best_count) + " shards";
      }
    }
    if (!set.empty()) break;
    if (steady::now() >= give_up) {
      out.error = manifest_file + ": " + why +
                  (wait_s > 0 ? " after waiting " + fmt_seconds(wait_s) + "s"
                              : "");
      return out;
    }
    if (!announced && !quiet) {
      std::fprintf(stderr, "merge: waiting up to %ss for %s (%s)\n",
                   fmt_seconds(wait_s).c_str(), manifest_file.c_str(),
                   why.c_str());
      announced = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }

  // Trust nothing that was not re-verified: each checkpointed file must
  // still hash to what the dispatcher validated.
  for (const entry& e : set) {
    std::uint64_t hash = 0;
    if (!fnv64_file(e.file.c_str(), hash, out.error)) return out;
    if (fnv_hex64(hash) != e.hash) {
      out.error = e.file + ": content hash " + fnv_hex64(hash) +
                  " disagrees with the manifest checkpoint " + e.hash +
                  " (file changed since the dispatch validated it)";
      return out;
    }
  }

  std::vector<std::unique_ptr<exp::record_source>> sources;
  sources.reserve(set.size());
  for (const entry& e : set) {
    sources.push_back(exp::make_file_source(e.file));
  }
  return exp::merge_stream(std::move(sources), sink);
}

}  // namespace amo::svc
