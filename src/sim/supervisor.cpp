#include "sim/supervisor.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "cmp/system.h"
#include "common/interrupt.h"
#include "sim/sweep_internal.h"
#include "sim/wire.h"

namespace disco::sim {
namespace {

using detail::Clock;
using detail::ms_since;

// ---------------------------------------------------------------------------
// SIGINT/SIGTERM -> interrupt flag
// ---------------------------------------------------------------------------

std::atomic<int> g_interrupt_signals{0};

void on_interrupt(int) {
  interrupt_flag().store(true, std::memory_order_relaxed);
  // Second signal: the user really means it; skip the graceful flush.
  if (g_interrupt_signals.fetch_add(1, std::memory_order_relaxed) > 0)
    ::_exit(130);
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGABRT: return "SIGABRT";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    default: return "signal";
  }
}

// ---------------------------------------------------------------------------
// Manifest encoding
// ---------------------------------------------------------------------------

CellStatus status_from_name(const std::string& s) {
  for (const CellStatus c :
       {CellStatus::Ok, CellStatus::Failed, CellStatus::TimedOut,
        CellStatus::Skipped, CellStatus::Crashed, CellStatus::Interrupted,
        CellStatus::ResourceExhausted}) {
    if (s == to_string(c)) return c;
  }
  throw std::runtime_error("manifest: unknown cell status \"" + s + "\"");
}

std::string encode_header(std::size_t cells, const SweepOptions& opt) {
  return "{\"manifest\":1,\"cells\":" + std::to_string(cells) +
         ",\"base_seed\":" + std::to_string(opt.base_seed) +
         ",\"shard_index\":" + std::to_string(opt.shard_index) +
         ",\"shard_count\":" + std::to_string(std::max(1u, opt.shard_count)) +
         "}";
}

std::string encode_entry(const SweepCellOutcome& out) {
  std::string line = "{\"cell\":" + std::to_string(out.index) +
                     ",\"group\":" + std::to_string(out.group) +
                     ",\"status\":";
  wire::append_json_string(line, to_string(out.status));
  line += ",\"attempts\":" + std::to_string(out.attempts);
  if (out.snap_saved_cycles > 0)
    line += ",\"snap_saved_cycles\":" + std::to_string(out.snap_saved_cycles);
  line += ",\"error\":";
  wire::append_json_string(line, out.error);
  if (out.ok()) {
    line += ",\"result\":";
    line += wire::encode_result(out.result);
  }
  line += "}";
  return line;
}

std::string snapshot_path_for(const std::string& dir, std::size_t cell) {
  return dir + "/snap-cell" + std::to_string(cell) + ".bin";
}

/// Delete a cell's snapshot (and any torn tmp file) — called when the cell
/// reaches a terminal outcome, so checkpoint dirs never accumulate stale
/// mid-cell state. Interrupted cells keep theirs for the --resume rerun.
void gc_snapshot(const std::string& dir, std::size_t cell) {
  if (dir.empty()) return;
  const std::string path = snapshot_path_for(dir, cell);
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

/// Append-only checkpoint journal with atomic replacement: the manifest is
/// rewritten to a tmp file and rename()d into place after every cell, so a
/// reader (or a resume after SIGKILL) only ever sees a complete, consistent
/// file.
class CheckpointJournal {
 public:
  void open(const std::string& dir, std::string header,
            std::vector<std::string> carried) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    path_ = dir + "/manifest.jsonl";
    tmp_ = path_ + ".tmp";
    lines_.clear();
    lines_.push_back(std::move(header));
    for (auto& l : carried) lines_.push_back(std::move(l));
    flush();
  }

  bool active() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

  void append(std::string line) {
    if (!active()) return;
    std::lock_guard<std::mutex> lock(mu_);
    lines_.push_back(std::move(line));
    flush();
  }

 private:
  void flush() {
    std::ofstream f(tmp_, std::ios::trunc);
    for (const auto& l : lines_) f << l << '\n';
    f.flush();
    f.close();
    std::rename(tmp_.c_str(), path_.c_str());
  }

  std::string path_;
  std::string tmp_;
  std::vector<std::string> lines_;
  std::mutex mu_;
};

// ---------------------------------------------------------------------------
// Deterministic debug faults (tests + the CI recovery drill)
// ---------------------------------------------------------------------------

void debug_fault_hook(const SupervisorOptions& so, std::size_t cell,
                      unsigned attempt) {
  if (attempt > so.debug_crash_attempts) return;
  const auto is = [cell](int k) {
    return k >= 0 && static_cast<std::size_t>(k) == cell;
  };
  if (is(so.debug_crash_cell)) std::raise(SIGSEGV);
  if (is(so.debug_throw_cell)) throw 42;  // deliberately not a std::exception
  if (is(so.debug_hang_cell)) {
    for (;;) ::pause();  // until the parent's SIGTERM/SIGKILL
  }
}

// ---------------------------------------------------------------------------
// Child side of --isolate
// ---------------------------------------------------------------------------

// Postmortem destination for this child's signal handlers; set before the
// cell runs. The handlers are technically not async-signal-safe (they
// allocate while formatting the black box) — acceptable for a best-effort
// dump from a process that is dying anyway, and the parent's wall-clock
// budget backstops a handler that wedges.
std::string g_child_postmortem;
volatile std::sig_atomic_t g_in_fatal_handler = 0;

void write_child_postmortem(const char* reason) {
  if (g_child_postmortem.empty()) return;
  std::ofstream f(g_child_postmortem);
  if (!f) return;
  if (cmp::CmpSystem* sys = cmp::CmpSystem::current()) {
    sys->write_postmortem(f, reason);
  } else {
    f << "=== DISCO postmortem black box ===\nreason: " << reason
      << "\n(no live system at time of failure)\n";
  }
  f.flush();
}

void on_child_crash(int sig) {
  if (g_in_fatal_handler) ::_exit(128 + sig);
  g_in_fatal_handler = 1;
  write_child_postmortem(signal_name(sig));
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void on_child_term(int) {
  if (g_in_fatal_handler) ::_exit(124);
  g_in_fatal_handler = 1;
  write_child_postmortem("SIGTERM from supervisor (wall-clock budget or shutdown)");
  ::_exit(124);
}

void write_all(int fd, const std::string& payload) {
  std::size_t off = 0;
  while (off < payload.size()) {
    const ssize_t n = ::write(fd, payload.data() + off, payload.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

[[noreturn]] void child_main(SweepCell cell, std::size_t index,
                             unsigned attempt, const SweepOptions& opt,
                             int wfd) {
  // Fresh signal dispositions: the parent coordinates interactive shutdown
  // (it SIGTERMs us), so a terminal Ctrl-C must not hit children directly.
  std::signal(SIGINT, SIG_IGN);
  struct sigaction crash;
  std::memset(&crash, 0, sizeof crash);
  crash.sa_handler = on_child_crash;
  sigemptyset(&crash.sa_mask);
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
    ::sigaction(sig, &crash, nullptr);
  struct sigaction term;
  std::memset(&term, 0, sizeof term);
  term.sa_handler = on_child_term;
  sigemptyset(&term.sa_mask);
  ::sigaction(SIGTERM, &term, nullptr);

  if (!opt.supervisor.checkpoint_dir.empty()) {
    g_child_postmortem = opt.supervisor.checkpoint_dir + "/postmortem-cell" +
                         std::to_string(index) + "-attempt" +
                         std::to_string(attempt) + ".txt";
    cell.cfg.postmortem_path = g_child_postmortem;
  }

  // Black box: keep a small tracer ring live even when the user asked for no
  // tracing, so a postmortem always carries the last events. Tracing is pure
  // observation and trace_text is stripped below, so results stay
  // bit-identical to a non-isolated run.
  bool auto_trace = false;
  if (!cell.cfg.trace.active() && !opt.supervisor.checkpoint_dir.empty()) {
    auto_trace = true;
    cell.cfg.trace.enabled = true;
    cell.cfg.trace.ring_capacity = 4096;
    cell.cfg.trace.out_path.clear();
  }

  // Mid-cell checkpointing: snapshot into the checkpoint dir every N
  // measured cycles and resume from the last good snapshot on a retry.
  std::uint64_t resumed_cycles = 0;
  const bool snapshotting = opt.supervisor.snapshot_interval_cycles > 0 &&
                            !opt.supervisor.checkpoint_dir.empty();
  if (snapshotting) {
    cell.opt.snapshot_interval = opt.supervisor.snapshot_interval_cycles;
    cell.opt.snapshot_path =
        snapshot_path_for(opt.supervisor.checkpoint_dir, index);
    cell.opt.resumed_from_cycles = &resumed_cycles;
    if (opt.supervisor.debug_kill_cell >= 0 &&
        static_cast<std::size_t>(opt.supervisor.debug_kill_cell) == index &&
        attempt <= opt.supervisor.debug_crash_attempts)
      cell.opt.debug_kill_at = opt.supervisor.debug_kill_cycle;
  }

  std::string payload;
  int exit_code = 0;
  try {
    debug_fault_hook(opt.supervisor, index, attempt);
    CellResult r = run_cell(cell.cfg, cell.profile, cell.opt);
    if (auto_trace) r.trace_text.clear();
    payload = wire::encode_result(r);
    if (snapshotting) {
      // Ride the result object: the parent journals how many cycles this
      // attempt recovered from the snapshot instead of re-simulating.
      payload.pop_back();  // '}'
      payload +=
          ",\"snapshot_resume_cycle\":" + std::to_string(resumed_cycles) + "}";
    }
  } catch (...) {
    payload = "{\"error\":";
    wire::append_json_string(payload, detail::describe_current_exception());
    payload += "}";
    exit_code = 3;
  }
  write_all(wfd, payload);
  ::close(wfd);
  std::_Exit(exit_code);
}

// ---------------------------------------------------------------------------
// Parent side of --isolate: single-threaded poll() scheduler
// ---------------------------------------------------------------------------

struct ChildProc {
  pid_t pid = -1;
  int fd = -1;
  std::size_t windex = 0;  ///< index into the work list
  unsigned attempt = 1;
  Clock::time_point start;
  bool term_sent = false;       ///< SIGTERM sent for exceeding the budget
  bool interrupt_sent = false;  ///< SIGTERM sent for a sweep shutdown
  bool killed = false;          ///< escalated to SIGKILL
  bool rss_killed = false;      ///< SIGKILLed for exceeding --max-rss-mb
  std::uint64_t rss_mb = 0;     ///< RSS at the moment of the kill
  Clock::time_point term_at;
  std::string buf;  ///< accumulated pipe payload
};

struct PendingAttempt {
  std::size_t windex = 0;
  unsigned attempt = 1;
  Clock::time_point not_before;
};

class IsolatedScheduler {
 public:
  IsolatedScheduler(const std::vector<SweepCell>& prepared,
                    const std::vector<std::size_t>& work,
                    const SweepOptions& opt, SweepResult& res,
                    CheckpointJournal& journal, detail::ProgressMeter& progress)
      : prepared_(prepared), work_(work), opt_(opt), so_(opt.supervisor),
        max_attempts_(1 + so_.max_retries), res_(res), journal_(journal),
        progress_(progress), cell_start_(work.size()) {}

  void run() {
    // The scheduler itself stays single-threaded: forking from a process
    // with live worker threads can deadlock the child on allocator locks.
    const std::size_t slots =
        std::min<std::size_t>(detail::resolve_threads(opt_.threads),
                              std::max<std::size_t>(work_.size(), 1));
    const auto now0 = Clock::now();
    for (std::size_t w = 0; w < work_.size(); ++w)
      pending_.push_back({w, 1, now0});

    bool shutdown_sent = false;
    while (!running_.empty() || !pending_.empty()) {
      if (interrupt_requested() && !shutdown_sent) {
        shutdown_sent = true;
        begin_shutdown();
      }
      if (!interrupt_requested()) launch_ready(slots);
      if (running_.empty()) {
        if (pending_.empty()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        continue;
      }
      poll_children();
      enforce_deadlines();
    }
  }

 private:
  void launch_ready(std::size_t slots) {
    const auto now = Clock::now();
    for (auto it = pending_.begin();
         it != pending_.end() && running_.size() < slots;) {
      if (it->not_before <= now) {
        spawn(*it);
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void spawn(const PendingAttempt& p) {
    const std::size_t i = work_[p.windex];
    if (p.attempt == 1) cell_start_[p.windex] = Clock::now();
    int fds[2];
    if (::pipe(fds) != 0) {
      record_final(p.windex, p.attempt, CellStatus::Failed,
                   std::string("pipe: ") + std::strerror(errno));
      return;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      record_final(p.windex, p.attempt, CellStatus::Failed,
                   std::string("fork: ") + std::strerror(errno));
      return;
    }
    if (pid == 0) {
      ::close(fds[0]);
      child_main(prepared_[i], i, p.attempt, opt_, fds[1]);  // never returns
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    ChildProc c;
    c.pid = pid;
    c.fd = fds[0];
    c.windex = p.windex;
    c.attempt = p.attempt;
    c.start = Clock::now();
    running_.push_back(std::move(c));
  }

  void poll_children() {
    std::vector<pollfd> fds(running_.size());
    for (std::size_t k = 0; k < running_.size(); ++k)
      fds[k] = {running_[k].fd, POLLIN, 0};
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);

    std::vector<std::size_t> closed;
    for (std::size_t k = 0; k < running_.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      ChildProc& c = running_[k];
      char tmp[4096];
      for (;;) {
        const ssize_t n = ::read(c.fd, tmp, sizeof tmp);
        if (n > 0) {
          c.buf.append(tmp, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        closed.push_back(k);  // EOF (or hard read error): child is done
        break;
      }
    }
    for (auto it = closed.rbegin(); it != closed.rend(); ++it) reap(*it);
  }

  void reap(std::size_t k) {
    ChildProc c = std::move(running_[k]);
    running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(k));
    ::close(c.fd);
    int wstatus = 0;
    while (::waitpid(c.pid, &wstatus, 0) < 0 && errno == EINTR) {
    }

    CellStatus status;
    std::string error;
    CellResult result;
    std::uint64_t resumed_cycles = 0;
    classify_exit(c, wstatus, status, error, result, resumed_cycles);

    // Failed is final: the child ran run_cell to a throw (or sent garbage),
    // and a retry would replay the same seed into the same failure.
    const bool retryable = status == CellStatus::Crashed ||
                           status == CellStatus::TimedOut ||
                           status == CellStatus::ResourceExhausted;
    if (retryable && c.attempt < max_attempts_ && !interrupt_requested()) {
      record_attempt(c.windex, c.attempt, status, error);
      const std::uint64_t backoff = so_.retry_backoff_ms << (c.attempt - 1);
      pending_.push_back(
          {c.windex, c.attempt + 1,
           Clock::now() + std::chrono::milliseconds(backoff)});
      progress_.note("cell " + std::to_string(work_[c.windex]) + " " +
                     to_string(status) + " (" + error + "); retry " +
                     std::to_string(c.attempt + 1) + "/" +
                     std::to_string(max_attempts_) + " in " +
                     std::to_string(backoff) + "ms");
      return;
    }
    SweepCellOutcome& out = res_.cells[work_[c.windex]];
    out.attempts = c.attempt;
    out.status = status;
    out.error = std::move(error);
    if (status == CellStatus::Ok) {
      out.result = std::move(result);
      out.snap_saved_cycles = resumed_cycles;
    }
    finalize(c.windex);
  }

  void classify_exit(const ChildProc& c, int wstatus, CellStatus& status,
                     std::string& error, CellResult& result,
                     std::uint64_t& resumed_cycles) const {
    if (c.interrupt_sent) {
      status = CellStatus::Interrupted;
      error = "sweep interrupted";
      return;
    }
    if (c.rss_killed) {
      status = CellStatus::ResourceExhausted;
      error = "child resident set " + std::to_string(c.rss_mb) +
              "MiB exceeded the " + std::to_string(so_.max_rss_mb) +
              "MiB --max-rss-mb cap (killed)";
      return;
    }
    if (c.term_sent) {
      status = CellStatus::TimedOut;
      error = "cell exceeded " + std::to_string(so_.cell_timeout_ms) +
              "ms budget (child " + (c.killed ? "killed" : "terminated") + ")";
      return;
    }
    if (WIFSIGNALED(wstatus)) {
      const int sig = WTERMSIG(wstatus);
      status = CellStatus::Crashed;
      error = "child killed by signal " + std::to_string(sig) + " (" +
              signal_name(sig) + ")";
      return;
    }
    const int code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
    if (code == 0) {
      try {
        const wire::Value v = wire::parse_object(c.buf);
        result = wire::decode_result(v);
        resumed_cycles = v.num_or("snapshot_resume_cycle", 0);
        status = CellStatus::Ok;
      } catch (const std::exception& e) {
        status = CellStatus::Failed;
        error = std::string("truncated result from child: ") + e.what();
      }
      return;
    }
    if (code == 3) {
      status = CellStatus::Failed;
      try {
        error = wire::parse_object(c.buf).str_or("error", "unknown error");
      } catch (const std::exception&) {
        error = "child failed (unparseable error payload)";
      }
      return;
    }
    if (code == 124) {
      // The child acknowledged our SIGTERM (term_sent handled above, so this
      // is a stray 124 — treat it like a timeout ack all the same).
      status = CellStatus::TimedOut;
      error = "child acknowledged termination";
      return;
    }
    status = CellStatus::Crashed;
    error = "child exited with unexpected code " + std::to_string(code);
  }

  /// Resident set of `pid` in MiB via /proc/<pid>/statm (Linux; returns 0
  /// where /proc is unavailable, which disables the cap gracefully).
  static std::uint64_t read_rss_mb(pid_t pid) {
    char path[64];
    std::snprintf(path, sizeof path, "/proc/%d/statm", static_cast<int>(pid));
    std::FILE* f = std::fopen(path, "r");
    if (f == nullptr) return 0;
    unsigned long long size = 0, resident = 0;
    const int n = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    if (n != 2) return 0;
    static const long page = ::sysconf(_SC_PAGESIZE);
    return resident * static_cast<unsigned long long>(page) / (1024 * 1024);
  }

  void enforce_deadlines() {
    const auto now = Clock::now();
    for (ChildProc& c : running_) {
      // Memory watchdog: a worker past the RSS cap is killed outright
      // (SIGTERM could be absorbed by an allocator stuck in swap-thrash)
      // and journaled as resource_exhausted, not conflated with hangs.
      if (so_.max_rss_mb > 0 && !c.term_sent && !c.interrupt_sent &&
          !c.rss_killed) {
        const std::uint64_t rss = read_rss_mb(c.pid);
        if (rss > so_.max_rss_mb) {
          ::kill(c.pid, SIGKILL);
          c.rss_killed = true;
          c.rss_mb = rss;
          continue;
        }
      }
      if (c.term_sent || c.interrupt_sent) {
        if (!c.killed &&
            ms_since(c.term_at) > static_cast<double>(so_.hang_grace_ms)) {
          ::kill(c.pid, SIGKILL);
          c.killed = true;
        }
        continue;
      }
      if (so_.cell_timeout_ms > 0 &&
          std::chrono::duration<double, std::milli>(now - c.start).count() >
              static_cast<double>(so_.cell_timeout_ms)) {
        ::kill(c.pid, SIGTERM);
        c.term_sent = true;
        c.term_at = now;
      }
    }
  }

  void begin_shutdown() {
    const auto now = Clock::now();
    for (ChildProc& c : running_) {
      if (!c.term_sent && !c.interrupt_sent) {
        ::kill(c.pid, SIGTERM);
        c.term_at = now;
      }
      c.interrupt_sent = true;
    }
    // Pending attempts never run: journal whatever state their cell is in.
    for (const PendingAttempt& p : pending_) {
      detail::interrupt_if_unclaimed(res_.cells[work_[p.windex]]);
      finalize(p.windex);
    }
    pending_.clear();
  }

  /// Journal a non-final (to-be-retried) attempt's outcome into the live
  /// SweepCellOutcome so an interrupt mid-backoff still reports it.
  void record_attempt(std::size_t windex, unsigned attempt, CellStatus status,
                      const std::string& error) {
    SweepCellOutcome& out = res_.cells[work_[windex]];
    out.attempts = attempt;
    out.status = status;
    out.error = error;
  }

  void record_final(std::size_t windex, unsigned attempt, CellStatus status,
                    std::string error) {
    SweepCellOutcome& out = res_.cells[work_[windex]];
    out.attempts = attempt;
    out.status = status;
    out.error = std::move(error);
    finalize(windex);
  }

  void finalize(std::size_t windex) {
    SweepCellOutcome& out = res_.cells[work_[windex]];
    out.wall_ms = ms_since(cell_start_[windex]);
    journal_.append(encode_entry(out));
    // Terminal outcome: the cell's snapshot is no longer needed. An
    // interrupted cell keeps it — the --resume rerun picks it up mid-cell.
    if (out.status != CellStatus::Interrupted)
      gc_snapshot(so_.checkpoint_dir, out.index);
    progress_.cell_finished(prepared_[out.index], out);
  }

  const std::vector<SweepCell>& prepared_;
  const std::vector<std::size_t>& work_;
  const SweepOptions& opt_;
  const SupervisorOptions& so_;
  const unsigned max_attempts_;
  SweepResult& res_;
  CheckpointJournal& journal_;
  detail::ProgressMeter& progress_;
  std::vector<Clock::time_point> cell_start_;
  std::deque<PendingAttempt> pending_;
  std::vector<ChildProc> running_;
};

}  // namespace

void install_interrupt_handlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_interrupt;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: a blocked poll()/read() must wake up
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

Manifest load_manifest(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open manifest: " + path);
  Manifest m;
  std::string line;
  bool have_header = false;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    wire::Value v;
    try {
      v = wire::parse_object(line);
    } catch (const std::exception&) {
      continue;  // torn line: that cell simply reruns
    }
    if (!have_header) {
      if (v.find("manifest") == nullptr)
        throw std::runtime_error("manifest: missing header line in " + path);
      m.cells = v.num_or("cells", 0);
      m.base_seed = v.num_or("base_seed", 0);
      m.shard_index = static_cast<unsigned>(v.num_or("shard_index", 0));
      m.shard_count = static_cast<unsigned>(v.num_or("shard_count", 1));
      have_header = true;
      continue;
    }
    // Per-entry fault containment: a bit-flipped or truncated-but-parseable
    // entry (unknown status name, wrong field kind, missing result field)
    // is dropped — that one cell reruns — instead of failing the resume.
    try {
      ManifestEntry e;
      e.cell = v.num_or("cell", 0);
      e.group = v.num_or("group", 0);
      e.status = status_from_name(v.str_or("status", "failed"));
      e.attempts = static_cast<unsigned>(v.num_or("attempts", 0));
      e.snap_saved_cycles = v.num_or("snap_saved_cycles", 0);
      e.error = v.str_or("error", "");
      if (const wire::Value* r = v.find("result")) {
        e.result = wire::decode_result(*r);
        e.has_result = true;
      }
      e.line = line;
      m.entries.push_back(std::move(e));
    } catch (const std::exception&) {
      continue;
    }
  }
  if (!have_header)
    throw std::runtime_error("manifest: empty or headerless: " + path);
  return m;
}

void detail::run_isolated(const std::vector<SweepCell>& prepared,
                          std::vector<std::size_t> work,
                          const SweepOptions& opt, SweepResult& res) {
  const SupervisorOptions& so = opt.supervisor;
  const std::size_t cells = prepared.size();

  // Resume: adopt the prior run's Ok cells verbatim; everything else reruns.
  std::vector<std::string> carried;
  if (!so.resume_manifest.empty()) {
    Manifest m = load_manifest(so.resume_manifest);
    const unsigned shards = std::max(1u, opt.shard_count);
    if (m.cells != cells || m.base_seed != opt.base_seed ||
        m.shard_index != opt.shard_index % shards || m.shard_count != shards) {
      throw std::runtime_error(
          "resume: manifest " + so.resume_manifest +
          " does not match this sweep (cells " + std::to_string(m.cells) +
          " vs " + std::to_string(cells) + ", base_seed " +
          std::to_string(m.base_seed) + " vs " + std::to_string(opt.base_seed) +
          ", shard " + std::to_string(m.shard_index) + "/" +
          std::to_string(m.shard_count) + " vs " +
          std::to_string(opt.shard_index % shards) + "/" +
          std::to_string(shards) + ")");
    }
    for (ManifestEntry& e : m.entries) {
      if (e.status != CellStatus::Ok || !e.has_result) continue;
      if (e.cell >= res.cells.size()) continue;
      SweepCellOutcome& out = res.cells[e.cell];
      out.status = CellStatus::Ok;
      out.attempts = e.attempts;
      out.snap_saved_cycles = e.snap_saved_cycles;
      out.error = e.error;
      out.result = std::move(e.result);
      carried.push_back(std::move(e.line));
      work.erase(std::remove(work.begin(), work.end(), e.cell), work.end());
    }
  }

  // Snapshot-directory hygiene: a fresh (non-resume) sweep invalidates any
  // snapshots a previous run left in this checkpoint dir; on resume, only
  // the cells still to be run may keep one.
  if (!so.checkpoint_dir.empty()) {
    for (std::size_t i = 0; i < cells; ++i) {
      const bool still_to_run =
          !so.resume_manifest.empty() &&
          std::find(work.begin(), work.end(), i) != work.end();
      if (!still_to_run) gc_snapshot(so.checkpoint_dir, i);
    }
  }

  CheckpointJournal journal;
  if (!so.checkpoint_dir.empty())
    journal.open(so.checkpoint_dir, encode_header(cells, opt),
                 std::move(carried));

  detail::ProgressMeter progress(work.size(), opt);
  IsolatedScheduler(prepared, work, opt, res, journal, progress).run();
}

}  // namespace disco::sim
