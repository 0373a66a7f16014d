#include "sim/sweep.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/interrupt.h"
#include "common/rng.h"
#include "fault/fault.h"
#include "compress/decode_error.h"
#include "sim/sweep_internal.h"
#include "trace/trace.h"

namespace disco::sim {

namespace detail {

unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

void run_pool(std::size_t count, unsigned threads,
              const std::function<void(std::size_t)>& task) {
  if (count == 0) return;
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      if (interrupt_requested()) return;
      task(i);
    }
  };
  const unsigned n = std::min<std::size_t>(resolve_threads(threads), count);
  if (n <= 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(n);
  for (unsigned t = 0; t < n; ++t) pool.emplace_back(worker);
  for (auto& th : pool) th.join();
}

std::string describe_current_exception() {
  try {
    throw;
  } catch (const compress::DecodeError& e) {
    return std::string("decode error: ") + e.what();
  } catch (const cmp::NoProgressError& e) {
    return e.what();
  } catch (const std::exception& e) {
    return e.what();
  } catch (const char* s) {
    return std::string("c-string exception: ") + s;
  } catch (const std::string& s) {
    return "string exception: " + s;
  } catch (int v) {
    return "int exception: " + std::to_string(v);
  } catch (long v) {
    return "long exception: " + std::to_string(v);
  } catch (...) {
    return "exception of unknown type";
  }
}

std::vector<SweepCell> prepare_cells(const std::vector<SweepCell>& cells,
                                     const SweepOptions& opt, SweepResult& res,
                                     std::vector<std::size_t>& work) {
  res.cells.resize(cells.size());
  std::vector<SweepCell> prepared(cells);
  const unsigned shards = std::max(1u, opt.shard_count);
  for (std::size_t i = 0; i < prepared.size(); ++i) {
    SweepCell& c = prepared[i];
    if (c.group == SweepCell::kAuto) c.group = i;
    if (c.seed_group == SweepCell::kAuto) c.seed_group = c.group;
    if (opt.reseed_cells)
      c.cfg.seed = splitmix64(opt.base_seed,
                              static_cast<std::uint64_t>(c.seed_group));
    if (opt.trace.active()) {
      c.cfg.trace = opt.trace;
      if (!opt.trace.out_path.empty())
        c.cfg.trace.out_path =
            opt.trace.out_path + "-cell" + std::to_string(i) + ".json";
    }
    if (opt.progress_watchdog_cycles > 0)
      c.cfg.progress_watchdog_cycles = opt.progress_watchdog_cycles;
    res.cells[i].index = i;
    res.cells[i].group = c.group;
    if (c.group % shards == opt.shard_index % shards) {
      work.push_back(i);
    } else {
      res.cells[i].status = CellStatus::Skipped;
    }
  }
  return prepared;
}

void tally_outcomes(SweepResult& res) {
  res.completed = 0;
  res.failed = 0;
  res.crashed = 0;
  res.skipped = 0;
  for (const auto& c : res.cells) {
    switch (c.status) {
      case CellStatus::Ok: ++res.completed; break;
      case CellStatus::Skipped: ++res.skipped; break;
      case CellStatus::Interrupted: res.interrupted = true; break;
      case CellStatus::Crashed:
        ++res.crashed;
        ++res.failed;
        break;
      case CellStatus::Failed:
      case CellStatus::TimedOut:
      case CellStatus::ResourceExhausted: ++res.failed; break;
    }
  }
  if (interrupt_requested()) res.interrupted = true;
}

}  // namespace detail

namespace {

[[noreturn]] void usage(const char* prog, int code) {
  std::fprintf(stderr,
               "usage: %s [--threads N] [--shard i/k] [--seed S]\n"
               "          [--timeout-ms T] [--no-progress] [--isolate]\n"
               "          [--checkpoint-dir D] [--resume M] [--fault-* ...] [args...]\n"
               "  --threads N     worker threads (default: cores - 1)\n"
               "  --shard i/k     run shard i of k (0 <= i < k); cells are\n"
               "                  sharded by group so comparison rows stay whole\n"
               "  --seed S        base seed; per-cell seed = splitmix64(S, cell)\n"
               "  --no-progress   suppress the stderr progress line\n"
               "crash resilience (sweep supervisor; --timeout-ms, --checkpoint-dir,\n"
               "--resume, --snapshot-interval-cycles, --max-rss-mb and the\n"
               "--debug-* hooks imply --isolate):\n"
               "  --isolate            run each cell in a forked child process;\n"
               "                       a SIGSEGV or hard hang costs one cell\n"
               "  --timeout-ms T       per-cell wall-clock budget (0 = none)\n"
               "  --checkpoint-dir D   journal finished cells to D/manifest.jsonl\n"
               "                       and write postmortem black boxes into D\n"
               "  --resume M           adopt the Ok cells of manifest M verbatim\n"
               "                       (aggregate output is byte-identical to an\n"
               "                       uninterrupted run) and run only the rest\n"
               "  --max-retries R      extra attempts per crashed/hung/over-RSS cell\n"
               "                       (default 1)\n"
               "  --retry-backoff-ms B backoff before retry r is B << (r-1)\n"
               "                       (default 100)\n"
               "  --hang-grace-ms G    grace between SIGTERM and SIGKILL for a\n"
               "                       timed-out child (default 2000)\n"
               "  --snapshot-interval-cycles N\n"
               "                       (needs --checkpoint-dir) each\n"
               "                       worker snapshots its full simulation\n"
               "                       state every N measured cycles; retries\n"
               "                       resume from the last good snapshot\n"
               "                       byte-identically instead of recomputing\n"
               "                       from cycle 0 (0 = off)\n"
               "  --max-rss-mb M       SIGKILL an isolated child whose resident\n"
               "                       set exceeds M MiB; journaled as\n"
               "                       resource_exhausted (0 = off)\n"
               "  --progress-watchdog N fail a cell with a classified deadlock/\n"
               "                       livelock/starvation error if no packet\n"
               "                       moves for N cycles while work is pending\n"
               "  --debug-crash-cell K / --debug-hang-cell K / --debug-throw-cell K\n"
               "                       deterministically break cell K (tests/CI);\n"
               "                       --debug-crash-attempts A limits the hooks\n"
               "                       to the first A attempts (default 1);\n"
               "                       --debug-kill-cell K --debug-kill-cycle C\n"
               "                       SIGKILLs cell K after its first snapshot\n"
               "                       at or past cycle C (needs\n"
               "                       --snapshot-interval-cycles)\n"
               "tracing / invariants:\n"
               "  --trace PREFIX       capture probe events; writes Chrome JSON\n"
               "                       to <PREFIX>-cell<i>.json (Perfetto)\n"
               "  --trace-filter CATS  comma list: noc,credit,ni,disco,cache\n"
               "  --check-invariants   stream every event through the runtime\n"
               "                       invariant checker (summary per cell)\n"
               "fault injection (any rate flag enables the injector):\n"
               "  --fault-rate R         link + LLC payload bit-flip rate\n"
               "  --fault-link-rate R    per-hop compressed-payload bit-flip rate\n"
               "  --fault-llc-rate R     compressed-LLC-readout bit-flip rate\n"
               "  --fault-drop-rate R    per-flit body-flit drop rate\n"
               "  --fault-dup-rate R     per-flit ejection duplicate rate\n"
               "  --fault-engine-rate R  DISCO engine output corruption rate\n"
               "  --fault-stall-rate R   DISCO engine transient stall rate\n"
               "  --fault-crc M          payload checksum: crc32 (default) | fold8\n"
               "  --fault-retries N      max retransmission attempts per block\n"
               "  --fault-backoff B      retransmission backoff base (cycles)\n"
               "permanent (hard) faults — graceful degradation:\n"
               "  --hard-fault SPEC      explicit kill schedule, comma-separated\n"
               "                         kind@cycle:node (link@cycle:node:DIR);\n"
               "                         kinds: link, router, engine, llc;\n"
               "                         e.g. engine@5000:3,link@9000:5:E\n"
               "  --hard-fault-rate R    per-component permanent-failure\n"
               "                         probability per cycle (seed-derived\n"
               "                         exponential draw per component)\n",
               prog);
  std::exit(code);
}

}  // namespace

const char* to_string(CellStatus s) {
  switch (s) {
    case CellStatus::Ok: return "ok";
    case CellStatus::Failed: return "failed";
    case CellStatus::TimedOut: return "timed_out";
    case CellStatus::Skipped: return "skipped";
    case CellStatus::Crashed: return "crashed";
    case CellStatus::Interrupted: return "interrupted";
    case CellStatus::ResourceExhausted: return "resource_exhausted";
  }
  return "?";
}

const CellResult* SweepResult::ok(std::size_t index) const {
  return index < cells.size() && cells[index].ok() ? &cells[index].result
                                                   : nullptr;
}

std::vector<CellResult> SweepResult::ok_results() const {
  std::vector<CellResult> out;
  out.reserve(completed);
  for (const auto& c : cells)
    if (c.ok()) out.push_back(c.result);
  return out;
}

SweepResult run_sweep(const std::vector<SweepCell>& cells,
                      const SweepOptions& opt) {
  const auto t0 = detail::Clock::now();
  SweepResult res;
  std::vector<std::size_t> work;
  const std::vector<SweepCell> prepared =
      detail::prepare_cells(cells, opt, res, work);

  if (opt.supervisor.active()) {
    detail::run_isolated(prepared, std::move(work), opt, res);
  } else {
    detail::ProgressMeter progress(work.size(), opt);
    detail::run_pool(work.size(), opt.threads, [&](std::size_t w) {
      const std::size_t i = work[w];
      const SweepCell& cell = prepared[i];
      SweepCellOutcome& out = res.cells[i];
      const auto cell_t0 = detail::Clock::now();
      // One attempt: cells are deterministic, so a retry would replay the
      // same seed into the same failure.
      out.attempts = 1;
      try {
        out.result = run_cell(cell.cfg, cell.profile, cell.opt);
        out.status = CellStatus::Ok;
      } catch (const cmp::CancelledError&) {
        out.status = CellStatus::Interrupted;
        out.error = "cell interrupted";
      } catch (...) {
        out.status = CellStatus::Failed;
        out.error = detail::describe_current_exception();
      }
      out.wall_ms = detail::ms_since(cell_t0);
      progress.cell_finished(cell, out);
    });
    for (const std::size_t i : work)
      detail::interrupt_if_unclaimed(res.cells[i]);
  }
  detail::tally_outcomes(res);
  res.wall_ms = detail::ms_since(t0);
  return res;
}

void run_indexed(std::size_t count, const std::function<void(std::size_t)>& fn,
                 const SweepOptions& opt) {
  detail::ProgressMeter progress(count, opt);
  detail::run_pool(count, opt.threads, [&](std::size_t i) {
    fn(i);
    progress.cell_done();
  });
}

SweepOptions parse_sweep_flags(int argc, char** argv,
                               std::vector<std::string>& positional) {
  SweepOptions opt;
  // Debug fault hooks are also settable from the environment so CI can break
  // a child without touching every bench's argv plumbing.
  if (const char* e = std::getenv("DISCO_DEBUG_CRASH_CELL"))
    opt.supervisor.debug_crash_cell = std::atoi(e);
  if (const char* e = std::getenv("DISCO_DEBUG_HANG_CELL"))
    opt.supervisor.debug_hang_cell = std::atoi(e);
  if (const char* e = std::getenv("DISCO_DEBUG_THROW_CELL"))
    opt.supervisor.debug_throw_cell = std::atoi(e);
  if (const char* e = std::getenv("DISCO_DEBUG_CRASH_ATTEMPTS"))
    opt.supervisor.debug_crash_attempts =
        static_cast<unsigned>(std::strtoul(e, nullptr, 10));
  if (const char* e = std::getenv("DISCO_DEBUG_KILL_CELL"))
    opt.supervisor.debug_kill_cell = std::atoi(e);
  if (const char* e = std::getenv("DISCO_DEBUG_KILL_CYCLE"))
    opt.supervisor.debug_kill_cycle = std::strtoull(e, nullptr, 10);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0], 2);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(argv[0], 0);
    } else if (arg == "--threads") {
      opt.threads = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--seed") {
      opt.base_seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--timeout-ms") {
      opt.supervisor.cell_timeout_ms = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--no-progress") {
      opt.progress = false;
    } else if (arg == "--isolate") {
      opt.supervisor.isolate = true;
    } else if (arg == "--checkpoint-dir") {
      opt.supervisor.checkpoint_dir = value();
    } else if (arg == "--resume") {
      opt.supervisor.resume_manifest = value();
    } else if (arg == "--max-retries") {
      opt.supervisor.max_retries =
          static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--retry-backoff-ms") {
      opt.supervisor.retry_backoff_ms = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--hang-grace-ms") {
      opt.supervisor.hang_grace_ms = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--snapshot-interval-cycles") {
      opt.supervisor.snapshot_interval_cycles =
          std::strtoull(value(), nullptr, 10);
    } else if (arg == "--max-rss-mb") {
      opt.supervisor.max_rss_mb = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--progress-watchdog") {
      opt.progress_watchdog_cycles = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--debug-crash-cell") {
      opt.supervisor.debug_crash_cell = std::atoi(value());
    } else if (arg == "--debug-hang-cell") {
      opt.supervisor.debug_hang_cell = std::atoi(value());
    } else if (arg == "--debug-throw-cell") {
      opt.supervisor.debug_throw_cell = std::atoi(value());
    } else if (arg == "--debug-kill-cell") {
      opt.supervisor.debug_kill_cell = std::atoi(value());
    } else if (arg == "--debug-kill-cycle") {
      opt.supervisor.debug_kill_cycle = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--debug-crash-attempts") {
      opt.supervisor.debug_crash_attempts =
          static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--trace") {
      opt.trace.out_path = value();
      opt.trace.enabled = true;
    } else if (arg == "--trace-filter") {
      opt.trace.filter = value();
      opt.trace.enabled = true;
      try {
        trace::category_mask(opt.trace.filter);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage(argv[0], 2);
      }
    } else if (arg == "--check-invariants") {
      opt.trace.check_invariants = true;
    } else if (arg == "--fault-rate") {
      const double r = std::strtod(value(), nullptr);
      opt.fault.link_bit_flip_rate = r;
      opt.fault.llc_bit_flip_rate = r;
      opt.fault.enabled = true;
    } else if (arg == "--fault-link-rate") {
      opt.fault.link_bit_flip_rate = std::strtod(value(), nullptr);
      opt.fault.enabled = true;
    } else if (arg == "--fault-llc-rate") {
      opt.fault.llc_bit_flip_rate = std::strtod(value(), nullptr);
      opt.fault.enabled = true;
    } else if (arg == "--fault-drop-rate") {
      opt.fault.flit_drop_rate = std::strtod(value(), nullptr);
      opt.fault.enabled = true;
    } else if (arg == "--fault-dup-rate") {
      opt.fault.flit_duplicate_rate = std::strtod(value(), nullptr);
      opt.fault.enabled = true;
    } else if (arg == "--fault-engine-rate") {
      opt.fault.engine_fault_rate = std::strtod(value(), nullptr);
      opt.fault.enabled = true;
    } else if (arg == "--fault-stall-rate") {
      opt.fault.engine_stall_rate = std::strtod(value(), nullptr);
      opt.fault.enabled = true;
    } else if (arg == "--fault-crc") {
      const std::string m = value();
      if (m == "crc32") {
        opt.fault.crc = CrcMode::Crc32;
      } else if (m == "fold8") {
        opt.fault.crc = CrcMode::Fold8;
      } else {
        std::fprintf(stderr, "unknown --fault-crc mode: %s\n", m.c_str());
        usage(argv[0], 2);
      }
    } else if (arg == "--hard-fault") {
      try {
        opt.fault.hard_faults = fault::parse_hard_fault_spec(value());
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        usage(argv[0], 2);
      }
      opt.fault.enabled = true;
    } else if (arg == "--hard-fault-rate") {
      opt.fault.hard_fault_rate = std::strtod(value(), nullptr);
      opt.fault.enabled = true;
    } else if (arg == "--fault-retries") {
      opt.fault.max_retries =
          static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--fault-backoff") {
      opt.fault.retry_backoff_base =
          static_cast<std::uint32_t>(std::strtoul(value(), nullptr, 10));
    } else if (arg == "--shard") {
      const char* v = value();
      char* sep = nullptr;
      opt.shard_index = static_cast<unsigned>(std::strtoul(v, &sep, 10));
      if (!sep || (*sep != '/' && *sep != ':')) usage(argv[0], 2);
      opt.shard_count = static_cast<unsigned>(std::strtoul(sep + 1, nullptr, 10));
      if (opt.shard_count == 0 || opt.shard_index >= opt.shard_count)
        usage(argv[0], 2);
    } else if (arg.size() > 1 && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage(argv[0], 2);
    } else {
      positional.push_back(arg);
    }
  }
  const SupervisorOptions& so = opt.supervisor;
  if (so.snapshot_interval_cycles > 0 && so.checkpoint_dir.empty()) {
    std::fprintf(stderr, "--snapshot-interval-cycles needs --checkpoint-dir\n");
    usage(argv[0], 2);
  }
  if (so.debug_kill_cell >= 0 && so.snapshot_interval_cycles == 0) {
    std::fprintf(stderr,
                 "--debug-kill-cell needs --snapshot-interval-cycles\n");
    usage(argv[0], 2);
  }
  return opt;
}

}  // namespace disco::sim
