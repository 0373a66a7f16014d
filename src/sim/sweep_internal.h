// Internals shared between the sweep engine (sweep.cpp) and the crash
// supervisor (supervisor.cpp): the thread pool, cell preparation, progress
// reporting and outcome accounting. Not part of the public sweep API.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sim/sweep.h"

namespace disco::sim::detail {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

unsigned resolve_threads(unsigned requested);

/// Serialized stderr progress line: cells done / total, elapsed, ETA.
class ProgressMeter {
 public:
  ProgressMeter(std::size_t total, const SweepOptions& opt)
      : total_(total), enabled_(opt.progress), label_(opt.progress_label),
        start_(Clock::now()) {}

  void cell_done() {
    if (!enabled_) return;
    const std::size_t done = ++done_;
    std::lock_guard<std::mutex> lock(mu_);
    const double elapsed_s = ms_since(start_) / 1000.0;
    const double eta_s =
        done > 0 ? elapsed_s * static_cast<double>(total_ - done) /
                       static_cast<double>(done)
                 : 0.0;
    std::fprintf(stderr, "\r%s: %zu/%zu cells (%3.0f%%)  elapsed %.1fs  eta %.1fs ",
                 label_.c_str(), done, total_,
                 100.0 * static_cast<double>(done) / static_cast<double>(total_),
                 elapsed_s, eta_s);
    if (done == total_) std::fprintf(stderr, "\n");
    std::fflush(stderr);
  }

  void note(const std::string& line) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    std::fprintf(stderr, "\n%s: %s\n", label_.c_str(), line.c_str());
  }

  /// A cell reached its final outcome: note it unless Ok, then count it.
  void cell_finished(const SweepCell& cell, const SweepCellOutcome& out) {
    if (!out.ok()) {
      note("cell " + std::to_string(out.index) + " (" + cell.profile.name +
           "/" + to_string(cell.cfg.scheme) + ") " + to_string(out.status) +
           ": " + out.error);
    }
    cell_done();
  }

 private:
  const std::size_t total_;
  const bool enabled_;
  const std::string label_;
  const Clock::time_point start_;
  std::atomic<std::size_t> done_{0};
  std::mutex mu_;
};

/// Pull-based pool: workers claim task indices from a shared counter. With
/// one resolved thread the tasks run inline on the calling thread, so serial
/// and parallel execution share one code path. Workers stop claiming new
/// tasks once the process interrupt flag is raised.
void run_pool(std::size_t count, unsigned threads,
              const std::function<void(std::size_t)>& task);

/// Render the in-flight exception — whatever its type — as one line. Must be
/// called from inside a catch block. This is what keeps a cell that throws
/// `42` or a C string a structured CellResult error instead of a terminate().
std::string describe_current_exception();

/// Resolve groups / seeds / trace config / watchdog per cell, record
/// skipped-by-shard cells in `res`, and append the runnable cell indices to
/// `work` — everything order-dependent, done deterministically before any
/// worker runs.
std::vector<SweepCell> prepare_cells(const std::vector<SweepCell>& cells,
                                     const SweepOptions& opt, SweepResult& res,
                                     std::vector<std::size_t>& work);

/// An interrupt stopped the sweep before this work cell's first attempt:
/// record it as Interrupted rather than leave it looking Skipped.
inline void interrupt_if_unclaimed(SweepCellOutcome& out) {
  if (out.attempts != 0) return;
  out.status = CellStatus::Interrupted;
  out.error = "sweep interrupted before this cell ran";
}

/// Run the work cells in forked children under the supervisor (resume
/// adoption, checkpoint journal, retries; supervisor.cpp). Throws
/// std::runtime_error when a resume manifest does not match the sweep.
void run_isolated(const std::vector<SweepCell>& prepared,
                  std::vector<std::size_t> work, const SweepOptions& opt,
                  SweepResult& res);

/// Recompute completed/failed/crashed/skipped/interrupted from cell states.
void tally_outcomes(SweepResult& res);

}  // namespace disco::sim::detail
