// Host-time ledger for the traced run. Spans are recorded from the
// benchmark's own files around calls into the simulator's layers: one span
// per cell phase and per measurement chunk, kept in memory and written out
// as Chrome trace JSON when the run ends. Calls made once per router per
// cycle would drown a span list, so they fold into per-layer accumulators
// (calls, total ns, self ns); a layer's self time is its total minus the
// time of the scopes nested inside it.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread. Cell phases and chunks are timed with it:
/// on a paravirtualized guest it leaves out time the hypervisor steals from
/// the vCPU, which on a shared host otherwise slows whole runs by up to 2x
/// for minutes at a time. Reading it is a system call, so the nested
/// per-call accumulators below keep the wall clock.
inline std::int64_t cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

inline double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// (count, total ns, self ns) for one layer boundary.
struct Accum {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// One recorded span, stamped with thread CPU time (cpu_now_ns). `name`
/// points at a string literal.
struct Span {
  const char* name = "";
  std::uint32_t cell = 0;  ///< cell ordinal within the run (spans of one cell share it)
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

class Ledger {
 public:
  /// Open a nested accumulator scope; close it with leave().
  void enter(Accum& acc) { stack_.push_back({&acc, now_ns(), 0}); }
  void leave() {
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = now_ns() - f.start_ns;
    ++f.acc->calls;
    f.acc->total_ns += dur;
    f.acc->self_ns += dur - f.child_ns;
    if (!stack_.empty()) stack_.back().child_ns += dur;
  }

  void record(const char* name, std::uint32_t cell, std::int64_t start_ns,
              std::int64_t end_ns) {
    spans_.push_back({name, cell, start_ns, end_ns - start_ns});
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace_event JSON (open in Perfetto or chrome://tracing).
  void write_chrome_json(std::ostream& os) const {
    const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
         << static_cast<double>(s.start_ns - origin) / 1e3
         << ",\"dur\":" << static_cast<double>(s.dur_ns) / 1e3
         << ",\"args\":{\"cell\":" << s.cell << "}}";
    }
    os << "\n]}\n";
  }

 private:
  struct Frame {
    Accum* acc;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  std::vector<Frame> stack_;
  std::vector<Span> spans_;
};

/// RAII accumulator scope; a null ledger makes it a no-op.
class Scoped {
 public:
  Scoped(Ledger* l, Accum& acc) : l_(l) {
    if (l_ != nullptr) l_->enter(acc);
  }
  ~Scoped() {
    if (l_ != nullptr) l_->leave();
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Ledger* l_;
};

}  // namespace perfbench
