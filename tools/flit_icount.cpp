// Counts the host instructions a flit hop costs, exactly. Builds the plain
// (Baseline) 8x8 mesh of perfbench's noc-8x8 workload with its seed-1
// traffic (uniform random, 0.03 packets per node per cycle, 80%
// compressible payloads) as a sim::NocRun, runs 3000 cycles, then
// single-steps the next 20 cycles under ptrace and attributes every retired
// instruction to a router stage and to a function. The result is
// instructions per flit moved (per link or ejection traversal,
// NocStats::link_flits).
//
//   ./build/tools/flit_icount [--disco]
//
// Each table (per stage, per function, per source line of the innermost
// inline frame) keeps its kTopRows largest rows. --disco runs the
// workload's other cell, the same traffic on DISCO routers.
//
// Instruction counts do not move with host load, so they compare two
// builds of the router on a shared host where wall-clock pairs are noisy.
// They do move with the compiler, its flags and the standard library: a
// count is comparable only to counts from the same toolchain and build type
// (the repository builds with -O3 -g and assertions on). Attribution reads
// the inline chain of each address through addr2line, so a stage keeps its
// instructions after the compiler inlines it into Router::tick.
//
// x86-64 Linux only; the tool is built but no test runs it.
#include <dlfcn.h>
#include <signal.h>
#include <sys/ptrace.h>
#include <sys/types.h>
#include <sys/user.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/noc_run.h"

namespace {

using namespace disco;

// The noc-8x8 cell (perfbench/src/noc_cells.cpp).
constexpr std::uint32_t kSide = 8;
constexpr double kInjectionRate = 0.03;
constexpr double kCompressible = 0.8;
constexpr std::uint64_t kSeed = 1;
constexpr Cycle kWarmCycles = 3000;
constexpr Cycle kWindowCycles = 20;
constexpr std::size_t kTopRows = 25;  ///< rows each table prints

/// Child side: runs the warm cycles, stops, runs the window (single-stepped
/// by the parent), stops again and reports the flits the window moved.
[[noreturn]] void run_child(Scheme scheme, int report_fd) {
  if (ptrace(PTRACE_TRACEME, 0, nullptr, nullptr) != 0) _exit(2);
  NocConfig cfg;
  cfg.mesh_cols = kSide;
  cfg.mesh_rows = kSide;
  sim::NocRun run(cfg, scheme, TraceConfig{},
                  {.rate = kInjectionRate, .compressible = kCompressible,
                   .inject_seed = splitmix64(kSeed, 1),
                   .dest_seed = splitmix64(kSeed, 2)});
  while (run.cycle() < kWarmCycles) run.step();
  const std::uint64_t flits0 = run.stats().link_flits;
  const std::uint64_t packets0 = run.stats().packets_ejected;
  raise(SIGSTOP);
  while (run.cycle() < kWarmCycles + kWindowCycles) run.step();
  raise(SIGSTOP);
  const std::uint64_t moved[2] = {run.stats().link_flits - flits0,
                                  run.stats().packets_ejected - packets0};
  const bool ok = write(report_fd, moved, sizeof moved) == sizeof moved;
  _exit(ok ? 0 : 3);
}

/// The running executable's path, its mapped address ranges and the bias
/// to subtract before asking addr2line (the load address for a PIE, zero
/// for a fixed-address executable). The forked child shares this layout.
struct ExeMap {
  std::string path;
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> ranges;
  std::uintptr_t bias = 0;

  bool contains(std::uintptr_t a) const {
    for (const auto& [lo, hi] : ranges)
      if (a >= lo && a < hi) return true;
    return false;
  }
};

ExeMap exe_map() {
  ExeMap m;
  char path[4096];
  const ssize_t n = readlink("/proc/self/exe", path, sizeof path - 1);
  if (n <= 0) return m;
  path[n] = '\0';
  m.path = path;
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    if (line.size() < m.path.size() ||
        line.compare(line.size() - m.path.size(), m.path.size(), m.path) != 0)
      continue;
    const std::size_t dash = line.find('-');
    m.ranges.emplace_back(static_cast<std::uintptr_t>(std::stoull(line, nullptr, 16)),
                          static_cast<std::uintptr_t>(
                              std::stoull(line.substr(dash + 1), nullptr, 16)));
  }
  // e_type (offset 16 of the ELF header): 3 = ET_DYN, a position-independent
  // executable whose addresses addr2line reads relative to the load address.
  std::ifstream elf(m.path, std::ios::binary);
  char header[18] = {};
  elf.read(header, sizeof header);
  if (header[16] == 3 && !m.ranges.empty()) m.bias = m.ranges.front().first;
  return m;
}

/// One address's inline chain from addr2line, innermost frame first:
/// function names, and the source line of the innermost frame.
struct Chain {
  std::vector<std::string> frames;
  std::string line;
};

/// Resolves every address of the executable in one addr2line run.
std::unordered_map<std::uintptr_t, Chain> resolve(const std::vector<std::uintptr_t>& addrs,
                                                  std::uintptr_t base,
                                                  const std::string& exe) {
  std::unordered_map<std::uintptr_t, Chain> out;
  char in_path[] = "/tmp/flit_icount_XXXXXX";
  const int fd = mkstemp(in_path);
  if (fd < 0) return out;
  std::string text;
  for (const std::uintptr_t a : addrs) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%" PRIxPTR "\n", a - base);
    text += buf;
  }
  const bool wrote = write(fd, text.data(), text.size()) ==
                     static_cast<ssize_t>(text.size());
  close(fd);
  if (wrote) {
    const std::string cmd = "addr2line -a -f -i -C -e '" + exe + "' < " + in_path;
    if (FILE* p = popen(cmd.c_str(), "r")) {
      char buf[8192];
      Chain* chain = nullptr;
      bool name_line = true;  // frames alternate: function, then file:line
      while (std::fgets(buf, sizeof buf, p) != nullptr) {
        std::string s(buf);
        if (!s.empty() && s.back() == '\n') s.pop_back();
        if (s.rfind("0x", 0) == 0) {
          chain = &out[static_cast<std::uintptr_t>(std::stoull(s, nullptr, 16)) + base];
          name_line = true;
          continue;
        }
        if (chain != nullptr && name_line) chain->frames.push_back(s);
        if (chain != nullptr && !name_line && chain->line.empty()) {
          chain->line = s.substr(s.rfind('/') + 1);  // drop the directory
          if (const std::size_t d = chain->line.find(" (discriminator");
              d != std::string::npos)
            chain->line.resize(d);
        }
        name_line = !name_line;
      }
      pclose(p);
    }
  }
  unlink(in_path);
  return out;
}

/// Router and NI stages, by the function an instruction was inlined into
/// (innermost match wins). Anything else is reported by its symbol.
struct Stage {
  const char* fn;
  const char* label;
};
constexpr Stage kStages[] = {
    {"Router::receive_credits", "receive_credits"},
    {"Router::receive_flits", "receive_flits"},
    {"Router::route_compute", "RC"},
    {"Router::vc_allocate", "VA"},
    {"Router::sa_inputs", "SA stage 1"},
    {"Router::sa_output", "SA stage 2"},
    {"Router::traverse", "switch traversal"},
    {"Router::can_sleep", "can_sleep"},
    {"Router::tick", "Router::tick"},
    {"NetworkInterface::pump_credits", "NI credits"},
    {"NetworkInterface::pump_ejection", "NI ejection"},
    {"NetworkInterface::pump_delivery", "NI delivery"},
    {"NetworkInterface::pump_injection", "NI injection"},
    {"NetworkInterface::inject", "NI inject (queue)"},
    {"NetworkInterface::", "NI other"},
    {"Network::tick", "Network::tick"},
    {"DiscoUnit::", "DISCO unit"},
};

std::string stage_of(const Chain& chain) {
  for (const std::string& frame : chain.frames)
    for (const Stage& s : kStages)
      if (frame.find(s.fn) != std::string::npos) return s.label;
  return chain.frames.empty() ? "?" : "other: " + chain.frames.back();
}

/// Strips a demangled name to "Class::function" for the function table.
std::string short_name(std::string s) {
  if (const std::size_t paren = s.find('('); paren != std::string::npos) s.resize(paren);
  return s;
}

void print_table(const char* title, const std::map<std::string, std::uint64_t>& rows,
                 double flits) {
  std::vector<std::pair<std::string, std::uint64_t>> v(rows.begin(), rows.end());
  std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::printf("\n%-48s %12s %10s\n", title, "instr", "per flit");
  for (std::size_t i = 0; i < v.size() && i < kTopRows; ++i)
    std::printf("%-48.48s %12" PRIu64 " %10.1f\n", v[i].first.c_str(), v[i].second,
                static_cast<double>(v[i].second) / flits);
}

}  // namespace

int main(int argc, char** argv) {
  Scheme scheme = Scheme::Baseline;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--disco") == 0) {
      scheme = Scheme::DISCO;
    } else {
      std::fprintf(stderr, "usage: %s [--disco]\n", argv[0]);
      return std::strcmp(argv[i], "--help") == 0 ? 0 : 2;
    }
  }
  int report[2];
  if (pipe(report) != 0) return 1;
  const pid_t child = fork();
  if (child < 0) return 1;
  if (child == 0) {
    close(report[0]);
    run_child(scheme, report[1]);
  }
  close(report[1]);

  // A failure leaves no stopped child behind.
  auto fail = [child](const char* what) {
    kill(child, SIGKILL);
    waitpid(child, nullptr, 0);
    std::fprintf(stderr, "flit_icount: %s\n", what);
    return 1;
  };

  // First stop: the window starts. Single-step until the second stop.
  int status = 0;
  if (waitpid(child, &status, 0) != child || !WIFSTOPPED(status) ||
      WSTOPSIG(status) != SIGSTOP)
    return fail("the child did not stop for tracing (is ptrace allowed?)");
  std::unordered_map<std::uintptr_t, std::uint64_t> hits;
  std::uint64_t steps = 0;
  for (;;) {
    if (ptrace(PTRACE_SINGLESTEP, child, nullptr, nullptr) != 0 ||
        waitpid(child, &status, 0) != child || !WIFSTOPPED(status))
      return fail("single-stepping failed");
    if (WSTOPSIG(status) == SIGSTOP) break;  // the window's end
    user_regs_struct regs{};
    if (ptrace(PTRACE_GETREGS, child, nullptr, &regs) != 0)
      return fail("reading the child's registers failed");
    ++hits[static_cast<std::uintptr_t>(regs.rip)];
    ++steps;
  }
  ptrace(PTRACE_CONT, child, nullptr, nullptr);
  std::uint64_t moved[2] = {0, 0};
  const bool got = read(report[0], moved, sizeof moved) == sizeof moved;
  waitpid(child, &status, 0);
  if (!got || moved[0] == 0) {
    std::fprintf(stderr, "flit_icount: no flits moved in the window\n");
    return 1;
  }

  const ExeMap exe = exe_map();
  std::vector<std::uintptr_t> addrs;
  std::vector<std::uintptr_t> foreign;
  for (const auto& [a, n] : hits) (exe.contains(a) ? addrs : foreign).push_back(a);
  const auto chains = resolve(addrs, exe.bias, exe.path);
  std::map<std::string, std::uint64_t> by_stage;
  std::map<std::string, std::uint64_t> by_function;
  std::map<std::string, std::uint64_t> by_line;  // innermost source line
  for (const std::uintptr_t a : addrs) {
    const std::uint64_t n = hits.at(a);
    const auto it = chains.find(a);
    const Chain empty;
    const Chain& chain = it == chains.end() ? empty : it->second;
    by_stage[stage_of(chain)] += n;
    by_function[chain.frames.empty() ? "?" : short_name(chain.frames.back())] += n;
    by_line[chain.line.empty() ? "?" : chain.line] += n;
  }
  for (const std::uintptr_t a : foreign) {
    Dl_info info{};
    dladdr(reinterpret_cast<void*>(a), &info);
    std::string lib = info.dli_fname != nullptr ? info.dli_fname : "?";
    lib = lib.substr(lib.rfind('/') + 1);
    const std::string sym = info.dli_sname != nullptr ? info.dli_sname : "";
    by_stage["other: " + lib] += hits.at(a);
    by_function[lib + (sym.empty() ? "" : " " + sym)] += hits.at(a);
  }

  const double flits = static_cast<double>(moved[0]);
  std::printf("noc-8x8 %s mesh, seed %" PRIu64 ", cycles %" PRIu64 "..%" PRIu64 "\n",
              scheme == Scheme::DISCO ? "DISCO" : "plain", kSeed, static_cast<std::uint64_t>(kWarmCycles),
              static_cast<std::uint64_t>(kWarmCycles + kWindowCycles));
  std::printf("instructions %" PRIu64 ", flits moved %" PRIu64 ", packets ejected %" PRIu64
              "\n",
              steps, moved[0], moved[1]);
  std::printf("instructions per flit: %.1f\n", static_cast<double>(steps) / flits);
  print_table("per stage", by_stage, flits);
  print_table("per function", by_function, flits);
  print_table("per source line", by_line, flits);
  return 0;
}
