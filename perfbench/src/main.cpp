// perfbench: the repository's benchmark. Runs one named workload on one
// thread, repeating its cells in rounds for --seconds, checks every cell's
// correctness, and prints every metric by name with its unit. The last
// line of stdout is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones (tracing off); with
// --trace 1 they are the per-layer ones, from rounds that alternate
// untraced and traced so the tracing overhead is measured too. See
// perfbench/README.md for every workload and metric.
#include <cpuid.h>
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "cells.h"
#include "ledger.h"
#include "micro.h"
#include "sim/experiment.h"
#include "summary.h"

namespace perfbench {
namespace {

using disco::Scheme;

/// Rounds every run makes before it may stop, whatever --seconds says: the
/// warm-up round plus at least three timed repetitions of each cell, or two
/// of each kind (untraced, traced) in a traced run.
constexpr int kMinRounds = 4;
constexpr int kMinTracedRounds = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload {fig5-delta|fig6-fpc-sc2|noc-8x8} "
               "--seed N --seconds S --trace {0|1} [--commit SHA] "
               "[--out-dir DIR]\n",
               msg.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty()) usage("bad --seed " + v);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) usage("bad --seconds " + v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace " + v);
      a.trace = v == "1";
    } else if (flag == "--commit") {
      a.commit = v;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

/// Full-CMP cells are reduced Table-2 cells (the figure benches run 24000
/// warmup ops, 15000 warmup and 80000 measured cycles) so that a run repeats
/// every cell at least kMinRounds times. A Fig. 6 round has twice the cells
/// and slower kernels, so its cells are shorter still.
Workload make_workload(const Args& a) {
  if (a.workload == "fig5-delta")
    return make_cmp_workload(a.workload, {"delta"}, {6000, 3000, 12000}, a.seed);
  if (a.workload == "fig6-fpc-sc2")
    return make_cmp_workload(a.workload, {"fpc", "sc2"}, {3000, 1500, 6000}, a.seed);
  if (a.workload == "noc-8x8") return make_noc_workload(a.workload, a.seed);
  usage("unknown workload " + a.workload);
}

std::string cpu_model() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (!__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3]))
      return "unknown";
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// All rounds of one run: runs[round][cell]. A cell's host time is the
/// minimum over its repetitions. Noise on a shared host is one-sided (other
/// tenants only ever slow a repetition down) and comes in states lasting
/// seconds, so a median over rounds follows how much of the run fell in a
/// slow state, while the minimum tracks the code's own cost.
struct Rounds {
  /// Round 1 warms the process (allocator, page tables, host caches) and
  /// gives the fingerprints every later round must repeat; host metrics come
  /// from the later rounds only.
  enum class Kind { Warmup, Untraced, Traced };

  std::vector<std::vector<CellRun>> runs;
  std::vector<Kind> kind;

  const std::vector<CellRun>& first() const { return runs.front(); }

  /// Sum over cells of the minimum over the rounds of kind `k` of `field`.
  double sum_cell_min(Kind k, auto field) const {
    double total = 0;
    for (std::size_t c = 0; c < first().size(); ++c) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t r = 0; r < runs.size(); ++r)
        if (kind[r] == k) best = std::min(best, field(runs[r][c]));
      total += best;
    }
    return total;
  }

  /// Per chunk position (cell, chunk), the minimum over untraced rounds.
  std::vector<double> chunk_min_s() const {
    std::vector<double> out;
    for (std::size_t c = 0; c < first().size(); ++c)
      for (std::size_t k = 0; k < first()[c].chunk_s.size(); ++k) {
        double best = std::numeric_limits<double>::infinity();
        for (std::size_t r = 0; r < runs.size(); ++r)
          if (kind[r] == Kind::Untraced) best = std::min(best, runs[r][c].chunk_s[k]);
        out.push_back(best);
      }
    return out;
  }

  /// Median over untraced rounds of the per-cell mean of `field`.
  double median_round_mean(auto field) const {
    std::vector<double> per_round;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (kind[r] != Kind::Untraced) continue;
      double sum = 0;
      for (const CellRun& c : runs[r]) sum += field(c);
      per_round.push_back(sum / static_cast<double>(runs[r].size()));
    }
    return median(per_round);
  }

  double sum_first(auto field) const {
    double s = 0;
    for (const CellRun& c : first()) s += static_cast<double>(field(c));
    return s;
  }
};

using Kind = Rounds::Kind;

double kcycles_per_s(const Rounds& r, Kind k) {
  return r.sum_first([](const CellRun& c) { return c.timed_cycles; }) / 1e3 /
         r.sum_cell_min(k, [](const CellRun& c) { return c.timed_s(); });
}

std::vector<Metric> end_to_end(const Workload& w, const Rounds& r) {
  const double cells = static_cast<double>(r.first().size());
  const double timed_s =
      r.sum_cell_min(Kind::Untraced, [](const CellRun& c) { return c.timed_s(); });
  std::vector<double> chunks_ms = r.chunk_min_s();
  for (double& s : chunks_ms) s *= 1e3 * (1000.0 / static_cast<double>(kChunkCycles));

  // Modelled metrics, from the first round (every round is identical).
  std::map<std::string, double> latency_of;  // "<row>|<scheme>" -> latency
  double pkt_sum = 0, pkts = 0;
  std::vector<double> energy_per_op;
  for (const CellRun& c : r.first()) {
    latency_of[c.row + "|" + to_string(c.scheme)] = c.latency;
    if (c.scheme != Scheme::DISCO) continue;
    pkt_sum += c.packet_latency_sum;
    pkts += c.packets;
    energy_per_op.push_back(c.energy_nj / c.energy_ops);
  }
  std::vector<double> norm;
  for (const CellRun& c : r.first())
    if (c.scheme == Scheme::DISCO)
      norm.push_back(c.latency / latency_of[c.row + "|" + to_string(w.reference)]);

  return {
      {"cells_per_s", "cells/s",
       cells / r.sum_cell_min(Kind::Untraced, [](const CellRun& c) { return c.cell_s(); })},
      {"sim_kcycles_per_s", "kcycles/s", kcycles_per_s(r, Kind::Untraced)},
      {"chunk_ms_p50", "ms", quantile(chunks_ms, 0.50)},
      {"chunk_ms_p99", "ms", quantile(chunks_ms, 0.99)},
      {"host_ns_per_flit", "ns",
       timed_s * 1e9 / r.sum_first([](const CellRun& c) { return c.timed_link_flits; })},
      {"setup_s", "s", r.median_round_mean([](const CellRun& c) { return c.construct_s; })},
      {"peak_rss_mb", "MiB", peak_rss_mib()},
      {"sim_nuca_latency_norm", "ratio", disco::sim::geomean(norm)},
      {"sim_packet_latency_cycles", "cycles", pkt_sum / pkts},
      {"sim_energy_nj_per_op", "nJ/op", disco::sim::geomean(energy_per_op)},
  };
}

/// Mean over the first round's cells that report `key`.
double sim_mean(const Rounds& r, const std::string& key) {
  double sum = 0, n = 0;
  for (const CellRun& c : r.first()) {
    const auto it = c.sim.find(key);
    if (it == c.sim.end()) continue;
    sum += it->second;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

/// Simulated per-layer counts: printed by every run, reported by traced ones.
std::vector<Metric> layer_counts(const Rounds& r) {
  std::vector<Metric> out;
  auto count = [&](const std::string& name, const char* unit = "count") {
    out.push_back({name, unit, sim_mean(r, name)});
  };
  for (const char* k : {"cmp.core_ops", "cmp.window_stall_cycles",
                        "cmp.blocked_stall_cycles", "compress.calls"})
    count(k);
  count("compress.stored_ratio", "ratio");
  for (const char* k : {"noc.link_flits", "noc.packets_ejected", "noc.alloc_ops",
                        "noc.sa_idle_losses"})
    count(k);
  count("noc.router_elided_ratio", "ratio");
  count("noc.ni_elided_ratio", "ratio");
  count("noc.queueing_cycles_p50", "cycles");
  count("noc.queueing_cycles_p99", "cycles");
  for (const char* k : {"disco.engine_starts", "disco.completed", "disco.aborts"})
    count(k);
  const double starts = sim_mean(r, "disco.engine_starts");
  out.push_back({"disco.useful_ratio", "ratio",
                 starts > 0 ? sim_mean(r, "disco.completed") / starts : 0.0});
  count("disco.hidden_decomp_ops");
  count("disco.exposed_decomp_cycles", "cycles");
  for (const char* k : {"cache.l1_misses", "cache.l2_hits", "cache.l2_misses",
                        "cache.bank_compressions", "cache.bank_decompressions",
                        "cache.dram_reads"})
    count(k);
  count("cache.nuca_latency_cycles", "cycles");
  count("cache.stuck_transactions");
  return out;
}

/// Host per-layer metrics of a traced run.
std::vector<Metric> layer_host(const Workload& w, const Rounds& r,
                               const std::vector<CodecTiming>& codecs,
                               std::uint64_t seed) {
  const double cells = static_cast<double>(r.first().size());
  const bool cmp = !w.profiles.empty();
  auto per_cell = [&](auto field) { return r.sum_cell_min(Kind::Traced, field) / cells; };
  auto ns_to_s = [](std::int64_t ns) { return static_cast<double>(ns) * 1e-9; };

  std::vector<Metric> out;
  out.push_back({"cmp.construct_s", "s",
                 cmp ? per_cell([](const CellRun& c) { return c.construct_s; }) : 0.0});
  out.push_back({"cmp.functional_warmup_s", "s",
                 cmp ? per_cell([](const CellRun& c) { return c.functional_warmup_s; })
                     : 0.0});
  out.push_back({"cmp.timed_s", "s",
                 cmp ? per_cell([](const CellRun& c) { return c.timed_s(); }) : 0.0});
  out.push_back({"workload.trace_op_ns", "ns", cmp ? trace_op_ns(w.profiles, seed) : 0.0});
  out.push_back({"workload.block_for_ns", "ns", cmp ? block_for_ns(w.profiles, seed) : 0.0});

  std::map<std::string, CodecTiming> by_name;
  for (const CodecTiming& t : codecs) {
    by_name[t.algorithm] = t;
    out.push_back({"compress." + t.algorithm + ".compress_ns", "ns", t.compress_ns});
    out.push_back({"compress." + t.algorithm + ".decompress_ns", "ns", t.decompress_ns});
  }
  // Estimated share of timed host time spent in the codec kernels: the
  // counters' call counts times the corpus ns per call, over untraced time.
  double codec_s = 0;
  for (const CellRun& c : r.first()) {
    const CodecTiming& t = by_name[c.algorithm];
    codec_s += (static_cast<double>(c.comp_calls) * t.compress_ns +
                static_cast<double>(c.decomp_calls) * t.decompress_ns) * 1e-9;
  }
  out.push_back({"compress.est_share", "ratio",
                 codec_s / r.sum_cell_min(Kind::Untraced, [](const CellRun& c) {
                   return c.timed_s();
                 })});
  out.push_back({"compress.self_s", "s", per_cell([&](const CellRun& c) {
                   return ns_to_s(c.layers.compress.self_ns);
                 })});
  out.push_back({"noc.tick_self_s", "s", per_cell([&](const CellRun& c) {
                   return ns_to_s(c.layers.noc_tick.self_ns);
                 })});
  out.push_back({"noc.inject_s", "s", per_cell([&](const CellRun& c) {
                   return ns_to_s(c.layers.noc_inject.total_ns);
                 })});
  out.push_back({"disco.self_s", "s", per_cell([&](const CellRun& c) {
                   return ns_to_s(c.layers.disco.self_ns);
                 })});
  out.push_back({"bench.trace_overhead", "ratio",
                 kcycles_per_s(r, Kind::Untraced) / kcycles_per_s(r, Kind::Traced)});
  return out;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%08llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
  }
  return out;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + fmt(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("\n%s\n", title);
  for (const Metric& m : ms)
    std::printf("  %-30s %16s %s\n", m.name.c_str(), fmt(m.value).c_str(),
                m.unit.c_str());
}

int run(const Args& args) {
  const Workload w = make_workload(args);
  const unsigned cores = nproc();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host: threads=1 nproc=%u cpu=\"%s\" compiler=\"%s\" flags=\"%s\" "
              "commit=%s\n",
              cores, cpu_model().c_str(), PERFBENCH_COMPILER, PERFBENCH_FLAGS,
              args.commit.c_str());

  std::uint64_t attempted = 0, failed = 0;
  auto check = [&](const char* what, const std::string& error) {
    ++attempted;
    if (error.empty()) {
      std::printf("check %-10s ok\n", what);
    } else {
      ++failed;
      std::printf("check %-10s FAILED: %s\n", what, error.c_str());
    }
  };
  if (w.self_test) check("self-test", w.self_test());
  check("roundtrip", check_roundtrip(w.corpus));
  std::vector<CodecTiming> codecs;
  if (args.trace) codecs = time_codecs(w.corpus);

  // Rounds: every cell once per round until the next round would overrun
  // --seconds. After the warm-up round, traced runs alternate traced and
  // untraced rounds.
  Ledger ledger;
  Rounds rounds;
  std::uint32_t ordinal = 0;
  const std::int64_t start = now_ns();
  const std::int64_t start_cpu = cpu_now_ns();
  for (int round = 0;; ++round) {
    const Kind kind = round == 0                     ? Kind::Warmup
                      : args.trace && round % 2 == 1 ? Kind::Traced
                                                     : Kind::Untraced;
    const bool traced = kind == Kind::Traced;
    std::vector<CellRun> runs;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const Trace tr{&ledger, ordinal++};
      CellRun c = w.cells[i](traced ? &tr : nullptr);
      if (c.ok && round > 0 && c.fingerprint != rounds.first()[i].fingerprint) {
        c.ok = false;
        c.error = "fingerprint differs from round 1";
      }
      ++attempted;
      if (!c.ok) {
        ++failed;
        std::printf("cell %s round %d FAILED: %s\n", c.label.c_str(), round + 1,
                    c.error.c_str());
      }
      runs.push_back(std::move(c));
    }
    double round_s = 0;
    for (const CellRun& c : runs) round_s += c.cell_s();
    std::printf("round %d%s: %.4f s in cells\n", round + 1,
                kind == Kind::Warmup ? " (warm-up)"
                : traced                     ? " (traced)"
                                             : "",
                round_s);
    rounds.runs.push_back(std::move(runs));
    rounds.kind.push_back(kind);
    const double elapsed = seconds_between(start, now_ns());
    const int done = round + 1;
    const int min_rounds = args.trace ? kMinTracedRounds : kMinRounds;
    if (done >= min_rounds && elapsed * (done + 1) / done > args.seconds) break;
  }
  const double measured_s = seconds_between(start, now_ns());
  const double measured_cpu_s = seconds_between(start_cpu, cpu_now_ns());

  std::printf("\n%-34s %-11s %12s %12s %10s\n", "cell (round 1)", "fingerprint",
              "latency", "cell_s", "ok");
  for (const CellRun& c : rounds.first()) {
    std::printf("%-34s %-11s %12.4f %12.4f %10s\n", c.label.c_str(),
                hex(c.fingerprint).c_str(), c.latency, c.cell_s(),
                c.ok ? "ok" : "FAILED");
    const auto stuck = c.sim.find("cache.stuck_transactions");
    if (stuck != c.sim.end() && stuck->second > 0)
      std::printf("  warning: %g coherence transactions never retired; drain() "
                  "did not reach quiescence\n",
                  stuck->second);
  }
  std::size_t chunks = 0;
  for (const CellRun& c : rounds.first()) chunks += c.chunk_s.size();
  std::printf("\n%zu rounds x %zu cells in %.2f s wall, %.2f s thread CPU (the "
              "gap is time the host took away); chunk_ms_* over %zu chunk "
              "positions of %llu cycles, each the minimum over its untraced "
              "repetitions\n",
              rounds.runs.size(), w.cells.size(), measured_s, measured_cpu_s, chunks,
              static_cast<unsigned long long>(kChunkCycles));

  const std::vector<Metric> e2e = end_to_end(w, rounds);
  const std::vector<Metric> counts = layer_counts(rounds);
  print_metrics("end-to-end (untraced rounds):", e2e);
  std::printf("  %-30s %16s ratio\n", "failed_ratio",
              fmt(static_cast<double>(failed) / static_cast<double>(attempted)).c_str());
  print_metrics("per-layer simulated counts (per cell, round 1):", counts);

  std::vector<Metric> layers;
  if (args.trace) {
    layers = layer_host(w, rounds, codecs, args.seed);
    print_metrics("per-layer host time (traced rounds, per cell):", layers);
    layers.insert(layers.end(), counts.begin(), counts.end());
    if (w.profiles.empty()) {
      // The network-only split must account for the whole traced tick time.
      double tick = 0, parts = 0;
      for (std::size_t i = 0; i < rounds.runs.size(); ++i)
        if (rounds.kind[i] == Kind::Traced)
          for (const CellRun& c : rounds.runs[i]) {
            tick += static_cast<double>(c.layers.noc_tick.total_ns);
            parts += static_cast<double>(c.layers.noc_tick.self_ns +
                                         c.layers.disco.self_ns +
                                         c.layers.compress.self_ns);
          }
      std::printf("  Network::tick total %.6f s = noc self + disco self + "
                  "compress self %.6f s\n",
                  tick * 1e-9, parts * 1e-9);
    }
  }

  bool finite = true;
  for (const Metric& m : e2e) finite = finite && std::isfinite(m.value);
  for (const Metric& m : layers) finite = finite && std::isfinite(m.value);
  if (!finite) {
    std::printf("a metric is not finite\n");
    ++failed;
  }

  const std::vector<Metric>& reported = args.trace ? layers : e2e;
  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + w.name + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0");
    std::ofstream report(stem + ".report.json");
    report << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
           << ", \"threads\": 1, \"nproc\": " << cores << ", \"cpu\": \""
           << json_escape(cpu_model()) << "\", \"compiler\": \""
           << json_escape(PERFBENCH_COMPILER) << "\", \"flags\": \"" << PERFBENCH_FLAGS
           << "\", \"commit\": \"" << json_escape(args.commit)
           << "\", \"rounds\": " << rounds.runs.size()
           << ", \"end_to_end\": " << metrics_json(e2e)
           << ", \"per_layer\": " << metrics_json(args.trace ? layers : counts)
           << ", \"fingerprints\": {";
    for (std::size_t i = 0; i < rounds.first().size(); ++i)
      report << (i ? ", " : "") << "\"" << rounds.first()[i].label << "\": \""
             << hex(rounds.first()[i].fingerprint) << "\"";
    report << "}}\n";
    if (args.trace) {
      std::ofstream spans(stem + ".spans.json");
      ledger.write_chrome_json(spans);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json(reported).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
