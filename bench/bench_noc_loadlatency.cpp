// Booksim-style network-only load-latency curves (the paper used Booksim
// for cycle-accurate NoC modeling): synthetic uniform-random data traffic
// swept over injection rates, for wormhole vs virtual cut-through and with
// vs without DISCO routers. Shows the saturation point and where the
// in-network compressor buys headroom.
#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "sim/noc_run.h"

using namespace disco;

namespace {

/// Mean packet latency of one curve point; `inv_out` gets its checker's
/// verdict.
double run_point(FlowControl fc, bool with_disco, double rate,
                 const TraceConfig& tc, trace::InvariantSummary* inv_out) {
  NocConfig cfg;
  cfg.flow_control = fc;
  sim::NocRun run(cfg, with_disco ? Scheme::DISCO : Scheme::Baseline, tc,
                  {.rate = rate, .compressible = 0.8, .inject_seed = 77,
                   .dest_seed = 3});
  while (run.cycle() < 20000) run.step();
  run.drain(100000);
  *inv_out = run.invariants();
  return run.stats().avg_packet_latency();
}

}  // namespace

int main(int argc, char** argv) {
  const auto sweep_opt = bench::sweep_options(argc, argv, "noc_loadlatency");
  SystemConfig cfg;
  bench::print_banner("NoC load-latency curves (network-only, uniform random)",
                      cfg);

  // Every (rate x variant) point is an independent network simulation; run
  // the whole grid on the pool via the generic parallel map.
  const std::vector<double> rates = {0.005, 0.01, 0.02, 0.04, 0.06, 0.08};
  struct Variant {
    FlowControl fc;
    bool disco;
  };
  const std::vector<Variant> variants = {
      {FlowControl::Wormhole, false},
      {FlowControl::Wormhole, true},
      {FlowControl::VirtualCutThrough, false},
      {FlowControl::VirtualCutThrough, true},
  };
  std::vector<double> lat(rates.size() * variants.size(), -1.0);
  std::vector<trace::InvariantSummary> inv(lat.size());
  sim::run_indexed(
      lat.size(),
      [&](std::size_t i) {
        const Variant& v = variants[i % variants.size()];
        lat[i] = run_point(v.fc, v.disco, rates[i / variants.size()],
                           sweep_opt.trace, &inv[i]);
      },
      sweep_opt);

  TablePrinter t({"inject rate", "wormhole", "wormhole+DISCO", "VCT",
                  "VCT+DISCO"});
  for (std::size_t r = 0; r < rates.size(); ++r) {
    const double* row = &lat[r * variants.size()];
    t.add_row({TablePrinter::fmt(rates[r], 3), TablePrinter::fmt(row[0], 1),
               TablePrinter::fmt(row[1], 1), TablePrinter::fmt(row[2], 1),
               TablePrinter::fmt(row[3], 1)});
  }
  t.print(std::cout);
  std::printf("\nreading: DISCO's compression postpones saturation (its curve "
              "bends later); VCT trades a slightly earlier knee for whole-"
              "packet residency at every hop.\n");
  if (sweep_opt.trace.check_invariants) {
    std::uint64_t events = 0, violations = 0;
    std::string first;
    for (const auto& s : inv) {
      events += s.events_checked;
      violations += s.violations;
      if (!s.clean() && first.empty()) first = s.first_violation;
    }
    std::printf("invariants: %zu points checked, %llu events, %llu "
                "violations\n",
                inv.size(), static_cast<unsigned long long>(events),
                static_cast<unsigned long long>(violations));
    if (!first.empty())
      std::printf("invariants: first violation: %s\n", first.c_str());
    if (violations > 0) return 1;
  }
  return bench::exit_code_indexed();
}
