// Booksim-style network-only load-latency curves (the paper used Booksim
// for cycle-accurate NoC modeling): synthetic uniform-random data traffic
// swept over injection rates, for wormhole vs virtual cut-through and with
// vs without DISCO routers. Shows the saturation point and where the
// in-network compressor buys headroom.
#include <cstdio>
#include <iostream>
#include <memory>

#include "bench_util.h"
#include "cmp/scheme.h"
#include "compress/registry.h"
#include "disco/unit.h"
#include "noc/network.h"
#include "trace/invariants.h"
#include "trace/trace.h"
#include "workload/synthetic.h"

using namespace disco;

namespace {

class CountingSink final : public noc::PacketSink {
 public:
  void deliver(noc::PacketPtr pkt, Cycle now) override {
    ++delivered;
    total_latency += static_cast<double>(now - pkt->injected);
  }
  std::uint64_t delivered = 0;
  double total_latency = 0;
};

double run_point(FlowControl fc, bool with_disco, double rate,
                 const TraceConfig& tc, trace::InvariantSummary* inv_out) {
  NocConfig cfg;
  cfg.flow_control = fc;
  noc::NocStats stats;
  auto algo = compress::make_algorithm("delta");
  DiscoConfig dcfg;

  const cmp::SchemeSetup setup = cmp::make_scheme_setup(
      with_disco ? Scheme::DISCO : Scheme::Baseline, *algo);
  noc::Network::ExtensionFactory factory;
  if (setup.use_disco_units) {
    factory = [&](noc::Router& r) {
      return std::make_unique<core::DiscoUnit>(r, dcfg, *algo, algo->latency(),
                                               stats);
    };
  }
  noc::Network net(cfg, setup.ni, stats, factory);
  std::vector<CountingSink> sinks(cfg.num_nodes());
  for (NodeId n = 0; n < cfg.num_nodes(); ++n)
    net.register_sink(n, UnitKind::Core, &sinks[n]);

  // Network-only runs bypass CmpSystem, so the trace layer is wired here.
  std::unique_ptr<trace::Tracer> tracer;
  std::unique_ptr<trace::InvariantChecker> checker;
  if (tc.active()) {
    tracer = std::make_unique<trace::Tracer>(tc);
    if (tc.check_invariants) {
      checker = std::make_unique<trace::InvariantChecker>(
          noc::invariant_params(cfg, dcfg));
      tracer->set_checker(checker.get());
    }
    net.set_tracer(tracer.get());
  }

  Rng rng(77);
  workload::TrafficChooser chooser(workload::TrafficPattern::UniformRandom, 4, 3);
  std::uint64_t id = 1;
  Cycle clock = 0;
  for (; clock < 20000; ++clock) {
    for (NodeId src = 0; src < cfg.num_nodes(); ++src) {
      if (!rng.chance(rate)) continue;
      net.inject(src,
                 workload::make_synthetic_packet(src, chooser.pick(src), id++,
                                                 clock, 0.8, rng),
                 clock);
    }
    net.tick(clock);
    if (checker) checker->end_of_cycle(clock, net.inflight_flits());
  }
  for (Cycle i = 0; i < 100000 && !net.quiescent(); ++i) {
    net.tick(++clock);
    if (checker) checker->end_of_cycle(clock, net.inflight_flits());
  }
  if (checker && inv_out != nullptr) *inv_out = checker->summary();

  double total = 0;
  std::uint64_t n = 0;
  for (const auto& s : sinks) {
    total += s.total_latency;
    n += s.delivered;
  }
  return n ? total / static_cast<double>(n) : -1.0;
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
