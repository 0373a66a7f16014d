// NoC traffic explorer: drives the standalone network (no caches) with
// synthetic patterns — uniform random, transpose, hotspot — and sweeps the
// injection rate, comparing a plain mesh against one with DISCO routers.
// Shows the latency-vs-load curve and where in-network compression starts
// to pay.
//
// Run: ./build/examples/noc_traffic_explorer [pattern]   (uniform|transpose|hotspot)
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>

#include "cmp/scheme.h"
#include "common/rng.h"
#include "common/table.h"
#include "compress/registry.h"
#include "disco/unit.h"
#include "noc/network.h"
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

struct Result {
  double avg_latency;
  std::uint64_t flits;
  std::uint64_t compressions;
};

Result run(const std::string& pattern, double rate, bool with_disco) {
  NocConfig cfg;
  noc::NocStats stats;
  auto algo = compress::make_algorithm("delta");
  DiscoConfig dcfg;  // default thresholds

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
  for (NodeId node = 0; node < cfg.num_nodes(); ++node)
    net.register_sink(node, UnitKind::Core, &sinks[node]);

  Rng rng(1234);
  workload::TrafficChooser chooser(workload::traffic_pattern_from_name(pattern),
                                   4, 99);
  std::uint64_t id = 1;
  Cycle clock = 0;
  const Cycle horizon = 30000;
  for (; clock < horizon; ++clock) {
    for (NodeId src = 0; src < cfg.num_nodes(); ++src) {
      if (!rng.chance(rate)) continue;
      const NodeId dst = chooser.pick(src);
      net.inject(src,
                 workload::make_synthetic_packet(src, dst, id++, clock,
                                                 /*compressible=*/0.85, rng),
                 clock);
    }
    net.tick(clock);
  }
  // Drain.
  for (Cycle i = 0; i < 50000 && !net.quiescent(); ++i) net.tick(++clock);

  double total = 0;
  std::uint64_t delivered = 0;
  for (const auto& s : sinks) {
    total += s.total_latency;
    delivered += s.delivered;
  }
  return {delivered ? total / static_cast<double>(delivered) : 0,
          stats.link_flits, stats.inflight_compressions};
}

}  // namespace

int main(int argc, char** argv) {
  const std::string pattern = argc > 1 ? argv[1] : "uniform";
  std::printf("NoC traffic explorer: 4x4 mesh, pattern = %s\n", pattern.c_str());
  std::printf("(data packets, delta-compressible payloads; rate = packets per"
              " node per cycle)\n\n");

  TablePrinter t({"inject rate", "plain: avg lat", "DISCO: avg lat",
                  "plain flits", "DISCO flits", "in-net compressions"});
  for (const double rate : {0.005, 0.01, 0.02, 0.03, 0.05}) {
    const Result plain = run(pattern, rate, false);
    const Result dsc = run(pattern, rate, true);
    t.add_row({TablePrinter::fmt(rate, 3), TablePrinter::fmt(plain.avg_latency, 1),
               TablePrinter::fmt(dsc.avg_latency, 1),
               std::to_string(plain.flits), std::to_string(dsc.flits),
               std::to_string(dsc.compressions)});
    std::printf("  rate %.3f done\n", rate);
  }
  std::printf("\n");
  t.print(std::cout);
  std::printf("\nAt low load packets rarely idle, so DISCO compresses little;"
              " as contention rises, idle time funds compression and the "
              "flit count (and queueing) drops.\n");
  return 0;
}
