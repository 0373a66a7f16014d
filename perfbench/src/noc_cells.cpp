// Network-only cells: an 8x8 wormhole mesh fed uniform-random synthetic
// packets at a fixed moderate rate, then drained. The benchmark builds the
// noc::Network itself, so a traced cell can wrap the DISCO units and the
// compressor in timing decorators and split host time between the noc,
// disco and compress layers.
#include <exception>
#include <memory>
#include <optional>

#include "cells.h"
#include "cmp/scheme.h"
#include "common/rng.h"
#include "compress/registry.h"
#include "disco/unit.h"
#include "energy/energy_model.h"
#include "noc/network.h"
#include "workload/synthetic.h"

namespace perfbench {
namespace {

using namespace disco;

constexpr std::uint32_t kSide = 8;
constexpr double kInjectionRate = 0.03;  ///< packets per node per cycle
constexpr double kCompressible = 0.8;    ///< share of compressible payloads
constexpr Cycle kWarmupCycles = 1000;
/// 500 chunks per cell: a round has the 1000 chunk positions a p99 needs.
constexpr Cycle kMeasureCycles = 500 * kChunkCycles;
constexpr Cycle kDrainCycles = 100000;
constexpr std::size_t kCorpusBlocks = 1024;
const char* const kAlgorithm = "delta";

class CountingSink final : public noc::PacketSink {
 public:
  void deliver(noc::PacketPtr, Cycle) override { ++delivered; }
  std::uint64_t delivered = 0;
};

/// Times every de/compression as a nested ledger scope.
class TimedAlgorithm final : public compress::Algorithm {
 public:
  TimedAlgorithm(const compress::Algorithm& inner, Ledger& ledger, Accum& acc)
      : inner_(inner), ledger_(ledger), acc_(acc) {}

  std::string_view name() const override { return inner_.name(); }
  compress::LatencyModel latency() const override { return inner_.latency(); }
  double hardware_overhead() const override { return inner_.hardware_overhead(); }
  compress::Encoded compress(const BlockBytes& block) const override {
    Scoped s(&ledger_, acc_);
    return inner_.compress(block);
  }
  BlockBytes decompress(std::span<const std::uint8_t> enc) const override {
    Scoped s(&ledger_, acc_);
    return inner_.decompress(enc);
  }

 private:
  const compress::Algorithm& inner_;
  Ledger& ledger_;
  Accum& acc_;
};

/// Times every call into the real DiscoUnit as a nested ledger scope (the
/// calls of a fault-free run; snapshots and hard faults are not used here).
class TimedExtension final : public noc::RouterExtension {
 public:
  TimedExtension(std::unique_ptr<noc::RouterExtension> inner, Ledger& ledger,
                 Accum& acc)
      : inner_(std::move(inner)), ledger_(ledger), acc_(acc) {}

  void after_allocation(Cycle now, const std::vector<noc::VcId>& losers) override {
    Scoped s(&ledger_, acc_);
    inner_->after_allocation(now, losers);
  }
  void on_shadow_departed(Cycle now, const noc::VcId& vc) override {
    Scoped s(&ledger_, acc_);
    inner_->on_shadow_departed(now, vc);
  }
  void tick(Cycle now) override {
    Scoped s(&ledger_, acc_);
    inner_->tick(now);
  }
  bool idle() const override { return inner_->idle(); }

 private:
  std::unique_ptr<noc::RouterExtension> inner_;
  Ledger& ledger_;
  Accum& acc_;
};

std::uint64_t fingerprint_of(const noc::NocStats& s, std::uint64_t delivered) {
  Fingerprint f;
  f.add(delivered)
      .add(s.packets_injected)
      .add(s.packets_ejected)
      .add(s.flits_injected)
      .add(s.link_flits)
      .add(s.buffer_writes)
      .add(s.crossbar_traversals)
      .add(s.alloc_ops)
      .add(s.sa_idle_losses)
      .add(s.engine_starts)
      .add(s.inflight_compressions)
      .add(s.inflight_decompressions)
      .add(s.source_compressions)
      .add(s.compression_aborts)
      .add(s.decompression_aborts)
      .add(s.ni_decompressions)
      .add(s.hidden_decomp_ops)
      .add(s.exposed_decomp_cycles)
      .add(s.avg_packet_latency());
  return f.value();
}

CellRun run_noc_cell(Scheme scheme, std::uint64_t seed, const Trace* tr) {
  CellRun run;
  run.row = std::string("uniform/") + kAlgorithm;
  run.scheme = scheme;
  run.algorithm = kAlgorithm;
  run.label = run.row + "/" + to_string(scheme);
  Ledger* ledger = tr != nullptr ? tr->ledger : nullptr;
  const std::uint32_t cell = tr != nullptr ? tr->cell : 0;
  auto span = [&](const char* name, std::int64_t t0, std::int64_t t1) {
    if (ledger != nullptr) ledger->record(name, cell, t0, t1);
  };

  try {
    const std::int64_t t0 = cpu_now_ns();
    NocConfig cfg;
    cfg.mesh_cols = kSide;
    cfg.mesh_rows = kSide;
    const std::uint32_t nodes = cfg.num_nodes();
    noc::NocStats stats;
    const std::unique_ptr<compress::Algorithm> real =
        compress::make_algorithm(kAlgorithm);
    std::optional<TimedAlgorithm> timed;
    if (ledger != nullptr) timed.emplace(*real, *ledger, run.layers.compress);
    const compress::Algorithm& algo = timed ? *timed : *real;
    const cmp::SchemeSetup setup = cmp::make_scheme_setup(scheme, algo);
    const DiscoConfig dcfg;
    noc::Network::ExtensionFactory factory;
    if (setup.use_disco_units) {
      factory = [&](noc::Router& r) -> std::unique_ptr<noc::RouterExtension> {
        auto unit = std::make_unique<core::DiscoUnit>(r, dcfg, algo,
                                                      algo.latency(), stats);
        if (ledger == nullptr) return unit;
        return std::make_unique<TimedExtension>(std::move(unit), *ledger,
                                                run.layers.disco);
      };
    }
    noc::Network net(cfg, setup.ni, stats, factory);
    std::vector<CountingSink> sinks(nodes);
    for (NodeId n = 0; n < nodes; ++n)
      net.register_sink(n, UnitKind::Core, &sinks[n]);
    const std::int64_t t1 = cpu_now_ns();
    span("construct", t0, t1);
    run.construct_s = seconds_between(t0, t1);

    Rng rng(splitmix64(seed, 1));
    workload::TrafficChooser chooser(workload::TrafficPattern::UniformRandom,
                                     kSide, splitmix64(seed, 2));
    std::uint64_t injected = 0;
    Cycle clock = 0;
    auto step = [&] {
      for (NodeId src = 0; src < nodes; ++src) {
        if (!rng.chance(kInjectionRate)) continue;
        ++injected;
        noc::PacketPtr pkt = workload::make_synthetic_packet(
            src, chooser.pick(src), injected, clock, kCompressible, rng);
        Scoped s(ledger, run.layers.noc_inject);
        net.inject(src, std::move(pkt), clock);
      }
      Scoped s(ledger, run.layers.noc_tick);
      net.tick(clock++);
    };

    const std::int64_t t2 = cpu_now_ns();
    while (clock < kWarmupCycles) step();
    const std::int64_t t3 = cpu_now_ns();
    span("timed_warmup", t2, t3);
    run.timed_warmup_s = seconds_between(t2, t3);

    run.chunk_s.reserve(kMeasureCycles / kChunkCycles + 1);
    while (clock < kWarmupCycles + kMeasureCycles) {
      const std::int64_t c0 = cpu_now_ns();
      const Cycle end = std::min(clock + kChunkCycles, kWarmupCycles + kMeasureCycles);
      while (clock < end) step();
      const std::int64_t c1 = cpu_now_ns();
      span("chunk", c0, c1);
      run.chunk_s.push_back(seconds_between(c0, c1));
      run.measure_s += seconds_between(c0, c1);
    }
    run.timed_cycles = clock;
    run.timed_link_flits = stats.link_flits;
    const std::uint64_t engine_decomp =
        stats.inflight_decompressions + stats.decompression_aborts;
    run.comp_calls = stats.ni_compressions + stats.source_compressions +
                     stats.engine_starts - engine_decomp;
    run.decomp_calls = stats.ni_decompressions + engine_decomp;
    const double component_cycles =
        static_cast<double>(nodes) * static_cast<double>(clock);
    const double router_elided =
        static_cast<double>(net.router_ticks_elided()) / component_cycles;
    const double ni_elided =
        static_cast<double>(net.ni_ticks_elided()) / component_cycles;

    // Drain (untimed): every injected packet must be delivered. The layer
    // accumulators keep the timed phases only.
    const LayerAccums timed_layers = run.layers;
    for (Cycle i = 0; i < kDrainCycles; ++i) {
      std::uint64_t delivered = 0;
      for (const auto& s : sinks) delivered += s.delivered;
      if (delivered == injected && net.quiescent() && net.pending_injections() == 0)
        break;
      net.tick(clock++);
    }
    run.layers = timed_layers;
    std::uint64_t delivered = 0;
    for (const auto& s : sinks) delivered += s.delivered;
    if (delivered != injected) {
      run.ok = false;
      run.error = "delivered " + std::to_string(delivered) + " of " +
                  std::to_string(injected) + " injected packets";
    } else if (!net.quiescent()) {
      run.ok = false;
      run.error = "network not quiescent after drain";
    } else if (!net.credits_quiescent()) {
      run.ok = false;
      run.error = "credits not back at full depth after drain";
    }
    run.fingerprint = fingerprint_of(stats, delivered);

    auto& m = run.sim;
    m["compress.calls"] = static_cast<double>(
        stats.ni_compressions + stats.ni_decompressions + stats.engine_starts +
        stats.source_compressions);
    m["noc.link_flits"] = static_cast<double>(stats.link_flits);
    m["noc.packets_ejected"] = static_cast<double>(stats.packets_ejected);
    m["noc.alloc_ops"] = static_cast<double>(stats.alloc_ops);
    m["noc.sa_idle_losses"] = static_cast<double>(stats.sa_idle_losses);
    m["noc.router_elided_ratio"] = router_elided;
    m["noc.ni_elided_ratio"] = ni_elided;
    m["noc.queueing_cycles_p50"] =
        static_cast<double>(stats.queueing_cycles.approx_quantile(0.50));
    m["noc.queueing_cycles_p99"] =
        static_cast<double>(stats.queueing_cycles.approx_quantile(0.99));
    if (scheme == Scheme::DISCO) {
      m["disco.engine_starts"] = static_cast<double>(stats.engine_starts);
      m["disco.completed"] = static_cast<double>(stats.inflight_compressions +
                                                 stats.inflight_decompressions);
      m["disco.aborts"] = static_cast<double>(stats.compression_aborts +
                                              stats.decompression_aborts);
      m["disco.hidden_decomp_ops"] = static_cast<double>(stats.hidden_decomp_ops);
      m["disco.exposed_decomp_cycles"] =
          static_cast<double>(stats.exposed_decomp_cycles);
    }

    run.latency = stats.avg_packet_latency();
    for (const auto& acc : stats.packet_latency) {
      run.packet_latency_sum += acc.sum();
      run.packets += static_cast<double>(acc.count());
    }
    // NoC + compressor energy (no caches in this workload) per delivered packet.
    SystemConfig sys_cfg;
    sys_cfg.noc = cfg;
    sys_cfg.scheme = scheme;
    const energy::EnergyBreakdown e = energy::compute_energy(
        stats, cache::CacheStats{}, sys_cfg, clock,
        real->hardware_overhead() / 0.023);
    run.energy_nj = e.noc_dynamic_nj + e.noc_leakage_nj +
                    e.compressor_dynamic_nj + e.compressor_leakage_nj;
    run.energy_ops = static_cast<double>(delivered);
  } catch (const std::exception& e) {
    run.ok = false;
    run.error = e.what();
  }
  return run;
}

}  // namespace

Workload make_noc_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  // Each round pairs a plain wormhole mesh with a DISCO mesh on identical
  // traffic; the plain one is the normalization basis.
  w.reference = Scheme::Baseline;
  for (const Scheme s : {Scheme::Baseline, Scheme::DISCO})
    w.cells.push_back([s, seed](const Trace* tr) { return run_noc_cell(s, seed, tr); });

  // The corpus is the payloads the cells inject.
  Rng rng(splitmix64(seed, 3));
  for (std::size_t i = 0; i < kCorpusBlocks; ++i)
    w.corpus.push_back(
        workload::make_synthetic_packet(0, 1, i + 1, 0, kCompressible, rng)->data);
  return w;
}

}  // namespace perfbench
