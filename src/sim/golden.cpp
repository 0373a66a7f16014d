#include "sim/golden.h"

#include <cstring>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common/rng.h"
#include "compress/registry.h"
#include "disco/unit.h"
#include "noc/network.h"
#include "sim/experiment.h"
#include "trace/trace.h"
#include "workload/profile.h"

namespace disco::sim {
namespace {

noc::PacketPtr make_data_packet(NodeId src, NodeId dst, std::uint64_t id,
                                Cycle now) {
  auto pkt = noc::make_packet();
  pkt->id = id;
  pkt->src = src;
  pkt->dst = dst;
  pkt->src_unit = UnitKind::Core;
  pkt->dst_unit = UnitKind::Core;
  pkt->vnet = VNet::Response;
  pkt->created = now;
  pkt->has_data = true;
  pkt->compressible = true;
  // Compressible payload: per-packet base plus small deltas, a shape every
  // registered algorithm shrinks, so DISCO engines have real work.
  Rng rng(id * 1315423911ULL + 7);
  const std::uint64_t base = rng.next_u64();
  for (std::size_t f = 0; f < kWordsPerBlock; ++f) {
    const std::uint64_t v = base + rng.next_below(64);
    std::memcpy(pkt->data.data() + f * 8, &v, 8);
  }
  return pkt;
}

/// Shared scaffolding for the network-only scenarios: builds the trace +
/// checker pair for `cfg`, runs `drive`, and packages the canonical text.
template <typename DriveFn>
GoldenRun run_network_scenario(const NocConfig& cfg, const DiscoConfig& dcfg,
                               const noc::NiPolicy& policy,
                               const noc::Network::ExtensionFactory& factory,
                               const std::string& filter, DriveFn&& drive) {
  TraceConfig tc;
  tc.enabled = true;
  tc.check_invariants = true;
  tc.filter = filter;

  noc::NocStats stats;
  noc::Network net(cfg, policy, stats, factory);
  noc::NullSink sink;
  for (NodeId n = 0; n < cfg.num_nodes(); ++n)
    net.register_sink(n, UnitKind::Core, &sink);

  trace::Tracer tracer(tc);
  trace::InvariantChecker checker(noc::invariant_params(cfg, dcfg));
  tracer.set_checker(&checker);
  net.set_tracer(&tracer);

  drive(net);

  GoldenRun out;
  std::ostringstream os;
  tracer.write_canonical(os);
  out.trace = os.str();
  out.invariants = checker.summary();
  return out;
}

/// A handful of request/data pings criss-crossing a 2x2 mesh, plain
/// routers. Covers BW/RC/VA/ST ordering, credit send/recv pairing and NI
/// inject/eject/reassembly on every node without DISCO in the picture.
GoldenRun ping_2x2() {
  NocConfig cfg;
  cfg.mesh_cols = 2;
  cfg.mesh_rows = 2;
  noc::NiPolicy policy;  // raw packets end to end
  return run_network_scenario(
      cfg, DiscoConfig{}, policy, {}, "",
      [&](noc::Network& net) {
        Cycle clock = 0;
        std::uint64_t id = 1;
        // Two waves: all-to-one (contention at node 0), then pairwise swaps.
        for (NodeId src = 1; src < cfg.num_nodes(); ++src)
          net.inject(src, make_data_packet(src, 0, id++, clock), clock);
        for (Cycle i = 0; i < 12; ++i)
          net.tick(clock++);
        net.inject(0, make_data_packet(0, 3, id++, clock), clock);
        net.inject(3, make_data_packet(3, 0, id++, clock), clock);
        net.inject(1, make_data_packet(1, 2, id++, clock), clock);
        net.inject(2, make_data_packet(2, 1, id++, clock), clock);
        for (Cycle i = 0; i < 400 && !net.quiescent(); ++i)
          net.tick(clock++);
      });
}

/// DISCO routers on a 2x2 mesh with thresholds lowered so bursty all-to-one
/// traffic queues long enough to arm engines: exercises the Eq.1/Eq.2
/// confidence probes, comp/decomp start-abort-finish and shadow retire.
GoldenRun disco_compress_2x2() {
  NocConfig cfg;
  cfg.mesh_cols = 2;
  cfg.mesh_rows = 2;
  DiscoConfig dcfg;
  dcfg.cc_threshold = 0.25;
  dcfg.cd_threshold = 0.5;

  noc::NocStats stats;  // outlives the network built inside the helper
  auto algo = compress::make_algorithm("delta");

  noc::NiPolicy policy;
  policy.algo = algo.get();
  policy.decompress_for_raw_consumers = true;
  policy.comp_cycles = algo->latency().comp_cycles;
  policy.decomp_cycles = algo->latency().decomp_cycles;
  // No source-side compression: packets travel raw so the in-router engines
  // (not the NI) do the compressing — that is the path this golden pins.

  noc::Network::ExtensionFactory factory = [&](noc::Router& r) {
    return std::make_unique<core::DiscoUnit>(r, dcfg, *algo, algo->latency(),
                                             stats);
  };
  return run_network_scenario(
      cfg, dcfg, policy, factory, "disco,ni",
      [&](noc::Network& net) {
        Cycle clock = 0;
        std::uint64_t id = 1;
        // Three bursts of all-to-one traffic; the backlog at node 0's
        // neighbors is what raises Eq.1 confidence above the threshold.
        for (int burst = 0; burst < 3; ++burst) {
          for (int k = 0; k < 4; ++k)
            for (NodeId src = 1; src < cfg.num_nodes(); ++src)
              net.inject(src, make_data_packet(src, 0, id++, clock), clock);
          for (Cycle i = 0; i < 30; ++i)
            net.tick(clock++);
        }
        for (Cycle i = 0; i < 2000 && !net.quiescent(); ++i)
          net.tick(clock++);
      });
}

/// A short full-CMP cell (cores + L1s + NUCA L2 + DRAM) under the DISCO
/// scheme, captured through the cache/disco filter: covers L2 fill/evict
/// probes and the in-network engines fed by real coherence traffic.
GoldenRun cmp_cache_2x2() {
  SystemConfig cfg;
  cfg.noc.mesh_cols = 2;
  cfg.noc.mesh_rows = 2;
  // L2 far smaller than the footprint so the capture includes evictions and
  // dirty writebacks, not just cold fills.
  cfg.l2.total_size_bytes = 64ULL * 1024;
  cfg.scheme = Scheme::DISCO;
  cfg.seed = 12345;
  cfg.trace.enabled = true;
  cfg.trace.check_invariants = true;
  cfg.trace.filter = "cache,disco";

  workload::BenchmarkProfile profile = workload::parsec_profiles().front();
  profile.footprint_blocks = 1 << 10;
  profile.mem_op_rate = 1.0;  // saturate the NoC so DISCO engines arm

  RunOptions opt;
  opt.warmup_ops_per_core = 2000;
  opt.warmup_cycles = 500;
  opt.measure_cycles = 4000;

  const CellResult r = run_cell(cfg, profile, opt);
  GoldenRun out;
  out.trace = r.trace_text;
  out.invariants = r.invariants;
  return out;
}

}  // namespace

const std::vector<GoldenScenario>& golden_scenarios() {
  static const std::vector<GoldenScenario> scenarios = {
      {"ping_2x2", "plain 2x2 mesh, request/data pings, full capture",
       &ping_2x2},
      {"disco_compress_2x2",
       "2x2 DISCO routers, low thresholds, bursty all-to-one (disco,ni)",
       &disco_compress_2x2},
      {"cmp_cache_2x2", "full 2x2 CMP cell under DISCO scheme (cache,disco)",
       &cmp_cache_2x2},
  };
  return scenarios;
}

GoldenRun run_golden_scenario(const std::string& name) {
  std::string valid;
  for (const auto& s : golden_scenarios()) {
    if (name == s.name) return s.run();
    valid += valid.empty() ? "" : ", ";
    valid += s.name;
  }
  throw std::invalid_argument("unknown golden scenario '" + name +
                              "' (valid: " + valid + ")");
}

}  // namespace disco::sim
