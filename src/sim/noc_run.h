// Network-only runs: one scheme's mesh, no caches or cores, driven by
// synthetic data traffic (the paper evaluates its NoC alone in Booksim).
// The load-latency bench, the traffic explorer and the router instruction
// counter all drive the network through this one loop.
#pragma once

#include <cstdint>
#include <memory>

#include "common/config.h"
#include "common/rng.h"
#include "compress/algorithm.h"
#include "noc/network.h"
#include "trace/invariants.h"
#include "trace/trace.h"
#include "workload/synthetic.h"

namespace disco::sim {

/// Synthetic traffic: each cycle every node flips a coin of `rate` and, on
/// heads, injects one data packet to a destination `pattern` picks.
struct NocTraffic {
  workload::TrafficPattern pattern = workload::TrafficPattern::UniformRandom;
  double rate = 0;              ///< packets per node per cycle
  double compressible = 0.8;    ///< fraction of compressible payloads
  std::uint64_t inject_seed = 0;  ///< the injection coin and the payloads
  std::uint64_t dest_seed = 0;    ///< the destination chooser
};

class NocRun {
 public:
  /// Builds the `cfg` mesh with `scheme`'s NI policy, and DISCO routers
  /// (default DiscoConfig) when `scheme` is DISCO; the compressor is delta.
  /// `tc` attaches a tracer, and a checker when it asks for invariants.
  NocRun(const NocConfig& cfg, Scheme scheme, const TraceConfig& tc,
         const NocTraffic& traffic);
  // The routers keep pointers into the run, so it stays where it was built.
  NocRun(const NocRun&) = delete;
  NocRun& operator=(const NocRun&) = delete;

  /// Injects this cycle's packets (ids 1, 2, ... in injection order), then
  /// ticks the cycle.
  void step();

  /// Ticks without injecting until the network is quiescent or `max_cycles`
  /// cycles passed. Returns whether it is quiescent.
  bool drain(Cycle max_cycles);

  /// The cycle the next step() or drain tick runs.
  Cycle cycle() const { return clock_; }
  std::uint64_t injected() const { return injected_; }
  const noc::NocStats& stats() const { return stats_; }
  /// The checker's verdict; `enabled` is false when `tc` asked for none.
  trace::InvariantSummary invariants() const;

 private:
  NocTraffic traffic_;
  noc::NocStats stats_;
  std::unique_ptr<compress::Algorithm> algo_;
  noc::NullSink sink_;  ///< every node's
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<trace::InvariantChecker> checker_;
  std::unique_ptr<noc::Network> net_;
  Rng rng_;
  workload::TrafficChooser chooser_;
  std::uint64_t injected_ = 0;
  Cycle clock_ = 0;
};

}  // namespace disco::sim
