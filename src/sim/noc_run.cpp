#include "sim/noc_run.h"

#include "cmp/scheme.h"
#include "common/table.h"
#include "compress/registry.h"
#include "disco/unit.h"

namespace disco::sim {
namespace {

constexpr const char* kAlgorithm = "delta";
const DiscoConfig kDisco{};  ///< DISCO routers run the default thresholds

}  // namespace

NocRun::NocRun(const NocConfig& cfg, Scheme scheme, const TraceConfig& tc,
               const NocTraffic& traffic)
    : traffic_(traffic),
      algo_(compress::make_algorithm(kAlgorithm)),
      rng_(traffic.inject_seed),
      chooser_(traffic.pattern, cfg.mesh_cols, traffic.dest_seed) {
  const cmp::SchemeSetup setup = cmp::make_scheme_setup(scheme, *algo_);
  noc::Network::ExtensionFactory factory;
  if (setup.use_disco_units) {
    factory = [this](noc::Router& r) -> std::unique_ptr<noc::RouterExtension> {
      return std::make_unique<core::DiscoUnit>(r, kDisco, *algo_,
                                               algo_->latency(), stats_);
    };
  }
  net_ = std::make_unique<noc::Network>(cfg, setup.ni, stats_, factory);
  for (NodeId n = 0; n < cfg.num_nodes(); ++n)
    net_->register_sink(n, UnitKind::Core, &sink_);
  if (tc.active()) {
    tracer_ = std::make_unique<trace::Tracer>(tc);
    if (tc.check_invariants) {
      checker_ = std::make_unique<trace::InvariantChecker>(
          noc::invariant_params(cfg, kDisco));
      tracer_->set_checker(checker_.get());
    }
    net_->set_tracer(tracer_.get());
  }
}

void NocRun::step() {
  const std::uint32_t nodes = net_->config().num_nodes();
  for (NodeId src = 0; src < nodes; ++src) {
    if (!rng_.chance(traffic_.rate)) continue;
    const NodeId dst = chooser_.pick(src);
    net_->inject(src,
                 workload::make_synthetic_packet(src, dst, ++injected_, clock_,
                                                 traffic_.compressible, rng_),
                 clock_);
  }
  net_->tick(clock_++);
}

bool NocRun::drain(Cycle max_cycles) {
  for (Cycle i = 0; i < max_cycles && !net_->quiescent(); ++i)
    net_->tick(clock_++);
  return net_->quiescent();
}

NocOutcome NocRun::finish(Cycle max_cycles) {
  const bool drained = drain(max_cycles);
  return {stats_.avg_packet_latency(), drained, stats_.packets_ejected,
          injected_};
}

trace::InvariantSummary NocRun::invariants() const {
  return checker_ != nullptr ? checker_->summary() : trace::InvariantSummary{};
}

std::string UndrainedNotes::latency_cell(const NocOutcome& o,
                                         const std::string& label) {
  const std::string mean = TablePrinter::fmt(o.avg_latency, 1);
  if (o.drained) return mean;
  notes_ += "* " + label + ": " + std::to_string(o.ejected) + " of " +
            std::to_string(o.injected) + " packets ejected\n";
  return mean + "*";
}

std::string UndrainedNotes::footnote() const {
  if (notes_.empty()) return {};
  return "\n* did not drain within " + std::to_string(drain_cycles_) +
         " cycles; the mean covers the ejected packets only:\n" + notes_;
}

}  // namespace disco::sim
