#include "cmp/system.h"

#include <cassert>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>

#include "noc/snapshot.h"

#include "common/interrupt.h"
#include "fault/fault.h"
#include "compress/sc2.h"
#include "trace/invariants.h"

namespace disco::cmp {
namespace {

/// Crash-handler registry: the first live system claims the slot so a forked
/// sweep worker (exactly one system per process) can be found from a signal
/// handler; concurrent in-process cells simply leave it to the first claimant.
std::atomic<CmpSystem*> g_current_system{nullptr};

}  // namespace

const char* to_string(StallKind k) {
  switch (k) {
    case StallKind::Deadlock: return "deadlock";
    case StallKind::Livelock: return "livelock";
    case StallKind::Starvation: return "starvation";
  }
  return "?";
}

CmpSystem* CmpSystem::current() {
  return g_current_system.load(std::memory_order_acquire);
}

namespace {

/// SC2's sampling phase: retrain the value-frequency table on blocks drawn
/// from the workload's own value population.
void maybe_retrain_sc2(compress::Algorithm& algo,
                       const workload::ValueSynthesizer& synth) {
  auto* sc2 = dynamic_cast<compress::Sc2Algorithm*>(&algo);
  if (sc2 == nullptr) return;
  std::vector<BlockBytes> sample;
  sample.reserve(2048);
  for (std::uint64_t i = 0; i < 2048; ++i)
    sample.push_back(synth.block_for(splitmix64(i) % (1ULL << 30) * kBlockBytes));
  sc2->retrain(sample);
}

}  // namespace

CmpSystem::CmpSystem(const SystemConfig& cfg,
                     const workload::BenchmarkProfile& profile)
    : cfg_(cfg),
      algo_(compress::make_algorithm(cfg.algorithm)),
      synth_(profile.values, cfg.seed) {
  cfg_.validate();
  const std::uint32_t n = cfg_.noc.num_nodes();
  assert(n <= 64 && "directory sharer bitmask limits the mesh to 64 tiles");
  maybe_retrain_sc2(*algo_, synth_);

  // A hard-fault schedule implies fault mode: severed packets ride the
  // end-to-end recovery layer, and exports gate degraded fields on it.
  if (cfg_.fault.hard_enabled()) {
    cfg_.fault.enabled = true;
    hard_schedule_ = fault::build_hard_fault_schedule(
        cfg_.fault, cfg_.seed, cfg_.noc.mesh_cols, cfg_.noc.mesh_rows,
        std::numeric_limits<std::uint64_t>::max());
  }

  if (cfg_.fault.enabled) {
    injector_ = std::make_unique<fault::FaultInjector>(
        cfg_.fault, splitmix64(cfg_.seed, 0xFA17C0DEULL));
  }

  SchemeSetup setup = make_scheme_setup(cfg_.scheme, *algo_, cfg_.timing);
  setup.bank.injector = injector_.get();

  // The low-priority rule for compressible-but-uncompressed packets
  // (section 3.3B) exists to create compression opportunities; it is part
  // of DISCO's scheduling policy, not of the baselines'.
  if (cfg_.scheme != Scheme::DISCO) cfg_.noc.deprioritize_compressible = false;

  noc::Network::ExtensionFactory factory;
  if (setup.use_disco_units) {
    compress::LatencyModel lat = algo_->latency();
    if (cfg_.timing.override_algorithm) {
      lat.comp_cycles = cfg_.timing.comp_cycles;
      lat.decomp_cycles = cfg_.timing.decomp_cycles;
    }
    factory = [this, lat](noc::Router& r) {
      return std::make_unique<core::DiscoUnit>(r, cfg_.disco, *algo_, lat,
                                               noc_stats_, injector_.get());
    };
  }
  network_ = std::make_unique<noc::Network>(cfg_.noc, setup.ni, noc_stats_, factory);
  if (injector_ != nullptr) network_->set_fault_injector(injector_.get());
  if (cfg_.fault.hard_enabled()) {
    network_->set_unreachable_handler(
        [this](const noc::PacketPtr& p, Cycle at) { resolve_protocol_orphan(p, at); });
  }

  if (cfg_.trace.active()) {
    tracer_ = std::make_unique<trace::Tracer>(cfg_.trace);
    if (cfg_.trace.check_invariants) {
      trace::InvariantParams p;
      p.nodes = n;
      p.ports = noc::kNumPorts;
      p.local_port = static_cast<std::uint32_t>(noc::Port::Local);
      p.num_vcs = cfg_.noc.num_vcs();
      p.vc_depth = cfg_.noc.vc_depth_flits;
      p.max_hops = (cfg_.noc.mesh_cols - 1) + (cfg_.noc.mesh_rows - 1);
      p.block_flits = 1 + static_cast<std::uint32_t>(kBlockBytes / kFlitBytes);
      p.gamma = cfg_.disco.gamma;
      p.alpha = cfg_.disco.alpha;
      p.beta = cfg_.disco.beta;
      checker_ = std::make_unique<trace::InvariantChecker>(p);
      tracer_->set_checker(checker_.get());
    }
    network_->set_tracer(tracer_.get());
  }

  // Memory controllers, evenly spread over the mesh.
  const std::uint32_t ctrls = std::max(1u, cfg_.mem.num_controllers);
  for (std::uint32_t i = 0; i < ctrls; ++i)
    mem_nodes_.push_back(static_cast<NodeId>((i * n) / ctrls));
  auto mem_node_of = [this](Addr addr) {
    return mem_nodes_[(addr / kBlockBytes) % mem_nodes_.size()];
  };
  auto home_fn = [this](Addr addr) { return home_of(addr); };

  for (NodeId node = 0; node < n; ++node) {
    l1s_.push_back(std::make_unique<cache::L1Cache>(
        node, cfg_.l1, network_->ni(node), home_fn, cache_stats_));
    network_->register_sink(node, UnitKind::Core, l1s_.back().get());

    std::uint32_t index_shift = 0;
    while ((1u << index_shift) < n) ++index_shift;
    l2s_.push_back(std::make_unique<cache::L2Bank>(
        node, cfg_.l2, setup.bank, algo_.get(), cfg_.l2_bank_size_bytes(),
        index_shift, network_->ni(node), mem_node_of, cache_stats_));
    l2s_.back()->set_tracer(tracer_.get());
    network_->register_sink(node, UnitKind::L2Bank, l2s_.back().get());
  }

  for (const NodeId node : mem_nodes_) {
    mems_.push_back(std::make_unique<cache::MemCtrl>(
        node, cfg_.mem, network_->ni(node),
        [this](Addr a) { return synth_.block_for(a); }, cache_stats_));
    network_->register_sink(node, UnitKind::MemCtrl, mems_.back().get());
  }

  for (NodeId node = 0; node < n; ++node) {
    cores_.push_back(std::make_unique<Core>(
        node, *l1s_[node],
        workload::TraceGenerator(profile, node, cfg_.seed),
        synth_, /*max_outstanding=*/8));
  }

  CmpSystem* expected = nullptr;
  g_current_system.compare_exchange_strong(expected, this,
                                           std::memory_order_release,
                                           std::memory_order_relaxed);
}

CmpSystem::~CmpSystem() {
  CmpSystem* expected = this;
  g_current_system.compare_exchange_strong(expected, nullptr,
                                           std::memory_order_release,
                                           std::memory_order_relaxed);
}

cache::L2Bank::WarmEvictFn CmpSystem::warm_evict_fn() {
  return [this](Addr addr, const BlockBytes& data, bool dirty,
                const cache::DirInfo& dir) {
    BlockBytes final = data;
    bool final_dirty = dirty;
    if (dir.kind == cache::DirInfo::Kind::Excl) {
      if (auto d = l1s_[dir.owner]->warm_invalidate(addr)) {
        final = *d;
        final_dirty = true;
      }
    } else if (dir.kind == cache::DirInfo::Kind::Shared) {
      for (NodeId n = 0; n < cfg_.noc.num_nodes(); ++n)
        if (dir.is_sharer(n)) l1s_[n]->warm_invalidate(addr);
    }
    if (final_dirty) mem_for(addr).write_block(addr, final);
  };
}

void CmpSystem::warm_access(NodeId node, Addr addr, bool is_store,
                            std::uint64_t value) {
  const Addr blk = cache::block_align(addr);
  cache::L2Bank& bank = *l2s_[home_of(blk)];
  const auto on_evict = warm_evict_fn();

  cache::L2Line* line = bank.warm_lookup(blk);
  if (line == nullptr) {
    const BlockBytes& mem_data = mem_for(blk).read_block(blk);
    line = &bank.warm_install(blk, mem_data, false, cycle_, on_evict);
  }
  cache::L1Cache& l1 = *l1s_[node];
  using Kind = cache::DirInfo::Kind;

  std::optional<cache::L1Cache::WarmVictim> victim;
  if (is_store) {
    BlockBytes current = line->data;
    if (line->dir.kind == Kind::Excl && line->dir.owner != node) {
      if (auto d = l1s_[line->dir.owner]->warm_invalidate(blk)) {
        current = *d;
        bank.warm_update(*line, current, true, cycle_, on_evict);
      }
    } else if (line->dir.kind == Kind::Excl && line->dir.owner == node) {
      if (cache::L1Line* ll = l1.warm_lookup(blk)) {
        ll->state = cache::L1State::M;
        cache::apply_store_to_block(ll->data, addr, value);
        ll->lru = cycle_;
        return;
      }
    } else if (line->dir.kind == Kind::Shared) {
      for (NodeId n = 0; n < cfg_.noc.num_nodes(); ++n)
        if (line->dir.is_sharer(n) && n != node) l1s_[n]->warm_invalidate(blk);
    }
    line->dir = cache::DirInfo{Kind::Excl, 0, node};
    cache::apply_store_to_block(current, addr, value);
    victim = l1.warm_install(blk, current, cache::L1State::M, cycle_);
  } else {
    if (cache::L1Line* ll = l1.warm_lookup(blk)) {
      ll->lru = cycle_;
      return;
    }
    if (line->dir.kind == Kind::Excl && line->dir.owner != node) {
      if (auto d = l1s_[line->dir.owner]->warm_invalidate(blk))
        bank.warm_update(*line, *d, true, cycle_, on_evict);
      cache::DirInfo dir{Kind::Shared, 0, kInvalidNode};
      dir.add_sharer(node);
      line->dir = dir;
      victim = l1.warm_install(blk, line->data, cache::L1State::S, cycle_);
    } else if (line->dir.kind == Kind::Uncached ||
               (line->dir.kind == Kind::Excl && line->dir.owner == node)) {
      line->dir = cache::DirInfo{Kind::Excl, 0, node};
      victim = l1.warm_install(blk, line->data, cache::L1State::E, cycle_);
    } else {
      line->dir.add_sharer(node);
      victim = l1.warm_install(blk, line->data, cache::L1State::S, cycle_);
    }
  }

  if (victim.has_value()) {
    cache::L2Bank& vbank = *l2s_[home_of(victim->addr)];
    cache::L2Line* vline = vbank.warm_lookup(victim->addr);
    // Inclusive hierarchy: the L2 line must still exist for any L1 copy.
    assert(vline != nullptr);
    if (victim->dirty) vbank.warm_update(*vline, victim->data, true, cycle_, on_evict);
    if (vline->dir.kind == Kind::Excl && vline->dir.owner == node) {
      vline->dir = cache::DirInfo{};
    } else if (vline->dir.kind == Kind::Shared) {
      vline->dir.remove_sharer(node);
      if (vline->dir.sharer_count() == 0) vline->dir = cache::DirInfo{};
    }
  }
}

void CmpSystem::functional_warmup(std::uint64_t ops_per_core) {
  const std::uint32_t n = cfg_.noc.num_nodes();
  for (std::uint64_t i = 0; i < ops_per_core; ++i) {
    if ((i & 0x3FF) == 0) check_cancel();
    for (NodeId node = 0; node < n; ++node) {
      const workload::TraceOp op = cores_[node]->next_warm_op();
      const std::uint64_t value =
          op.is_store ? synth_.store_value(op.addr, i) : 0;
      warm_access(node, op.addr, op.is_store, value);
    }
  }
}

void CmpSystem::tick() {
  ++cycle_;
  if (next_hard_fault_ < hard_schedule_.size()) fire_hard_faults();
  network_->tick(cycle_);
  if (!any_node_dead_) {
    for (auto& l1 : l1s_) l1->tick(cycle_);
    for (auto& l2 : l2s_) l2->tick(cycle_);
    for (auto& mem : mems_) mem->tick(cycle_);
    for (auto& core : cores_) core->tick(cycle_);
  } else {
    const std::uint32_t n = cfg_.noc.num_nodes();
    for (NodeId i = 0; i < n; ++i) {
      if (network_->node_dead(i)) continue;
      l1s_[i]->tick(cycle_);
      l2s_[i]->tick(cycle_);
    }
    for (std::size_t i = 0; i < mems_.size(); ++i)
      if (!network_->node_dead(mem_nodes_[i])) mems_[i]->tick(cycle_);
    for (NodeId i = 0; i < n; ++i)
      if (!network_->node_dead(i)) cores_[i]->tick(cycle_);
  }
  if (checker_ != nullptr)
    checker_->end_of_cycle(cycle_, network_->inflight_flits());
  if ((cycle_ & 0xFF) == 0) check_cancel();
  if (cfg_.progress_watchdog_cycles > 0) check_progress();
}

void CmpSystem::check_cancel() const {
  if ((cancel_ != nullptr && cancel_->load(std::memory_order_relaxed)) ||
      interrupt_requested()) {
    throw CancelledError();
  }
}

bool CmpSystem::work_outstanding() const {
  if (network_->inflight_flits() > 0 || network_->pending_injections() > 0)
    return true;
  const std::uint32_t n = cfg_.noc.num_nodes();
  for (NodeId i = 0; i < n; ++i) {
    if (any_node_dead_ && network_->node_dead(i)) continue;
    if (!l1s_[i]->idle() || !l2s_[i]->idle()) return true;
  }
  for (std::size_t i = 0; i < mems_.size(); ++i) {
    if (any_node_dead_ && network_->node_dead(mem_nodes_[i])) continue;
    if (!mems_[i]->idle()) return true;
  }
  return false;
}

void CmpSystem::check_progress() {
  // Progress = end-to-end packet progress; activity = any flit movement.
  // reset_stats() between phases perturbs both signatures, which simply
  // re-arms the window — never a false trip.
  const std::uint64_t progress =
      noc_stats_.packets_injected + noc_stats_.packets_ejected;
  const std::uint64_t activity =
      noc_stats_.link_flits + noc_stats_.crossbar_traversals +
      noc_stats_.buffer_writes + noc_stats_.credits_sent;
  if (progress != last_progress_sig_) {
    last_progress_sig_ = progress;
    activity_sig_at_progress_ = activity;
    last_progress_cycle_ = cycle_;
    return;
  }
  if (cycle_ - last_progress_cycle_ < cfg_.progress_watchdog_cycles) return;
  if (!work_outstanding()) {
    // Genuinely idle (e.g. a compute-only phase): re-arm, don't trip.
    last_progress_cycle_ = cycle_;
    return;
  }

  const noc::StallCensus census = network_->stall_census();
  const std::uint64_t inflight = network_->inflight_flits();
  const StallKind kind = classify_stall(activity != activity_sig_at_progress_,
                                        inflight, census.pending_injections);
  std::ostringstream what;
  what << "watchdog: " << to_string(kind) << " at cycle " << cycle_
       << " (no packet progress since cycle " << last_progress_cycle_ << "; "
       << inflight << " flits in flight, " << census.blocked_vcs << "/"
       << census.active_vcs << " active VCs credit-blocked, "
       << census.waiting_alloc_vcs << " VCs waiting for allocation, "
       << census.pending_injections << " packets starved at NIs)";
  if (!cfg_.postmortem_path.empty()) {
    std::ofstream os(cfg_.postmortem_path);
    if (os) write_postmortem(os, what.str());
  }
  throw NoProgressError(kind, cycle_, last_progress_cycle_, what.str());
}

void CmpSystem::write_postmortem(std::ostream& os,
                                 const std::string& reason) const {
  os << "=== DISCO postmortem black box ===\n"
     << "reason: " << reason << "\n"
     << "cycle: " << cycle_ << "\n"
     << "last_progress_cycle: " << last_progress_cycle_ << "\n"
     << "config: " << cfg_.summary() << "\n";
  const noc::StallCensus c = network_->stall_census();
  os << "stall_census: buffered_flits=" << c.buffered_flits
     << " inflight_flits=" << network_->inflight_flits()
     << " active_vcs=" << c.active_vcs << " blocked_vcs=" << c.blocked_vcs
     << " waiting_alloc_vcs=" << c.waiting_alloc_vcs
     << " pending_injections=" << c.pending_injections << "\n"
     << "packets: injected=" << noc_stats_.packets_injected
     << " ejected=" << noc_stats_.packets_ejected
     << " link_flits=" << noc_stats_.link_flits << "\n";
  if (checker_ != nullptr) {
    const trace::InvariantSummary& s = checker_->summary();
    os << "invariants: events=" << s.events_checked
       << " violations=" << s.violations;
    if (!s.first_violation.empty()) os << " first=\"" << s.first_violation << '"';
    os << "\n";
  }
  if (tracer_ != nullptr) {
    os << "--- tracer ring tail ---\n";
    tracer_->write_canonical_tail(os, 256);
  }
  os.flush();
}

void CmpSystem::run(Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) tick();
}

bool CmpSystem::drain(Cycle max_cycles) {
  const std::uint32_t n = cfg_.noc.num_nodes();
  for (Cycle i = 0; i < max_cycles; ++i) {
    ++cycle_;
    if (next_hard_fault_ < hard_schedule_.size()) fire_hard_faults();
    network_->tick(cycle_);
    for (NodeId j = 0; j < n; ++j) {
      if (any_node_dead_ && network_->node_dead(j)) continue;
      l1s_[j]->tick(cycle_);
      l2s_[j]->tick(cycle_);
    }
    for (std::size_t j = 0; j < mems_.size(); ++j)
      if (!(any_node_dead_ && network_->node_dead(mem_nodes_[j])))
        mems_[j]->tick(cycle_);
    // No core ticks: stop injecting new work.
    if (checker_ != nullptr)
      checker_->end_of_cycle(cycle_, network_->inflight_flits());
    const bool quiet = network_->quiescent() && !work_outstanding();
    if (quiet) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Permanent hardware failure (graceful degradation)

void CmpSystem::fire_hard_faults() {
  while (next_hard_fault_ < hard_schedule_.size() &&
         hard_schedule_[next_hard_fault_].at <= cycle_) {
    const HardFaultEvent e = hard_schedule_[next_hard_fault_++];
    if (!network_->apply_hard_fault(e, cycle_)) continue;  // already dead
    ++hard_faults_applied_;
    if (e.kind == HardFaultKind::Router) {
      any_node_dead_ = true;
      on_tile_killed(static_cast<NodeId>(e.node), cycle_);
    } else if (e.kind == HardFaultKind::LlcBank) {
      std::vector<noc::PacketPtr> orphans;
      l2s_[e.node]->hard_fail(orphans);
      for (const auto& p : orphans) resolve_protocol_orphan(p, cycle_);
    }
  }
}

void CmpSystem::on_tile_killed(NodeId n, Cycle at) {
  std::vector<noc::PacketPtr> orphans;
  l1s_[n]->hard_fail(orphans);
  l2s_[n]->hard_fail(orphans);
  for (std::size_t i = 0; i < mems_.size(); ++i)
    if (mem_nodes_[i] == n) mems_[i]->hard_fail(orphans);
  for (const auto& p : orphans) resolve_protocol_orphan(p, at);
}

void CmpSystem::resolve_protocol_orphan(const noc::PacketPtr& pkt, Cycle at) {
  using cache::Msg;
  if (pkt == nullptr || pkt->nack_for != 0) return;  // NACKs carry no state
  const noc::Topology& topo = network_->topology();
  const Msg m = cache::msg_of(*pkt);
  const Addr a = pkt->addr;

  auto synthesize = [&](Msg sm, NodeId from, UnitKind from_unit, NodeId to,
                        UnitKind to_unit, const BlockBytes* data,
                        noc::PacketSink& sink) {
    noc::PacketPtr resp =
        cache::make_packet(network_->ni(to).mint_protocol_id(), sm, a, from,
                           from_unit, to, to_unit, at);
    if (data != nullptr) resp->data = *data;
    ++noc_stats_.synth_completions;
    sink.deliver(std::move(resp), at);
  };

  switch (m) {
    // --- requests whose service component died: synthesize the completion
    // the home / memory would have produced, from the ground-truth DRAM
    // image. The expects() guards make resolution idempotent (a clone chain
    // or a late straggler resolves at most once).
    case Msg::GetS:
    case Msg::GetM: {
      if (!topo.unit_alive(pkt->src, UnitKind::Core)) return;
      cache::L1Cache& l1 = *l1s_[pkt->src];
      const Msg gm = m == Msg::GetS ? Msg::DataE : Msg::DataM;
      if (!l1.expects(gm, a)) return;
      synthesize(gm, pkt->dst, UnitKind::L2Bank, pkt->src, UnitKind::Core,
                 &mem_for(a).read_block(a), l1);
      return;
    }
    case Msg::PutM:
    case Msg::PutE: {
      // Preserve the dirty block in the DRAM image before acking.
      if (m == Msg::PutM) mem_for(a).write_block(a, pkt->data);
      if (!topo.unit_alive(pkt->src, UnitKind::Core)) return;
      cache::L1Cache& l1 = *l1s_[pkt->src];
      if (!l1.expects(Msg::WBAck, a)) return;
      synthesize(Msg::WBAck, pkt->dst, UnitKind::L2Bank, pkt->src,
                 UnitKind::Core, nullptr, l1);
      return;
    }
    case Msg::MemRead: {
      if (!topo.unit_alive(pkt->src, UnitKind::L2Bank)) return;
      cache::L2Bank& bank = *l2s_[pkt->src];
      if (!bank.expects(Msg::MemData, a)) return;
      synthesize(Msg::MemData, pkt->dst, UnitKind::MemCtrl, pkt->src,
                 UnitKind::L2Bank, &mem_for(a).read_block(a), bank);
      return;
    }
    case Msg::MemWB:
      mem_for(a).write_block(a, pkt->data);  // the DRAM image is ground truth
      return;
    case Msg::Inv:
    case Msg::Recall: {
      // The target L1 died before it could answer; its copy is gone with
      // the tile. Resolve the waiting home as a clean invalidation — a
      // dirty recalled line reverts to the home's copy, the documented
      // degraded-by-design loss window of a tile kill.
      if (!topo.unit_alive(pkt->src, UnitKind::L2Bank)) return;
      cache::L2Bank& bank = *l2s_[pkt->src];
      const Msg ack = m == Msg::Inv ? Msg::InvAck : Msg::RecallAck;
      if (!bank.expects(ack, a)) return;
      synthesize(ack, pkt->dst, UnitKind::Core, pkt->src, UnitKind::L2Bank,
                 nullptr, bank);
      return;
    }
    // --- responses already formed by a now-dead or cut-off component:
    // hand them to the waiting consumer directly while it is still alive
    // (models the repair path recovering in-flight completions; without it
    // every survivor parked on a dead ack hangs into the watchdog). ---
    case Msg::DataS:
    case Msg::DataE:
    case Msg::DataM:
    case Msg::WBAck: {
      if (!topo.unit_alive(pkt->dst, UnitKind::Core)) return;
      cache::L1Cache& l1 = *l1s_[pkt->dst];
      if (!l1.expects(m, a)) return;
      // An earlier transmission of this completion may sit parked at the
      // consumer's NI (corrupted arrival awaiting a retransmit that will now
      // never come): retire that recovery state, or the dead-peer fallback
      // would deliver the transaction a second time.
      network_->ni(pkt->dst).note_external_completion(
          pkt->retransmit_of != 0 ? pkt->retransmit_of : pkt->id);
      ++noc_stats_.synth_completions;
      l1.deliver(pkt, at);
      return;
    }
    case Msg::InvAck:
    case Msg::RecallAck:
    case Msg::RecallData:
    case Msg::MemData: {
      if (topo.unit_alive(pkt->dst, UnitKind::L2Bank) &&
          l2s_[pkt->dst]->expects(m, a)) {
        network_->ni(pkt->dst).note_external_completion(
            pkt->retransmit_of != 0 ? pkt->retransmit_of : pkt->id);
        ++noc_stats_.synth_completions;
        l2s_[pkt->dst]->deliver(pkt, at);
      } else if (m == Msg::RecallData) {
        // Last live copy of a dirty block: park it in the DRAM image.
        mem_for(a).write_block(a, pkt->data);
      }
      return;
    }
  }
}

void CmpSystem::reset_stats() {
  noc_stats_ = noc::NocStats{};
  cache_stats_ = cache::CacheStats{};
  for (auto& core : cores_) core->reset_counters();
  if (injector_ != nullptr) injector_->reset_counters();
}

std::uint64_t CmpSystem::total_core_ops() const {
  std::uint64_t n = 0;
  for (const auto& core : cores_) n += core->ops_issued();
  return n;
}

std::uint64_t CmpSystem::total_stall_cycles() const {
  std::uint64_t n = 0;
  for (const auto& core : cores_) n += core->stall_cycles();
  return n;
}

// ---------------------------------------------------------------------------
// Checkpoint/restore

template <class Ar>
void CmpSystem::visit_header(Ar& ar, std::uint64_t digest,
                             std::uint64_t& measured_done) {
  ar.expect(digest, "cell digest");
  ar(measured_done, cycle_, next_hard_fault_);
  if (next_hard_fault_ > hard_schedule_.size())
    throw snap::SnapshotError("snapshot: hard-fault cursor out of range");
  ar(hard_faults_applied_, any_node_dead_, last_progress_sig_,
     activity_sig_at_progress_, last_progress_cycle_);
}

template <class Ar>
void CmpSystem::visit_body(Ar& ar) {
  ar(noc_stats_, cache_stats_);
  ar.expect(injector_ != nullptr, "fault-injector presence");
  if (injector_ != nullptr) ar(*injector_);
  ar.expect(tracer_ != nullptr, "tracer presence");
  if (tracer_ != nullptr) ar(*tracer_);
  ar.expect(checker_ != nullptr, "invariant-checker presence");
  if (checker_ != nullptr) ar(*checker_);
  ar(*network_);
  ar.each(l1s_);
  ar.each(l2s_);
  ar.each(mems_);
  ar.each(cores_);
}

void CmpSystem::save_snapshot(const std::string& path,
                              std::uint64_t measured_done,
                              std::uint64_t digest) const {
  // Saving only reads; the field lists are non-const to serve restore too.
  auto& self = const_cast<CmpSystem&>(*this);
  snap::Writer payload;
  self.visit_header(payload, digest, measured_done);
  noc::PacketTable table;
  snap::Writer body;
  body.packets = &table;
  self.visit_body(body);
  table.save_table(payload);
  payload.append(body);
  snap::write_snapshot_file(path, payload.data());
}

std::uint64_t CmpSystem::restore_snapshot(const std::string& path,
                                          std::uint64_t digest) {
  const std::vector<std::uint8_t> payload = snap::read_snapshot_file(path);
  snap::Reader r{std::span<const std::uint8_t>(payload)};
  std::uint64_t measured_done = 0;
  visit_header(r, digest, measured_done);
  noc::PacketTable table;
  table.load_table(r);
  visit_body(r);
  r.expect_end();
  return measured_done;
}

}  // namespace disco::cmp
