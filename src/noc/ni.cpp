#include "noc/ni.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "noc/packet_pool.h"
#include "noc/router.h"

namespace disco::noc {

NetworkInterface::NetworkInterface(NodeId node, const NocConfig& cfg,
                                   NiPolicy policy, NocStats& stats)
    : node_(node), cfg_(cfg), policy_(policy), stats_(stats),
      credits_in_(cfg.num_vcs() * cfg.vc_depth_flits) {
  vc_credits_.assign(cfg_.num_vcs(), cfg_.vc_depth_flits);
  vc_taken_.assign(cfg_.num_vcs(), 0);
}

void NetworkInterface::inject(PacketPtr pkt, Cycle now, Cycle extra_delay) {
  if (fault_mode() && pkt->has_data && !pkt->crc_valid) {
    pkt->payload_crc = fault::checksum(
        std::span<const std::uint8_t>(pkt->data), injector_->config().crc);
    pkt->crc_valid = true;
  }
  Cycle ready = now + extra_delay;
  bool codec_ok = !bypass_;
  if (degraded_ && topo_ != nullptr && pkt->has_data &&
      !topo_->engine_alive(pkt->dst) && consumer_decodes(*pkt)) {
    // The destination NI can no longer decode: this block must travel (and
    // stay) raw end to end, so in-network engines must leave it alone too.
    pkt->compressible = false;
    codec_ok = false;
  }
  // Retransmission clones (retransmit_of set) always travel raw.
  if (codec_ok && policy_.compress_on_inject && pkt->has_data &&
      !pkt->compressed() && pkt->retransmit_of == 0) {
    assert(policy_.algo != nullptr);
    compress::Encoded enc = policy_.algo->compress(pkt->data);
    ++stats_.ni_compressions;
    stats_.exposed_comp_cycles += policy_.comp_cycles;
    ready += policy_.comp_cycles;
    if (enc.size() < kBlockBytes) pkt->apply_compression(std::move(enc));
    // Incompressible blocks travel raw; the compression attempt still cost
    // the pipeline latency and energy.
  }
  if (tracer_ != nullptr)
    tracer_->emit(now, node_, trace::Event::NiInject, 0, 0, pkt->id,
                  static_cast<std::int64_t>(pkt->vnet));
  inject_q_[static_cast<std::size_t>(pkt->vnet)].push_back(
      {std::move(pkt), ready, now});
  if (wake_self_ != nullptr) *wake_self_ = 1;
}

void NetworkInterface::pump_source_compression(Cycle now) {
  if (bypass_) return;  // the tile's compression hardware is dead
  // One engine operation per cycle: find the oldest queued compressible
  // packet whose wait already covers the compression latency.
  PendingInject* best = nullptr;
  for (auto& q : inject_q_) {
    for (auto& entry : q) {
      PacketPtr& pkt = entry.pkt;
      if (!pkt->has_data || !pkt->compressible || pkt->compressed() ||
          pkt->comp_failed) {
        continue;
      }
      if (now < entry.queued_at + policy_.comp_cycles) continue;
      if (best == nullptr || entry.queued_at < best->queued_at) best = &entry;
    }
  }
  // The engine may have quarantined itself after repeated decode errors.
  if (best == nullptr || (engine_ != nullptr && engine_->out_of_service())) return;
  assert(policy_.algo != nullptr);
  // This runs on the tile's DISCO engine, so it takes the same transient
  // stall and silent output faults as an in-router operation
  // (DiscoUnit::start): a stall holds the packet until the engine is done.
  if (fault_mode() && injector_->should_stall_engine())
    best->ready_at = std::max(best->ready_at, now + injector_->config().engine_stall_cycles);
  compress::Encoded enc = policy_.algo->compress(best->pkt->data);
  ++stats_.source_compressions;
  if (enc.size() < kBlockBytes) {
    if (fault_mode()) injector_->corrupt_engine_output(enc.bytes);
    best->pkt->apply_compression(std::move(enc));
  } else {
    best->pkt->comp_failed = true;
  }
}

[[gnu::always_inline]] inline void NetworkInterface::pump_credits(Cycle now) {
  for (const std::uint8_t vc : credits_in_.take(now)) {
    assert(vc < vc_credits_.size());
    ++vc_credits_[vc];
    if (tracer_ != nullptr)
      tracer_->emit(now, node_, trace::Event::NiCreditRecv, 0, vc, 0, 0);
  }
}

bool NetworkInterface::consumer_decodes(const Packet& pkt) const {
  return policy_.decompress_on_eject_all ||
         (policy_.decompress_for_raw_consumers &&
          pkt.dst_unit != UnitKind::L2Bank);
}

[[gnu::always_inline]] inline void NetworkInterface::pump_ejection(Cycle now) {
  Flit* f = from_router_.take(now);
  if (f == nullptr) return;
  if (tracer_ != nullptr)
    tracer_->emit(now, node_, trace::Event::NiFlitEject, 0, f->vc_tag,
                  f->pkt->id, static_cast<std::int64_t>(f->seq));
  const bool dup = fault_mode() && injector_->should_duplicate_flit();
  reassemble(*f, now);
  if (dup) reassemble(*f, now);  // exercises the dedup path
  f->pkt.reset();  // the wire slot must not pin the packet
}

void NetworkInterface::reassemble(const Flit& f, Cycle now) {
  const PacketId id = f.pkt->id;
  const bool fault = fault_mode();
  if (fault && completed_.count(id) > 0) {
    ++stats_.duplicate_flits_dropped;
    return;
  }
  Reassembly& r = reassembly_[id];
  if (fault) {
    // Flit dedup and the loss-timeout clock; fault-free entries stay bare.
    if (r.pkt == nullptr) {
      r.pkt = f.pkt;
      r.first = now;
    }
    const std::uint64_t bit = 1ULL << (f.seq & 63U);
    if (r.seen_mask & bit) {
      ++stats_.duplicate_flits_dropped;
      return;
    }
    r.seen_mask |= bit;
  }
  if (++r.have < f.pkt->flit_count()) return;
  reassembly_.erase(id);
  if (fault) completed_.insert(id);
  if (tracer_ != nullptr)
    tracer_->emit(now, node_, trace::Event::NiReassembled, 0, 0, id,
                  static_cast<std::int64_t>(f.pkt->flit_count()));
  finish_ejection(f.pkt, now);
}

void NetworkInterface::finish_ejection(PacketPtr pkt, Cycle now) {
  const bool fault = fault_mode();
  const bool decode_here = pkt->compressed() && consumer_decodes(*pkt);
  if (fault && bypass_ && decode_here) {
    // A compressed block reached a consumer whose decoder is dead (it was
    // in flight when the engine failed): ask the source for a raw copy.
    if (pkt->retransmit_of != 0 && parked_.count(pkt->retransmit_of) == 0) {
      ++stats_.duplicate_retransmissions;
      return;
    }
    ++stats_.bypass_retransmits;
    park_and_nack(std::move(pkt), now);
    return;
  }
  // Fault mode verifies every data packet end to end; a fault-free NI
  // decodes only what its consumer needs raw, and that decode must be exact.
  fault::DecodeCheck check = fault::DecodeCheck::Ok;
  if (pkt->compressed() && (fault || decode_here)) {
    assert(policy_.algo != nullptr);
    check = fault::checked_decode(
        *policy_.algo, std::span<const std::uint8_t>(pkt->encoded->bytes),
        pkt->data,
        pkt->crc_valid ? std::optional(pkt->payload_crc) : std::nullopt,
        fault ? injector_->config().crc : CrcMode::Crc32);
  }
  assert((fault || check == fault::DecodeCheck::Ok) &&
         "lossy de/compression in flight");
  if (fault) {
    if (pkt->has_data) {
      ++stats_.crc_checks;
      if (check == fault::DecodeCheck::SilentlyWrong)
        ++stats_.silent_corruptions;  // oracle only
      const bool ok =
          pkt->compressed()
              ? check != fault::DecodeCheck::Rejected
              : !pkt->crc_valid ||
                    fault::checksum(std::span<const std::uint8_t>(pkt->data),
                                    injector_->config().crc) == pkt->payload_crc;
      if (!ok) {
        ++stats_.corruptions_detected;
        if (pkt->retransmit_of != 0 &&
            parked_.count(pkt->retransmit_of) == 0) {
          // A corrupted clone for an already-resolved packet: drop it.
          ++stats_.duplicate_retransmissions;
          return;
        }
        park_and_nack(std::move(pkt), now);
        return;
      }
    }
    // Retransmission bookkeeping applies to every packet, not just
    // data-bearing ones: a severed/lost request (GetM, acks, ...) is
    // recovered by the same NACK-clone machinery, and a late second clone of
    // it must be dropped here or the consumer services the transaction twice.
    if (pkt->retransmit_of != 0) {
      // A good clone resolves the parked original (or is a late duplicate).
      const PacketId oid = pkt->retransmit_of;
      if (parked_.erase(oid) == 0) {
        ++stats_.duplicate_retransmissions;
        return;
      }
      reassembly_.erase(oid);
      completed_.insert(oid);
      forget_clones_of(oid);
      ++stats_.retransmit_deliveries;
    } else {
      // A parked original that completed intact after all (spurious loss
      // timeout): deliver it; the clone will arrive as a duplicate.
      parked_.erase(pkt->id);
    }
  }

  Cycle deliver_at = now;
  if (decode_here) {
    pkt->encoded.reset();
    ++stats_.ni_decompressions;
    stats_.exposed_decomp_cycles += policy_.decomp_cycles;
    deliver_at += policy_.decomp_cycles;
  } else if (!pkt->compressed() && pkt->has_data && pkt->was_compressed &&
             pkt->dst_unit != UnitKind::L2Bank) {
    // A once-compressed packet arriving raw at a consumer: the in-network
    // decompression latency was fully hidden by queuing time.
    ++stats_.hidden_decomp_ops;
  }
  delivery_.push_back({std::move(pkt), deliver_at});
}

void NetworkInterface::park_and_nack(PacketPtr pkt, Cycle now) {
  const PacketId oid = pkt->retransmit_of != 0 ? pkt->retransmit_of : pkt->id;
  auto [it, inserted] = parked_.try_emplace(oid);
  Parked& p = it->second;
  if (inserted) p.pkt = std::move(pkt);
  // A dead or cut-off source can never answer a NACK: leave the entry for
  // scan_recovery, which falls back to a ground-truth delivery immediately
  // instead of burning the whole retry budget against a dead sink.
  if (degraded_ && peer_unreachable(*p.pkt)) return;
  if (p.retries < injector_->config().max_retries) send_nack(oid, p, now);
}

void NetworkInterface::send_nack(PacketId oid, Parked& parked, Cycle now) {
  ++parked.retries;
  parked.last_nack = now;
  auto nack = make_packet();
  nack->id = mint_ctrl_id();
  nack->src = node_;
  nack->dst = parked.pkt->src;
  nack->src_unit = parked.pkt->dst_unit;
  nack->dst_unit = parked.pkt->src_unit;
  nack->vnet = VNet::Coherence;
  nack->addr = parked.pkt->addr;
  nack->critical = true;
  nack->nack_for = oid;
  nack->nack_ref = packet_pool().handle_of(parked.pkt.get());
  nack->retry = parked.retries;
  nack->created = now;
  ++stats_.nacks_sent;
  inject(std::move(nack), now);
}

void NetworkInterface::handle_nack(const PacketPtr& nack, Cycle now) {
  const FaultConfig& fc = injector_->config();
  if (nack->retry > fc.max_retries) return;
  // The handle is non-owning: if the receiver already resolved its parked
  // entry (fallback delivery, dead peer, completed recovery) the slot was
  // freed and resolve() returns null — a retransmission would only be
  // dropped as a duplicate there, so skip it.
  const PacketPtr ref = packet_pool().resolve(nack->nack_ref);
  if (ref == nullptr) return;
  auto clone = make_packet();
  clone->id = mint_clone_id();
  clone->src = ref->src;
  clone->dst = ref->dst;
  clone->src_unit = ref->src_unit;
  clone->dst_unit = ref->dst_unit;
  clone->vnet = ref->vnet;
  clone->proto_msg = ref->proto_msg;
  clone->addr = ref->addr;
  clone->has_data = ref->has_data;
  clone->compressible = false;  // retransmit raw for maximum robustness
  clone->critical = ref->critical;
  clone->from_dram = ref->from_dram;
  clone->data = ref->data;
  clone->retry = nack->retry;
  clone->retransmit_of = ref->retransmit_of != 0 ? ref->retransmit_of : ref->id;
  clone->created = now;
  const Cycle backoff = static_cast<Cycle>(fc.retransmit_backoff_base)
                        << (nack->retry - 1);
  stats_.backoff_cycles += backoff;
  ++stats_.retransmissions;
  inject(std::move(clone), now, backoff);
}

void NetworkInterface::scan_recovery(Cycle now) {
  const FaultConfig& fc = injector_->config();
  // Both passes have side effects whose order is observable (ctrl-id minting,
  // delivery_ append order), so they walk the tables in sorted key order:
  // unordered_map iteration order is an implementation detail that must not
  // leak into the simulated schedule.
  std::vector<PacketId> keys;
  keys.reserve(reassembly_.size());
  for (const auto& [id, r] : reassembly_) keys.push_back(id);
  std::sort(keys.begin(), keys.end());
  // Loss timeouts: a reassembly that has been waiting longer than any
  // congestion plausibly explains lost a flit in the network.
  for (const PacketId id : keys) {
    const auto it = reassembly_.find(id);
    if (it == reassembly_.end()) continue;
    Reassembly& r = it->second;
    if (r.nacked || r.pkt == nullptr ||
        now - r.first <= fc.reassembly_timeout_cycles) {
      continue;
    }
    if (r.pkt->retransmit_of != 0 && parked_.count(r.pkt->retransmit_of) == 0) {
      // Straggler clone of an already-resolved packet: discard, never
      // re-park (a re-park would eventually deliver the block twice).
      ++stats_.duplicate_retransmissions;
      reassembly_.erase(it);
      continue;
    }
    r.nacked = true;
    ++stats_.flit_loss_timeouts;
    park_and_nack(r.pkt, now);
  }
  // Parked packets: re-NACK periodically; after max_retries, fall back to
  // delivering the ground-truth block so the protocol stays live. Fallback
  // deliveries are the "unrecovered" population of the acceptance criteria.
  keys.clear();
  keys.reserve(parked_.size());
  for (const auto& [id, p] : parked_) keys.push_back(id);
  std::sort(keys.begin(), keys.end());
  for (const PacketId oid : keys) {
    const auto it = parked_.find(oid);
    if (it == parked_.end()) continue;
    Parked& p = it->second;
    const bool dead_peer = degraded_ && peer_unreachable(*p.pkt);
    if (!dead_peer && now - p.last_nack <= fc.nack_retry_interval) continue;
    if (dead_peer || p.retries >= fc.max_retries) {
      PacketPtr pkt = std::move(p.pkt);
      parked_.erase(it);
      reassembly_.erase(oid);
      completed_.insert(oid);
      forget_clones_of(oid);
      pkt->encoded.reset();
      ++stats_.unrecovered_deliveries;
      delivery_.push_back({std::move(pkt), now});
      continue;
    }
    send_nack(oid, p, now);
  }
}

void NetworkInterface::forget_clones_of(PacketId oid) {
  // Partial reassemblies of other clones of the same packet will never
  // complete usefully; drop them so the NI can go idle. Any of their flits
  // still in flight re-create an entry that the timeout scan discards.
  for (auto it = reassembly_.begin(); it != reassembly_.end();) {
    if (it->second.pkt != nullptr && it->second.pkt->retransmit_of == oid) {
      it = reassembly_.erase(it);
    } else {
      ++it;
    }
  }
}

[[gnu::always_inline]] inline void NetworkInterface::pump_delivery(Cycle now) {
  for (std::size_t i = 0; i < delivery_.size();) {
    if (delivery_[i].deliver_at > now) {
      ++i;
      continue;
    }
    PacketPtr pkt = std::move(delivery_[i].pkt);
    delivery_[i] = std::move(delivery_.back());
    delivery_.pop_back();

    pkt->ejected = now;
    ++stats_.packets_ejected;
    stats_.packet_latency[static_cast<std::size_t>(pkt->vnet)].add(
        static_cast<double>(now - pkt->injected));
    stats_.queueing_cycles.add(pkt->idle_cycles);
    if (tracer_ != nullptr)
      tracer_->emit(now, node_, trace::Event::NiDeliver, 0, 0, pkt->id,
                    static_cast<std::int64_t>(now - pkt->injected));

    if (pkt->nack_for != 0) {
      // Recovery control packet: consumed by the NI itself.
      handle_nack(pkt, now);
      continue;
    }

    if (degraded_ && topo_ != nullptr &&
        !topo_->unit_alive(node_, pkt->dst_unit)) {
      // The consuming unit died while the packet sat in the delivery queue.
      ++stats_.dead_component_drops;
      if (doomed_cb_) doomed_cb_(pkt, now);
      continue;
    }

    PacketSink* sink = sinks_[static_cast<std::size_t>(pkt->dst_unit)];
    assert(sink != nullptr && "packet delivered to unregistered unit");
    sink->deliver(std::move(pkt), now);
  }
}

[[gnu::always_inline]] inline void NetworkInterface::pump_injection(Cycle now) {
  // Start new sends: allocate a free VC in the vnet's range for queue heads.
  for (std::size_t vn = 0; vn < kNumVNets; ++vn) {
    if (active_[vn].has_value()) continue;
    auto& q = inject_q_[vn];
    if (degraded_) {
      // Never start a send that provably cannot be delivered: drop at the
      // source instead of hanging the network until the watchdog trips.
      while (!q.empty() && q.front().ready_at <= now &&
             dest_doomed(*q.front().pkt)) {
        drop_doomed(q.front().pkt, now);
        q.pop_front();
      }
    }
    if (q.empty() || q.front().ready_at > now) continue;
    const std::uint32_t lo = static_cast<std::uint32_t>(vn) * cfg_.vcs_per_vnet;
    const std::uint32_t hi = lo + cfg_.vcs_per_vnet;
    for (std::uint32_t v = lo; v < hi; ++v) {
      if (vc_taken_[v] != 0) continue;
      vc_taken_[v] = 1;
      active_[vn] = ActiveSend{std::move(q.front().pkt), static_cast<std::uint8_t>(v), 0};
      q.pop_front();
      break;
    }
  }

  // One flit per cycle across all vnets, round-robin.
  if (to_router_ == nullptr) return;
  for (std::size_t i = 0; i < kNumVNets; ++i) {
    const std::size_t vn = rr_vnet_ + i < kNumVNets ? rr_vnet_ + i : rr_vnet_ + i - kNumVNets;
    if (!active_[vn].has_value()) continue;
    ActiveSend& send = *active_[vn];
    std::uint32_t needed = 1;
    if (cfg_.flow_control == FlowControl::VirtualCutThrough &&
        send.next_seq == 0) {
      needed = send.pkt->flit_count();
    }
    if (vc_credits_[send.vc] < needed) continue;

    if (tracer_ != nullptr)
      tracer_->emit(now, node_, trace::Event::NiFlitInject, 0, send.vc,
                    send.pkt->id, static_cast<std::int64_t>(send.next_seq));
    to_router_->push(now, Flit{send.pkt, send.next_seq, send.vc, 0});
    --vc_credits_[send.vc];
    ++stats_.flits_injected;
    if (send.next_seq == 0) {
      send.pkt->injected = now;
      ++stats_.packets_injected;
    }
    ++send.next_seq;
    if (send.next_seq == send.pkt->flit_count()) {
      vc_taken_[send.vc] = 0;
      active_[vn].reset();
    }
    rr_vnet_ = vn + 1 == kNumVNets ? 0 : static_cast<std::uint32_t>(vn + 1);
    break;
  }
}

// The per-cycle pumps above are inlined into tick().
void NetworkInterface::tick(Cycle now) {
  pump_credits(now);
  pump_ejection(now);
  pump_delivery(now);
  if (fault_mode()) scan_recovery(now);
  if (policy_.compress_when_source_queued) pump_source_compression(now);
  pump_injection(now);
}

bool NetworkInterface::idle() const {
  if (!reassembly_.empty() || !delivery_.empty() || !parked_.empty())
    return false;
  for (const auto& q : inject_q_)
    if (!q.empty()) return false;
  for (const auto& a : active_)
    if (a.has_value()) return false;
  return true;
}

std::size_t NetworkInterface::pending_injections() const {
  std::size_t n = 0;
  for (const auto& q : inject_q_) n += q.size();
  return n;
}

bool NetworkInterface::dest_doomed(const Packet& pkt) const {
  if (topo_ == nullptr) return false;
  return !topo_->unit_alive(pkt.dst, pkt.dst_unit) ||
         !topo_->reachable(node_, pkt.dst);
}

bool NetworkInterface::peer_unreachable(const Packet& pkt) const {
  if (topo_ == nullptr) return false;
  return !topo_->unit_alive(pkt.src, pkt.src_unit) ||
         !topo_->reachable(node_, pkt.src);
}

void NetworkInterface::drop_doomed(const PacketPtr& pkt, Cycle now) {
  ++stats_.unreachable_drops;
  if (tracer_ != nullptr)
    tracer_->emit(now, node_, trace::Event::TopoUnreachable, 0, 0, pkt->id,
                  static_cast<std::int64_t>(pkt->dst));
  if (pkt->nack_for == 0 && doomed_cb_) doomed_cb_(pkt, now);
}

void NetworkInterface::set_bypass(Cycle now) {
  if (bypass_) return;
  bypass_ = true;
  if (tracer_ != nullptr)
    tracer_->emit(now, node_, trace::Event::TopoBypass, 0, 0, 0, 0);
}

void NetworkInterface::note_severed(const PacketPtr& pkt, Cycle now) {
  if (!fault_mode() || pkt->nack_for != 0) return;
  const PacketId oid = pkt->retransmit_of != 0 ? pkt->retransmit_of : pkt->id;
  if (completed_.count(pkt->id) > 0 || completed_.count(oid) > 0) return;
  if (parked_.count(oid) > 0) return;  // recovery already running
  Reassembly& r = reassembly_[pkt->id];
  if (r.pkt == nullptr) {
    r.pkt = pkt;
    r.first = now;
  }
}

void NetworkInterface::note_external_completion(PacketId oid) {
  if (!fault_mode()) return;
  completed_.insert(oid);
  parked_.erase(oid);
  reassembly_.erase(oid);
  forget_clones_of(oid);
}

void NetworkInterface::on_topology_change(Cycle now) {
  if (!degraded_) return;
  for (auto& q : inject_q_) {
    for (auto it = q.begin(); it != q.end();) {
      if (dest_doomed(*it->pkt)) {
        drop_doomed(it->pkt, now);
        it = q.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Active sends whose packet was condemned or doomed stop mid-stream; the
  // flits already pushed are destroyed by the routers' filters/scrubs.
  for (auto& a : active_) {
    if (!a.has_value()) continue;
    const PacketPtr& pkt = a->pkt;
    const bool cond = condemned_ != nullptr && condemned_->count(pkt->id) > 0;
    const bool doomed = dest_doomed(*pkt);
    if (!cond && !doomed) continue;
    if (doomed && !cond) drop_doomed(pkt, now);
    vc_taken_[a->vc] = 0;
    a.reset();
  }
}

void NetworkInterface::collect_dead_orphans(std::vector<PacketPtr>& out) {
  for (auto& q : inject_q_) {
    for (auto& e : q) out.push_back(std::move(e.pkt));
    q.clear();
  }
  for (auto& a : active_) {
    if (a.has_value()) out.push_back(std::move(a->pkt));
    a.reset();
  }
  for (auto& d : delivery_) out.push_back(std::move(d.pkt));
  delivery_.clear();
  // Surrender recovery-table packets in sorted id order: the caller
  // resolves these orphans with further side effects, so hash-table
  // iteration order must not leak into the schedule.
  std::vector<PacketId> keys;
  keys.reserve(reassembly_.size());
  for (const auto& [id, r] : reassembly_) keys.push_back(id);
  std::sort(keys.begin(), keys.end());
  for (const PacketId id : keys) {
    Reassembly& r = reassembly_.at(id);
    if (r.pkt != nullptr) out.push_back(std::move(r.pkt));
  }
  reassembly_.clear();
  keys.clear();
  keys.reserve(parked_.size());
  for (const auto& [id, p] : parked_) keys.push_back(id);
  std::sort(keys.begin(), keys.end());
  for (const PacketId id : keys) out.push_back(std::move(parked_.at(id).pkt));
  parked_.clear();
  std::fill(vc_taken_.begin(), vc_taken_.end(), 0);
}

}  // namespace disco::noc
