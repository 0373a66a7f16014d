#include "cache/l2_bank.h"

#include <algorithm>
#include <cassert>
#include <span>

#include "noc/snapshot.h"

namespace disco::cache {

L2Bank::L2Bank(NodeId node, const L2Config& cfg, L2BankPolicy policy,
               const compress::Algorithm* algo, std::uint64_t bank_size_bytes,
               std::uint32_t index_shift, noc::NetworkInterface& ni,
               std::function<NodeId(Addr)> mem_node_of, CacheStats& stats)
    : node_(node),
      cfg_(cfg),
      policy_(policy),
      algo_(algo),
      mem_node_of_(std::move(mem_node_of)),
      stats_(stats),
      array_(bank_size_bytes, cfg.ways,
             policy.store_compressed ? cfg.tag_factor : 1, index_shift),
      out_(ni) {
  assert((!policy_.store_compressed || algo_ != nullptr) &&
         "compressed bank needs an algorithm");
}

void L2Bank::send(Msg m, Addr addr, NodeId dst, UnitKind dst_unit, Cycle now,
                  std::uint32_t delay, const BlockBytes* data,
                  const std::optional<compress::Encoded>* wire) {
  noc::PacketPtr pkt = make_packet(out_.ni().mint_protocol_id(), m, addr,
                                   node_, UnitKind::L2Bank, dst, dst_unit, now);
  if (data != nullptr) pkt->data = *data;
  if (wire != nullptr && wire->has_value()) {
    pkt->encoded = **wire;
    pkt->was_compressed = true;
  }
  out_.schedule(std::move(pkt), now + delay);
}

std::optional<compress::Encoded> L2Bank::encode_for_store(
    const BlockBytes& data, const std::optional<compress::Encoded>& wire) {
  if (!policy_.store_compressed) return std::nullopt;
  if (wire.has_value()) return wire;  // reuse the network-compressed image
  ++stats_.bank_compressions;
  compress::Encoded enc = algo_->compress(data);
  if (enc.size() >= kBlockBytes) return std::nullopt;  // stored raw
  return enc;
}

bool L2Bank::set_line_data(L2Line& line, const BlockBytes& data, bool dirty,
                           const std::optional<compress::Encoded>& wire, Cycle now) {
  std::optional<compress::Encoded> enc = encode_for_store(data, wire);
  const std::uint32_t new_segs =
      enc ? SegmentedArray::segments_for(enc->size())
          : static_cast<std::uint32_t>(kBlockBytes / kFlitBytes);
  if (new_segs > line.segments &&
      array_.free_segments(line.addr) < new_segs - line.segments) {
    return false;  // fat update: the set must shed another line first
  }
  array_.resize(line, new_segs);
  line.data = data;
  line.stored = std::move(enc);
  line.dirty = line.dirty || dirty;
  line.lru = now;
  ++stats_.l2_array_writes;
  stats_.stored_line_bytes.add(line.stored
                                   ? static_cast<double>(line.stored->size())
                                   : static_cast<double>(kBlockBytes));
  if (tracer_ != nullptr)
    tracer_->emit(now, node_, trace::Event::L2Fill, 0, 0, line.addr,
                  static_cast<std::int64_t>(
                      line.stored ? line.stored->size() : kBlockBytes));
  return true;
}

// ---------------------------------------------------------------------------
// Delivery dispatch

void L2Bank::deliver(noc::PacketPtr pkt, Cycle now) {
  switch (msg_of(*pkt)) {
    case Msg::GetS:
    case Msg::GetM:
      handle_request(std::move(pkt), now);
      break;
    case Msg::PutM:
    case Msg::PutE:
      handle_put(std::move(pkt), now);
      break;
    case Msg::InvAck:
    case Msg::RecallData:
    case Msg::RecallAck:
      handle_ack(std::move(pkt), now);
      break;
    case Msg::MemData:
      handle_mem_data(std::move(pkt), now);
      break;
    default:
      assert(false && "unexpected message at L2 bank");
  }
}

void L2Bank::handle_request(noc::PacketPtr pkt, Cycle now) {
  const Addr a = pkt->addr;
  if (auto it = txns_.find(a); it != txns_.end()) {
    it->second.queue.push_back(std::move(pkt));  // serialized behind busy block
    return;
  }
  Txn& t = txns_[a];
  t.kind = Txn::Kind::Request;
  t.addr = a;
  t.req = std::move(pkt);
  start_request(t, now);
}

void L2Bank::start_request(Txn& t, Cycle now) {
  const Addr a = t.addr;
  L2Line* line = array_.lookup(a);
  ++stats_.l2_array_reads;

  if (line == nullptr) {
    ++stats_.l2_misses;
    t.phase = Txn::Phase::MemWait;
    send(Msg::MemRead, a, mem_node_of_(a), UnitKind::MemCtrl, now, cfg_.hit_latency);
    return;
  }

  ++stats_.l2_hits;
  line->busy = true;
  line->lru = now;
  const NodeId requester = t.req->src;

  if (line->dir.kind == DirInfo::Kind::Excl) {
    // Home-mediated downgrade — also when the owner itself re-requests (its
    // writeback is in flight; the recall answers from its eviction buffer).
    ++stats_.recalls_sent;
    t.phase = Txn::Phase::RecallWait;
    send(Msg::Recall, a, line->dir.owner, UnitKind::Core, now, 1);
    return;
  }

  if (msg_of(*t.req) == Msg::GetM && line->dir.kind == DirInfo::Kind::Shared) {
    DirInfo others = line->dir;
    others.remove_sharer(requester);
    if (others.sharer_count() > 0) {
      t.phase = Txn::Phase::InvWait;
      t.pending_acks = others.sharer_count();
      for (NodeId n = 0; n < 64; ++n) {
        if (others.is_sharer(n)) {
          ++stats_.invalidations_sent;
          send(Msg::Inv, a, n, UnitKind::Core, now, 1);
        }
      }
      return;
    }
  }
  grant(t, now);
}

void L2Bank::handle_put(noc::PacketPtr pkt, Cycle now) {
  const Addr a = pkt->addr;
  const NodeId sender = pkt->src;
  const Msg m = msg_of(*pkt);

  if (txns_.count(a) != 0) {
    // Block busy: an in-flight recall already captured (or will capture)
    // this data from the sender's eviction buffer — the writeback is stale.
    send(Msg::WBAck, a, sender, UnitKind::Core, now, 1);
    return;
  }
  L2Line* line = array_.lookup(a);
  if (line == nullptr || line->dir.kind != DirInfo::Kind::Excl ||
      line->dir.owner != sender) {
    send(Msg::WBAck, a, sender, UnitKind::Core, now, 1);  // stale writeback
    return;
  }

  line->dir = DirInfo{};
  if (m == Msg::PutE) {
    send(Msg::WBAck, a, sender, UnitKind::Core, now, 1);
    return;
  }

  // PutM: absorb the dirty data (may grow the stored footprint).
  Txn& t = txns_[a];
  t.kind = Txn::Kind::PutAbsorb;
  t.addr = a;
  t.req = pkt;
  line->busy = true;
  if (set_line_data(*line, pkt->data, true, pkt->encoded, now)) {
    send(Msg::WBAck, a, sender, UnitKind::Core, now, cfg_.hit_latency);
    finish(t, now);
    return;
  }
  t.data = pkt->data;
  t.wire = pkt->encoded;
  t.phase = Txn::Phase::SpaceWait;
  t.after_space = Txn::After::AbsorbPut;
  space_waiters_.push_back(a);
}

void L2Bank::handle_ack(noc::PacketPtr pkt, Cycle now) {
  const Addr a = pkt->addr;
  auto it = txns_.find(a);
  assert(it != txns_.end() && "ack without a transaction");
  Txn& t = it->second;
  const Msg m = msg_of(*pkt);

  if (m == Msg::InvAck) {
    assert(t.phase == Txn::Phase::InvWait && t.pending_acks > 0);
    if (--t.pending_acks > 0) return;
  } else {
    assert(t.phase == Txn::Phase::RecallWait);
    if (m == Msg::RecallData) {
      t.data = pkt->data;
      t.have_data = true;
      t.data_dirty = true;
      t.wire = pkt->encoded;
    }
  }

  L2Line* line = array_.lookup(a);
  assert(line != nullptr && line->busy);

  if (t.kind == Txn::Kind::Eviction) {
    if (t.have_data) {
      line->data = t.data;
      line->dirty = true;
      line->stored.reset();  // about to leave; raw writeback below
    }
    // Fall through to writeback+erase.
    const bool dirty = line->dirty;
    const BlockBytes data = line->data;
    const Addr parent = t.parent;
    std::deque<noc::PacketPtr> queue = std::move(t.queue);
    array_.erase(a);
    ++stats_.l2_evictions;
    if (tracer_ != nullptr)
      tracer_->emit(now, node_, trace::Event::L2Evict, 0, 0, a,
                    dirty ? 1 : 0);
    txns_.erase(it);
    if (dirty)
      send(Msg::MemWB, a, mem_node_of_(a), UnitKind::MemCtrl, now, 1, &data);
    for (auto& q : queue) replay_.push_back(std::move(q));
    resume_parent(parent, now);
    return;
  }

  // Request transaction resuming after recall/invalidation.
  line->dir = DirInfo{};
  if (t.have_data) {
    if (!set_line_data(*line, t.data, true, t.wire, now)) {
      t.phase = Txn::Phase::SpaceWait;
      t.after_space = Txn::After::UpdateThenGrant;
      space_waiters_.push_back(a);
      return;
    }
  }
  grant(t, now);
}

void L2Bank::handle_mem_data(noc::PacketPtr pkt, Cycle now) {
  const Addr a = pkt->addr;
  auto it = txns_.find(a);
  assert(it != txns_.end() && it->second.phase == Txn::Phase::MemWait);
  Txn& t = it->second;
  t.data = pkt->data;
  t.wire = pkt->encoded;
  t.have_data = true;
  t.filled_from_mem = true;
  t.phase = Txn::Phase::SpaceWait;
  t.after_space = Txn::After::InstallFill;
  advance_space_wait(t, now);
  // advance_space_wait may have completed (and erased) the transaction.
  if (auto again = txns_.find(a);
      again != txns_.end() && again->second.phase == Txn::Phase::SpaceWait) {
    space_waiters_.push_back(a);
  }
}

// ---------------------------------------------------------------------------
// Space management and evictions

bool L2Bank::ensure_space(Txn& t, std::uint32_t extra_segments, Cycle now) {
  const bool need_tag =
      t.after_space == Txn::After::InstallFill && array_.lookup(t.addr) == nullptr;
  if ((!need_tag || array_.has_free_tag(t.addr)) &&
      array_.free_segments(t.addr) >= extra_segments) {
    return true;
  }
  L2Line* victim = array_.lru_victim(t.addr, t.addr);
  if (victim == nullptr) return false;  // every line busy: retry next tick

  const Addr vaddr = victim->addr;
  assert(txns_.count(vaddr) == 0 && "non-busy line with a live transaction");
  Txn& ev = txns_[vaddr];
  ev.kind = Txn::Kind::Eviction;
  ev.addr = vaddr;
  ev.parent = t.addr;
  start_eviction(ev, now);
  return false;
}

void L2Bank::start_eviction(Txn& t, Cycle now) {
  L2Line* line = array_.lookup(t.addr);
  assert(line != nullptr && !line->busy);
  line->busy = true;

  if (line->dir.kind == DirInfo::Kind::Excl) {
    ++stats_.recalls_sent;
    t.phase = Txn::Phase::RecallWait;
    send(Msg::Recall, t.addr, line->dir.owner, UnitKind::Core, now, 1);
    return;
  }
  if (line->dir.kind == DirInfo::Kind::Shared && line->dir.sharer_count() > 0) {
    t.phase = Txn::Phase::InvWait;
    t.pending_acks = line->dir.sharer_count();
    for (NodeId n = 0; n < 64; ++n) {
      if (line->dir.is_sharer(n)) {
        ++stats_.invalidations_sent;
        send(Msg::Inv, t.addr, n, UnitKind::Core, now, 1);
      }
    }
    return;
  }

  // No L1 copies: write back and vanish immediately.
  const bool dirty = line->dirty;
  const BlockBytes data = line->data;
  const Addr a = t.addr;
  const Addr parent = t.parent;
  std::deque<noc::PacketPtr> queue = std::move(t.queue);
  array_.erase(a);
  ++stats_.l2_evictions;
  if (tracer_ != nullptr)
    tracer_->emit(now, node_, trace::Event::L2Evict, 0, 0, a, dirty ? 1 : 0);
  txns_.erase(a);
  if (dirty) send(Msg::MemWB, a, mem_node_of_(a), UnitKind::MemCtrl, now, 1, &data);
  for (auto& q : queue) replay_.push_back(std::move(q));
  resume_parent(parent, now);
}

void L2Bank::resume_parent(Addr parent, Cycle now) {
  if (parent == ~Addr{0}) return;
  auto it = txns_.find(parent);
  if (it == txns_.end()) return;
  if (it->second.phase == Txn::Phase::SpaceWait) advance_space_wait(it->second, now);
}

void L2Bank::advance_space_wait(Txn& t, Cycle now) {
  const Addr a = t.addr;
  switch (t.after_space) {
    case Txn::After::InstallFill: {
      std::optional<compress::Encoded> enc = encode_for_store(t.data, t.wire);
      const std::uint32_t segs =
          enc ? SegmentedArray::segments_for(enc->size())
              : static_cast<std::uint32_t>(kBlockBytes / kFlitBytes);
      if (!ensure_space(t, segs, now)) return;  // still waiting
      L2Line& line = array_.install(a, segs, now);
      line.busy = true;
      line.data = t.data;
      line.stored = std::move(enc);
      line.dirty = false;
      ++stats_.l2_fills;
      ++stats_.l2_array_writes;
      stats_.stored_line_bytes.add(
          line.stored ? static_cast<double>(line.stored->size())
                      : static_cast<double>(kBlockBytes));
      if (tracer_ != nullptr)
        tracer_->emit(now, node_, trace::Event::L2Fill, 0, 0, line.addr,
                      static_cast<std::int64_t>(
                          line.stored ? line.stored->size() : kBlockBytes));
      grant(t, now);
      return;
    }
    case Txn::After::UpdateThenGrant: {
      L2Line* line = array_.lookup(a);
      assert(line != nullptr);
      std::optional<compress::Encoded> enc = encode_for_store(t.data, t.wire);
      const std::uint32_t segs =
          enc ? SegmentedArray::segments_for(enc->size())
              : static_cast<std::uint32_t>(kBlockBytes / kFlitBytes);
      const std::uint32_t extra = segs > line->segments ? segs - line->segments : 0;
      if (!ensure_space(t, extra, now)) return;
      const bool ok = set_line_data(*line, t.data, true, t.wire, now);
      assert(ok);
      (void)ok;
      grant(t, now);
      return;
    }
    case Txn::After::AbsorbPut: {
      L2Line* line = array_.lookup(a);
      assert(line != nullptr);
      std::optional<compress::Encoded> enc = encode_for_store(t.data, t.wire);
      const std::uint32_t segs =
          enc ? SegmentedArray::segments_for(enc->size())
              : static_cast<std::uint32_t>(kBlockBytes / kFlitBytes);
      const std::uint32_t extra = segs > line->segments ? segs - line->segments : 0;
      if (!ensure_space(t, extra, now)) return;
      const bool ok = set_line_data(*line, t.data, true, t.wire, now);
      assert(ok);
      (void)ok;
      send(Msg::WBAck, a, t.req->src, UnitKind::Core, now, cfg_.hit_latency);
      finish(t, now);
      return;
    }
    case Txn::After::None:
      assert(false && "SpaceWait without a continuation");
  }
}

// ---------------------------------------------------------------------------
// Grant and completion

void L2Bank::grant(Txn& t, Cycle now) {
  L2Line* line = array_.lookup(t.addr);
  assert(line != nullptr && "grant without a resident line");
  const NodeId requester = t.req->src;
  const Msg req = msg_of(*t.req);

  Msg gm;
  if (req == Msg::GetS) {
    if (line->dir.kind == DirInfo::Kind::Shared && line->dir.sharer_count() > 0) {
      gm = Msg::DataS;
      line->dir.add_sharer(requester);
    } else {
      gm = Msg::DataE;  // sole copy: exclusive-clean grant
      line->dir = DirInfo{DirInfo::Kind::Excl, 0, requester};
    }
  } else {
    gm = Msg::DataM;
    line->dir = DirInfo{DirInfo::Kind::Excl, 0, requester};
  }

  std::uint32_t delay = cfg_.hit_latency;
  if (policy_.read_decomp_cycles > 0 && line->stored.has_value()) {
    delay += policy_.read_decomp_cycles;  // CC/CNC: bank-side decompression
    ++stats_.bank_decompressions;
  }
  const bool wire = policy_.inject_stored_wire && line->stored.has_value();
  noc::PacketPtr pkt = make_packet(out_.ni().mint_protocol_id(), gm, t.addr,
                                   node_, UnitKind::L2Bank, requester,
                                   UnitKind::Core, now);
  pkt->data = line->data;
  pkt->from_dram = t.filled_from_mem;
  if (wire) {
    pkt->encoded = *line->stored;
    pkt->was_compressed = true;
    // LLC fault site: a transient readout error corrupts the wire image
    // handed to the network; the stored line itself stays intact.
    if (policy_.injector != nullptr && policy_.injector->enabled())
      policy_.injector->corrupt_llc_payload(pkt->encoded->bytes);
  }
  out_.schedule(std::move(pkt), now + delay);
  finish(t, now);
}

void L2Bank::finish(Txn& t, Cycle now) {
  (void)now;
  if (L2Line* line = array_.lookup(t.addr)) line->busy = false;
  for (auto& q : t.queue) replay_.push_back(std::move(q));
  txns_.erase(t.addr);
}

void L2Bank::tick(Cycle now) {
  out_.tick(now);

  if (!replay_.empty()) {
    std::deque<noc::PacketPtr> batch = std::move(replay_);
    replay_.clear();
    for (auto& pkt : batch) handle_request(std::move(pkt), now);
  }

  if (!space_waiters_.empty()) {
    std::vector<Addr> still;
    std::vector<Addr> batch = std::move(space_waiters_);
    space_waiters_.clear();
    for (const Addr a : batch) {
      auto it = txns_.find(a);
      if (it == txns_.end() || it->second.phase != Txn::Phase::SpaceWait) continue;
      advance_space_wait(it->second, now);
      auto again = txns_.find(a);
      if (again != txns_.end() && again->second.phase == Txn::Phase::SpaceWait)
        still.push_back(a);
    }
    for (const Addr a : still) space_waiters_.push_back(a);
  }
}

bool L2Bank::idle() const { return txns_.empty() && replay_.empty() && out_.idle(); }

bool L2Bank::expects(Msg m, Addr addr) const {
  auto it = txns_.find(addr);
  if (it == txns_.end()) return false;
  const Txn& t = it->second;
  switch (m) {
    case Msg::InvAck:
      return t.phase == Txn::Phase::InvWait && t.pending_acks > 0;
    case Msg::RecallData:
    case Msg::RecallAck:
      return t.phase == Txn::Phase::RecallWait;
    case Msg::MemData:
      return t.phase == Txn::Phase::MemWait;
    default:
      return true;
  }
}

void L2Bank::hard_fail(std::vector<noc::PacketPtr>& orphans) {
  out_.take_all(orphans);
  // Surrender transactions in sorted address order: the caller resolves the
  // orphans with further side effects, so hash-table iteration order must
  // not leak into the simulated schedule.
  std::vector<Addr> keys;
  keys.reserve(txns_.size());
  for (const auto& [addr, t] : txns_) keys.push_back(addr);
  std::sort(keys.begin(), keys.end());
  for (const Addr addr : keys) {
    Txn& t = txns_.at(addr);
    if (t.req != nullptr) orphans.push_back(std::move(t.req));
    for (auto& q : t.queue) orphans.push_back(std::move(q));
  }
  for (auto& pkt : replay_) orphans.push_back(std::move(pkt));
  txns_.clear();
  replay_.clear();
  space_waiters_.clear();
}

void L2Bank::dump_transactions(std::FILE* out) const {
  static const char* kind_names[] = {"Request", "PutAbsorb", "Eviction"};
  static const char* phase_names[] = {"Start", "RecallWait", "InvWait",
                                      "MemWait", "SpaceWait"};
  for (const auto& [addr, t] : txns_) {
    std::fprintf(out,
                 "  bank %u txn addr=%llx kind=%s phase=%s acks=%u queue=%zu "
                 "req=%s from=%u parent=%llx\n",
                 node_, static_cast<unsigned long long>(addr),
                 kind_names[static_cast<int>(t.kind)],
                 phase_names[static_cast<int>(t.phase)], t.pending_acks,
                 t.queue.size(), t.req ? to_string(msg_of(*t.req)) : "-",
                 t.req ? t.req->src : 0,
                 static_cast<unsigned long long>(t.parent));
  }
}

// ---------------------------------------------------------------------------
// Functional warmup

L2Line& L2Bank::warm_install(Addr blk, const BlockBytes& data, bool dirty,
                             Cycle now, const WarmEvictFn& on_evict) {
  assert(txns_.empty() && "functional warmup must precede timing simulation");
  assert(array_.lookup(blk) == nullptr);
  std::optional<compress::Encoded> enc = encode_for_store(data, std::nullopt);
  const std::uint32_t segs =
      enc ? SegmentedArray::segments_for(enc->size())
          : static_cast<std::uint32_t>(kBlockBytes / kFlitBytes);
  while (!array_.fits(blk, segs)) {
    L2Line* victim = array_.lru_victim(blk, blk);
    assert(victim != nullptr && "warm install cannot find a victim");
    on_evict(victim->addr, victim->data, victim->dirty, victim->dir);
    array_.erase(victim->addr);
  }
  L2Line& line = array_.install(blk, segs, now);
  line.data = data;
  line.stored = std::move(enc);
  line.dirty = dirty;
  return line;
}

void L2Bank::warm_update(L2Line& line, const BlockBytes& data, bool dirty,
                         Cycle now, const WarmEvictFn& on_evict) {
  std::optional<compress::Encoded> enc = encode_for_store(data, std::nullopt);
  const std::uint32_t segs =
      enc ? SegmentedArray::segments_for(enc->size())
          : static_cast<std::uint32_t>(kBlockBytes / kFlitBytes);
  while (segs > line.segments &&
         array_.free_segments(line.addr) < segs - line.segments) {
    L2Line* victim = array_.lru_victim(line.addr, line.addr);
    assert(victim != nullptr && "warm update cannot find a victim");
    on_evict(victim->addr, victim->data, victim->dirty, victim->dir);
    array_.erase(victim->addr);
  }
  array_.resize(line, segs);
  line.data = data;
  line.stored = std::move(enc);
  line.dirty = line.dirty || dirty;
  line.lru = now;
}

// ---------------------------------------------------------------------------
// Checkpoint/restore

template <class Ar>
void L2Bank::visit(Ar& ar) {
  ar(array_, out_, txns_, replay_, space_waiters_);
}
template void L2Bank::visit(snap::Writer&);
template void L2Bank::visit(snap::Reader&);

}  // namespace disco::cache
