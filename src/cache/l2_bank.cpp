#include "cache/l2_bank.h"

#include <algorithm>
#include <cassert>
#include <span>

namespace disco::cache {

namespace {

/// 8-byte segments a storage image occupies (absent: a raw line).
std::uint32_t segments_of(const std::optional<compress::Encoded>& image) {
  return image ? SegmentedArray::segments_for(image->size())
               : static_cast<std::uint32_t>(kBlockBytes / kFlitBytes);
}

}  // namespace

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
                  std::uint32_t delay, const BlockBytes* data) {
  noc::PacketPtr pkt = make_packet(out_.ni().mint_protocol_id(), m, addr,
                                   node_, UnitKind::L2Bank, dst, dst_unit, now);
  if (data != nullptr) pkt->data = *data;
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

void L2Bank::write_line(L2Line& line, std::uint32_t segments,
                        const BlockBytes& data,
                        std::optional<compress::Encoded> image, bool dirty,
                        Cycle now) {
  array_.resize(line, segments);
  line.data = data;
  line.stored = std::move(image);
  line.dirty = line.dirty || dirty;
  line.lru = now;
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

  // An owner is always recalled (home-mediated downgrade), also when it
  // re-requests itself: its writeback is in flight and the recall answers
  // from its eviction buffer. Readers share with the sharers; a writer
  // invalidates every sharer but itself.
  DirInfo copies = line->dir;
  if (copies.kind == DirInfo::Kind::Shared) {
    if (msg_of(*t.req) == Msg::GetS) copies = DirInfo{};
    else copies.remove_sharer(t.req->src);
  }
  if (!collect(t, copies, now)) grant(t, now);
}

bool L2Bank::collect(Txn& t, const DirInfo& copies, Cycle now) {
  if (copies.kind == DirInfo::Kind::Excl) {
    ++stats_.recalls_sent;
    t.phase = Txn::Phase::RecallWait;
    send(Msg::Recall, t.addr, copies.owner, UnitKind::Core, now, 1);
    return true;
  }
  if (copies.kind != DirInfo::Kind::Shared || copies.sharer_count() == 0) return false;
  t.phase = Txn::Phase::InvWait;
  t.pending_acks = copies.sharer_count();
  for (NodeId n = 0; n < 64; ++n) {
    if (copies.is_sharer(n)) {
      ++stats_.invalidations_sent;
      send(Msg::Inv, t.addr, n, UnitKind::Core, now, 1);
    }
  }
  return true;
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
  line->busy = true;
  take_data(t, *pkt);
  t.req = std::move(pkt);
  store_or_park(t, now);
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
  }

  L2Line* line = array_.lookup(a);
  assert(line != nullptr && line->busy);

  if (t.kind == Txn::Kind::Eviction) {
    if (m == Msg::RecallData) {  // the recalled dirty data is what leaves
      line->data = pkt->data;
      line->dirty = true;
    }
    retire_eviction(t, *line, now);
    return;
  }

  // Request transaction resuming after recall/invalidation.
  line->dir = DirInfo{};
  if (m == Msg::RecallData) {
    take_data(t, *pkt);
    store_or_park(t, now);
  } else {
    grant(t, now);
  }
}

void L2Bank::handle_mem_data(noc::PacketPtr pkt, Cycle now) {
  auto it = txns_.find(pkt->addr);
  assert(it != txns_.end() && it->second.phase == Txn::Phase::MemWait);
  Txn& t = it->second;
  take_data(t, *pkt);
  t.filled_from_mem = true;
  store_or_park(t, now);
}

void L2Bank::take_data(Txn& t, const noc::Packet& pkt) {
  t.data = pkt.data;
  t.image = encode_for_store(pkt.data, pkt.encoded);
}

// ---------------------------------------------------------------------------
// The store step, space management and evictions

void L2Bank::store_or_park(Txn& t, Cycle now) {
  const Addr a = t.addr;
  store(t, now);
  // store may have finished (and erased) the transaction.
  if (auto it = txns_.find(a);
      it != txns_.end() && it->second.phase == Txn::Phase::SpaceWait) {
    space_waiters_.push_back(a);
  }
}

void L2Bank::store(Txn& t, Cycle now) {
  L2Line* line = array_.lookup(t.addr);
  const std::uint32_t segs = segments_of(t.image);
  t.phase = Txn::Phase::SpaceWait;
  // ensure_space may retire an eviction at once, and resume_parent then
  // re-enters this step for t, which can finish and erase it: touch
  // nothing of t after a failure.
  if (!ensure_space(t, line, segs, now)) return;
  if (line == nullptr) {
    line = &array_.install(t.addr, segs, now);
    line->busy = true;
    ++stats_.l2_fills;
  }
  // A fill is clean; recalled data and a writeback are dirty.
  write_line(*line, segs, t.data, std::move(t.image), !t.filled_from_mem, now);
  ++stats_.l2_array_writes;
  const std::size_t bytes = line->stored ? line->stored->size() : kBlockBytes;
  stats_.stored_line_bytes.add(static_cast<double>(bytes));
  if (tracer_ != nullptr)
    tracer_->emit(now, node_, trace::Event::L2Fill, 0, 0, t.addr,
                  static_cast<std::int64_t>(bytes));

  if (t.kind == Txn::Kind::PutAbsorb) {
    send(Msg::WBAck, t.addr, t.req->src, UnitKind::Core, now, cfg_.hit_latency);
    finish(t);
  } else {
    grant(t, now);
  }
}

bool L2Bank::has_room(Addr addr, const L2Line* line, std::uint32_t segments,
                      std::uint32_t freeing_segments, bool freeing_tag) const {
  const std::uint32_t free = array_.free_segments(addr) + freeing_segments;
  if (line == nullptr)
    return (freeing_tag || array_.has_free_tag(addr)) && free >= segments;
  return segments <= line->segments || free >= segments - line->segments;
}

bool L2Bank::ensure_space(Txn& t, const L2Line* line, std::uint32_t segments,
                          Cycle now) {
  if (has_room(t.addr, line, segments)) return true;
  // The evictions already started for t free their lines when they retire:
  // start another only if those still leave the store short.
  std::uint32_t freeing = 0;
  bool evicting = false;
  for (const auto& [a, ev] : txns_) {
    if (ev.kind != Txn::Kind::Eviction || ev.parent != t.addr) continue;
    freeing += array_.lookup(a)->segments;
    evicting = true;
  }
  if (evicting && has_room(t.addr, line, segments, freeing, true)) return false;
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
  // No L1 copies: write back and vanish immediately.
  if (!collect(t, line->dir, now)) retire_eviction(t, *line, now);
}

void L2Bank::retire_eviction(Txn& t, const L2Line& line, Cycle now) {
  const Addr a = t.addr;
  const bool dirty = line.dirty;
  const BlockBytes data = line.data;
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
  if (it->second.phase == Txn::Phase::SpaceWait) store(it->second, now);
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
  finish(t);
}

void L2Bank::finish(Txn& t) {
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
    const std::vector<Addr> batch = std::move(space_waiters_);
    space_waiters_.clear();
    for (const Addr a : batch) {
      auto it = txns_.find(a);
      if (it != txns_.end() && it->second.phase == Txn::Phase::SpaceWait)
        store_or_park(it->second, now);
    }
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

// ---------------------------------------------------------------------------
// Functional warmup

L2Line& L2Bank::warm_store(Addr blk, L2Line* line, const BlockBytes& data,
                           bool dirty, Cycle now, const WarmEvictFn& on_evict) {
  assert(txns_.empty() && "functional warmup must precede timing simulation");
  assert((line == nullptr || (line->valid && line->addr == blk)) &&
         "warm_store takes the caller's lookup");
  std::optional<compress::Encoded> image = encode_for_store(data, std::nullopt);
  const std::uint32_t segs = segments_of(image);
  while (!has_room(blk, line, segs)) {
    L2Line* victim = array_.lru_victim(blk, blk);
    assert(victim != nullptr && "functional store cannot find a victim");
    on_evict(victim->addr, victim->data, victim->dirty, victim->dir);
    array_.erase(victim->addr);
  }
  if (line == nullptr) line = &array_.install(blk, segs, now);
  write_line(*line, segs, data, std::move(image), dirty, now);
  return *line;
}

}  // namespace disco::cache
