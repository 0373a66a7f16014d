#include "cache/l1_cache.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <span>

#include "noc/snapshot.h"

namespace disco::cache {

L1Cache::L1Cache(NodeId node, const L1Config& cfg, noc::NetworkInterface& ni,
                 HomeFn home_of, CacheStats& stats)
    : node_(node),
      cfg_(cfg),
      ni_(ni),
      home_of_(std::move(home_of)),
      stats_(stats),
      array_(cfg.size_bytes, cfg.ways),
      out_(ni) {}

void L1Cache::send(Msg m, Addr addr, NodeId dst_node, UnitKind dst_unit,
                   Cycle now, const BlockBytes* data, std::uint32_t extra_delay) {
  noc::PacketPtr pkt = make_packet(ni_.mint_protocol_id(), m, addr, node_,
                                   UnitKind::Core, dst_node, dst_unit, now);
  if (data != nullptr) pkt->data = *data;
  out_.schedule(std::move(pkt), now + extra_delay);
}

void L1Cache::apply_store(BlockBytes& block, Addr word_addr, std::uint64_t value) {
  apply_store_to_block(block, word_addr, value);
}

L1Cache::Outcome L1Cache::access(std::uint64_t op_id, Addr addr, bool is_store,
                                 std::uint64_t store_value, Cycle now) {
  const Addr blk = block_align(addr);
  // A block with an un-acked writeback may not be re-requested yet: this
  // guarantees an eviction-buffer entry and an in-flight grant can never
  // coexist, which makes the Recall-vs-writeback race unambiguous (the
  // recalled node answers from whichever it holds).
  if (evict_buffer_.count(blk) != 0) return Outcome::Blocked;
  L1Line* line = array_.lookup(blk);
  ++stats_.l1_array_reads;

  if (line != nullptr) {
    const bool store_ok = line->state == L1State::M || line->state == L1State::E;
    if (!is_store || store_ok) {
      line->lru = now;
      if (is_store) {
        line->state = L1State::M;  // silent E->M upgrade
        apply_store(line->data, addr, store_value);
        ++stats_.l1_array_writes;
      }
      ++stats_.l1_hits;
      return Outcome::Hit;
    }
    // Store hit on a Shared line: upgrade (SM).
    auto it = mshrs_.find(blk);
    if (it != mshrs_.end()) {
      it->second.waiters.push_back({op_id, true, store_value, addr});
      return Outcome::Miss;
    }
    if (mshrs_.size() >= cfg_.mshr_entries) return Outcome::Blocked;
    Mshr m{Mshr::Kind::SM, {}, false, false, now};
    m.waiters.push_back({op_id, true, store_value, addr});
    mshrs_.emplace(blk, std::move(m));
    ++stats_.l1_misses;
    send(Msg::GetM, blk, home_of_(blk), UnitKind::L2Bank, now);
    return Outcome::Miss;
  }

  // Full miss: coalesce or allocate. Stores may coalesce onto an IS miss;
  // if the grant comes back shared they replay as an upgrade (GetM) instead
  // of head-of-line-blocking the core.
  auto it = mshrs_.find(blk);
  if (it != mshrs_.end()) {
    it->second.waiters.push_back({op_id, is_store, store_value, addr});
    return Outcome::Miss;
  }
  if (mshrs_.size() >= cfg_.mshr_entries) return Outcome::Blocked;

  Mshr m{is_store ? Mshr::Kind::IM : Mshr::Kind::IS, {}, false, false, now};
  m.waiters.push_back({op_id, is_store, store_value, addr});
  mshrs_.emplace(blk, std::move(m));
  ++stats_.l1_misses;
  send(is_store ? Msg::GetM : Msg::GetS, blk, home_of_(blk), UnitKind::L2Bank, now);
  return Outcome::Miss;
}

void L1Cache::make_room_for(Addr addr, Cycle now) {
  L1Line* victim = array_.victim_for(addr);
  if (victim == nullptr) return;  // free way exists
  ++stats_.l1_evictions;
  const Addr vaddr = victim->addr;
  if (victim->state == L1State::M) {
    evict_buffer_[vaddr] = {victim->data, true};
    send(Msg::PutM, vaddr, home_of_(vaddr), UnitKind::L2Bank, now, &victim->data);
    ++stats_.l1_writebacks;
  } else if (victim->state == L1State::E) {
    evict_buffer_[vaddr] = {victim->data, false};
    send(Msg::PutE, vaddr, home_of_(vaddr), UnitKind::L2Bank, now);
  }
  // Shared lines drop silently (home tolerates stale sharer bits).
  victim->state = L1State::I;
}

void L1Cache::complete_waiters(Mshr& m, BlockBytes& block, bool from_dram,
                               Cycle now) {
  for (const Waiter& w : m.waiters) {
    if (w.is_store) apply_store(block, w.addr, w.store_value);
    if (on_complete_) on_complete_(w.op_id, now);
  }
  const Cycle latency = now - m.issued;
  stats_.miss_latency.add(static_cast<double>(latency));
  stats_.miss_latency_hist.add(latency);
  if (from_dram) {
    stats_.dram_latency.add(static_cast<double>(latency));
  } else {
    stats_.nuca_latency.add(static_cast<double>(latency));
    stats_.nuca_latency_hist.add(latency);
  }
}

void L1Cache::handle_data_grant(const noc::PacketPtr& pkt, Cycle now) {
  const Addr blk = pkt->addr;
  auto it = mshrs_.find(blk);
  assert(it != mshrs_.end() && "data grant without an MSHR");
  Mshr m = std::move(it->second);
  mshrs_.erase(it);

  const Msg msg = msg_of(*pkt);
  BlockBytes block = pkt->data;
  // DataE and DataM both confer write permission (silent E->M upgrade).
  const bool exclusive = msg == Msg::DataE || msg == Msg::DataM;

  // A shared grant cannot satisfy coalesced stores: complete the loads now
  // and replay the stores as an upgrade (GetM) below.
  std::vector<Waiter> replay_stores;
  if (!exclusive) {
    std::vector<Waiter> loads;
    for (Waiter& w : m.waiters) {
      (w.is_store ? replay_stores : loads).push_back(w);
    }
    m.waiters = std::move(loads);
  }
  bool any_store = false;
  for (const Waiter& w : m.waiters) any_store = any_store || w.is_store;

  complete_waiters(m, block, pkt->from_dram, now);

  const bool must_replay = !replay_stores.empty();

  // Coherence that overtook the grant: honour it without installing.
  if (m.inv_pending || m.recall_pending) {
    if (m.inv_pending) {
      send(Msg::InvAck, blk, home_of_(blk), UnitKind::L2Bank, now);
    } else if (any_store) {
      send(Msg::RecallData, blk, home_of_(blk), UnitKind::L2Bank, now, &block);
    } else {
      send(Msg::RecallAck, blk, home_of_(blk), UnitKind::L2Bank, now);
    }
    if (must_replay) {
      // No line retained: the replayed stores are a fresh IM miss.
      Mshr rm{Mshr::Kind::IM, std::move(replay_stores), false, false, now};
      mshrs_.emplace(blk, std::move(rm));
      ++stats_.l1_misses;
      send(Msg::GetM, blk, home_of_(blk), UnitKind::L2Bank, now);
    }
    return;
  }

  // For an SM upgrade the line is already resident.
  L1Line* line = array_.lookup(blk);
  if (line == nullptr) {
    make_room_for(blk, now);
    line = &array_.install(blk, block,
                           exclusive ? L1State::E : L1State::S, now);
  } else {
    line->data = block;
    line->state = exclusive ? L1State::E : L1State::S;
    line->lru = now;
  }
  if (any_store) line->state = L1State::M;
  ++stats_.l1_array_writes;

  if (must_replay) {
    Mshr rm{Mshr::Kind::SM, std::move(replay_stores), false, false, now};
    mshrs_.emplace(blk, std::move(rm));
    ++stats_.l1_misses;
    send(Msg::GetM, blk, home_of_(blk), UnitKind::L2Bank, now);
  }
}

void L1Cache::handle_inv(Addr addr, Cycle now) {
  if (auto it = mshrs_.find(addr); it != mshrs_.end()) {
    // Grant may still be in flight: ack only after it arrives (keeps the
    // home's serialization sound).
    if (it->second.kind == Mshr::Kind::IS) {
      it->second.inv_pending = true;
      return;
    }
    // SM upgrade in flight: our S copy is invalidated; the DataM grant will
    // bring fresh data. Ack now — we hold no readable copy afterwards.
    if (L1Line* line = array_.lookup(addr)) line->state = L1State::I;
    send(Msg::InvAck, addr, home_of_(addr), UnitKind::L2Bank, now);
    return;
  }
  if (L1Line* line = array_.lookup(addr)) {
    assert(line->state == L1State::S && "home invalidated an owner");
    line->state = L1State::I;
  }
  send(Msg::InvAck, addr, home_of_(addr), UnitKind::L2Bank, now);
}

void L1Cache::handle_recall(Addr addr, Cycle now) {
  // Writeback in flight: answer the recall from the eviction buffer (the
  // home treats the eventual PutM/PutE as stale). Checked before the MSHR:
  // the access() guard ensures no grant can be in flight simultaneously.
  if (auto it = evict_buffer_.find(addr); it != evict_buffer_.end()) {
    if (it->second.dirty) {
      send(Msg::RecallData, addr, home_of_(addr), UnitKind::L2Bank, now,
           &it->second.data);
    } else {
      send(Msg::RecallAck, addr, home_of_(addr), UnitKind::L2Bank, now);
    }
    return;
  }
  if (auto it = mshrs_.find(addr); it != mshrs_.end()) {
    it->second.recall_pending = true;  // grant still in flight
    return;
  }
  if (L1Line* line = array_.lookup(addr); line != nullptr && line->valid()) {
    const bool dirty = line->state == L1State::M;
    if (dirty) {
      send(Msg::RecallData, addr, home_of_(addr), UnitKind::L2Bank, now, &line->data);
    } else {
      send(Msg::RecallAck, addr, home_of_(addr), UnitKind::L2Bank, now);
    }
    line->state = L1State::I;
    return;
  }
  send(Msg::RecallAck, addr, home_of_(addr), UnitKind::L2Bank, now);
}

void L1Cache::deliver(noc::PacketPtr pkt, Cycle now) {
  switch (msg_of(*pkt)) {
    case Msg::DataS:
    case Msg::DataE:
    case Msg::DataM:
      handle_data_grant(pkt, now);
      break;
    case Msg::Inv:
      handle_inv(pkt->addr, now);
      break;
    case Msg::Recall:
      handle_recall(pkt->addr, now);
      break;
    case Msg::WBAck:
      evict_buffer_.erase(pkt->addr);
      break;
    default:
      assert(false && "unexpected message at L1");
  }
}

void L1Cache::tick(Cycle now) { out_.tick(now); }

bool L1Cache::expects(Msg m, Addr addr) const {
  switch (m) {
    case Msg::DataS:
    case Msg::DataE:
    case Msg::DataM:
      return mshrs_.count(addr) != 0;
    case Msg::WBAck:
      return evict_buffer_.count(addr) != 0;
    default:
      return true;  // Inv/Recall are handled statelessly
  }
}

void L1Cache::hard_fail(std::vector<noc::PacketPtr>& orphans) {
  out_.take_all(orphans);
  mshrs_.clear();
  evict_buffer_.clear();
}

bool L1Cache::idle() const {
  return mshrs_.empty() && evict_buffer_.empty() && out_.idle();
}

// ---------------------------------------------------------------------------
// Functional warmup

std::optional<L1Cache::WarmVictim> L1Cache::warm_install(Addr blk,
                                                         const BlockBytes& data,
                                                         L1State state, Cycle now) {
  assert(mshrs_.empty() && "functional warmup must precede timing simulation");
  if (L1Line* line = array_.lookup(blk)) {
    line->data = data;
    line->state = state;
    line->lru = now;
    return std::nullopt;
  }
  std::optional<WarmVictim> out;
  if (L1Line* victim = array_.victim_for(blk)) {
    out = WarmVictim{victim->addr, victim->data, victim->state == L1State::M};
    victim->state = L1State::I;
  }
  array_.install(blk, data, state, now);
  return out;
}

std::optional<BlockBytes> L1Cache::warm_invalidate(Addr blk) {
  L1Line* line = array_.lookup(blk);
  if (line == nullptr) return std::nullopt;
  const bool dirty = line->state == L1State::M;
  line->state = L1State::I;
  if (dirty) return line->data;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Checkpoint/restore

template <class Ar>
void L1Cache::visit(Ar& ar) {
  ar(array_, out_, mshrs_, evict_buffer_);
}
template void L1Cache::visit(snap::Writer&);
template void L1Cache::visit(snap::Reader&);

}  // namespace disco::cache
