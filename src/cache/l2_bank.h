// Shared NUCA L2 bank: compressed segmented storage + blocking directory.
//
// The bank serializes coherence transactions per block: while a transaction
// is in flight the block's line is `busy` and later requests queue behind
// it. Ownership transfers are home-mediated (Recall), invalidations are
// home-collected (Inv/InvAck), and evictions of lines with L1 copies run as
// child transactions that recall/invalidate before writing back — which
// closes every protocol race by construction (see DESIGN.md).
//
// Per-scheme behaviour is configured by three knobs:
//   store_compressed    — lines kept in encoded form (all schemes but Baseline)
//   read_decomp_cycles  — CC/CNC pay bank-side decompression on the read
//                         critical path before injecting raw data
//   inject_stored_wire  — DISCO/Ideal inject responses in the stored
//                         compressed form with no bank-side latency
#pragma once

#include <cstdio>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "cache/arrays.h"
#include "cache/delayed.h"
#include "cache/protocol.h"
#include "cache/stats.h"
#include "common/config.h"
#include "fault/fault.h"
#include "noc/ni.h"
#include "trace/trace.h"

namespace disco::cache {

struct L2BankPolicy {
  bool store_compressed = false;
  std::uint32_t read_decomp_cycles = 0;
  bool inject_stored_wire = false;
  std::uint32_t insert_comp_cycles = 0;  ///< off-critical-path, modelled as energy only
  /// Optional fault injector: bit flips on compressed readouts (LLC site).
  fault::FaultInjector* injector = nullptr;
};

class L2Bank final : public noc::PacketSink {
 public:
  /// `index_shift` = log2(bank count): the NUCA interleave bits skipped by
  /// the set index (see SegmentedArray).
  L2Bank(NodeId node, const L2Config& cfg, L2BankPolicy policy,
         const compress::Algorithm* algo, std::uint64_t bank_size_bytes,
         std::uint32_t index_shift, noc::NetworkInterface& ni,
         std::function<NodeId(Addr)> mem_node_of, CacheStats& stats);

  void deliver(noc::PacketPtr pkt, Cycle now) override;
  void tick(Cycle now);

  /// Attach the system tracer (null = probes compile to a pointer check).
  void set_tracer(trace::Tracer* t) { tracer_ = t; }

  bool idle() const;
  std::size_t active_transactions() const { return txns_.size(); }
  const SegmentedArray& array() const { return array_; }

  /// True when a synthesized `m` for `addr` has a waiting transaction in the
  /// matching phase. Guards the system's hard-fault completion synthesis
  /// against double delivery (the handlers assert on unexpected acks).
  bool expects(Msg m, Addr addr) const;

  /// This bank suffered a permanent failure: hand back every pending
  /// outbound message plus every unserviced request (active, queued and
  /// replaying) so the system can synthesize their completions, then
  /// abandon all transaction state. Stored lines are lost — later misses
  /// refill from the DRAM image, so dirty lines silently revert (the
  /// documented degraded-by-design data-loss window of a bank kill).
  void hard_fail(std::vector<noc::PacketPtr>& orphans);

  /// Diagnostic dump of in-flight transactions (one line each).
  void dump_transactions(std::FILE* out) const;

  /// Checkpoint/restore of the full bank state (segmented array, outbound
  /// queue, transaction table, replay/space-wait queues). The transaction
  /// table serializes sorted by address.
  template <class Ar>
  void visit(Ar& ar);

  // --- functional-warmup API (no timing, no messages) ---
  /// Callback invoked for lines functionally evicted to make room; the
  /// system invalidates their L1 copies and writes dirty data to DRAM.
  using WarmEvictFn = std::function<void(Addr addr, const BlockBytes& data,
                                         bool dirty, const DirInfo& dir)>;
  L2Line* warm_lookup(Addr blk) { return array_.lookup(blk); }
  L2Line& warm_install(Addr blk, const BlockBytes& data, bool dirty, Cycle now,
                       const WarmEvictFn& on_evict);
  /// Refresh a resident line's data (re-encodes; may evict neighbours).
  void warm_update(L2Line& line, const BlockBytes& data, bool dirty, Cycle now,
                   const WarmEvictFn& on_evict);

 private:
  struct Txn {
    enum class Kind { Request, PutAbsorb, Eviction };
    enum class Phase { Start, RecallWait, InvWait, MemWait, SpaceWait };
    Kind kind = Kind::Request;
    Phase phase = Phase::Start;
    Addr addr = 0;
    noc::PacketPtr req;                 ///< active request (Request/PutAbsorb)
    std::deque<noc::PacketPtr> queue;   ///< requests serialized behind this one
    std::uint32_t pending_acks = 0;
    Addr parent = ~Addr{0};             ///< eviction: transaction to resume

    // Data in hand (fill / recall result / writeback payload).
    BlockBytes data{};
    bool have_data = false;
    bool data_dirty = false;
    bool filled_from_mem = false;  ///< grant will be marked as DRAM-served
    /// Network-compressed image that matches `data` (reusable for storage).
    std::optional<compress::Encoded> wire;

    enum class After { None, InstallFill, UpdateThenGrant, AbsorbPut };
    After after_space = After::None;

    template <class Ar>
    void visit(Ar& ar) {
      ar(kind, phase, addr, req, queue, pending_acks, parent, data, have_data,
         data_dirty, filled_from_mem, wire, after_space);
    }
  };

  // --- message handlers ---
  void handle_request(noc::PacketPtr pkt, Cycle now);
  void handle_put(noc::PacketPtr pkt, Cycle now);
  void handle_ack(noc::PacketPtr pkt, Cycle now);
  void handle_mem_data(noc::PacketPtr pkt, Cycle now);

  // --- transaction engine ---
  void start_request(Txn& t, Cycle now);
  void start_eviction(Txn& t, Cycle now);
  void advance_space_wait(Txn& t, Cycle now);
  void grant(Txn& t, Cycle now);
  void finish(Txn& t, Cycle now);
  void resume_parent(Addr parent, Cycle now);

  /// Try to make `extra_segments` available in addr's set; launches one
  /// eviction child transaction and returns false if not yet possible.
  bool ensure_space(Txn& t, std::uint32_t extra_segments, Cycle now);

  /// Write `data` (+optional matching wire encoding) into the line,
  /// re-encoding for storage. Returns false if the line grew and the set is
  /// out of segments — caller parks in SpaceWait.
  bool set_line_data(L2Line& line, const BlockBytes& data, bool dirty,
                     const std::optional<compress::Encoded>& wire, Cycle now);

  /// Encode `data` per storage policy. Counts energy. Returns nullopt when
  /// stored raw.
  std::optional<compress::Encoded> encode_for_store(
      const BlockBytes& data, const std::optional<compress::Encoded>& wire);

  void send(Msg m, Addr addr, NodeId dst, UnitKind dst_unit, Cycle now,
            std::uint32_t delay, const BlockBytes* data = nullptr,
            const std::optional<compress::Encoded>* wire = nullptr);

  NodeId node_;
  L2Config cfg_;
  L2BankPolicy policy_;
  const compress::Algorithm* algo_;
  std::function<NodeId(Addr)> mem_node_of_;
  CacheStats& stats_;
  trace::Tracer* tracer_ = nullptr;

  SegmentedArray array_;
  DelayedInjector out_;
  std::unordered_map<Addr, Txn> txns_;
  std::deque<noc::PacketPtr> replay_;   ///< queued requests re-dispatched next tick
  std::vector<Addr> space_waiters_;     ///< txns parked for segment space
};

}  // namespace disco::cache
