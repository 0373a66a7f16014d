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

  // --- functional-warmup API (no timing, no messages) ---
  /// Callback invoked for lines functionally evicted to make room; the
  /// system invalidates their L1 copies and writes dirty data to DRAM.
  using WarmEvictFn = std::function<void(Addr addr, const BlockBytes& data,
                                         bool dirty, const DirInfo& dir)>;
  L2Line* warm_lookup(Addr blk) { return array_.lookup(blk); }
  /// Refresh `line`, the caller's warm_lookup(blk), with `data`, or when it
  /// is null install blk (re-encodes; may evict neighbours through
  /// `on_evict`).
  L2Line& warm_store(Addr blk, L2Line* line, const BlockBytes& data, bool dirty,
                     Cycle now, const WarmEvictFn& on_evict);

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

    /// Data to store (fill, recalled dirty data or writeback payload) and
    /// its storage image, encoded once when the data arrives (absent: raw).
    BlockBytes data{};
    std::optional<compress::Encoded> image;
    bool filled_from_mem = false;  ///< grant will be marked as DRAM-served
  };

  // --- message handlers ---
  void handle_request(noc::PacketPtr pkt, Cycle now);
  void handle_put(noc::PacketPtr pkt, Cycle now);
  void handle_ack(noc::PacketPtr pkt, Cycle now);
  void handle_mem_data(noc::PacketPtr pkt, Cycle now);

  // --- transaction engine ---
  void start_request(Txn& t, Cycle now);
  void start_eviction(Txn& t, Cycle now);
  /// Recall the owner (RecallWait) or invalidate the sharers (InvWait)
  /// that `copies` names; false when it names no L1 copy.
  bool collect(Txn& t, const DirInfo& copies, Cycle now);
  /// Write the line back if dirty, erase it and resume the parent.
  void retire_eviction(Txn& t, const L2Line& line, Cycle now);
  /// Keep the packet's data for the store step and encode its storage
  /// image (the one encode per data arrival).
  void take_data(Txn& t, const noc::Packet& pkt);
  /// Run the store step; a store that does not fit stays parked in
  /// SpaceWait and is retried every tick.
  void store_or_park(Txn& t, Cycle now);
  /// The one store step: size t's image, make room, install or resize the
  /// line, write and count it, then grant (Request) or acknowledge the
  /// writeback (PutAbsorb).
  void store(Txn& t, Cycle now);
  /// Resize `line` to `segments` and write its data, image and dirty bit.
  void write_line(L2Line& line, std::uint32_t segments, const BlockBytes& data,
                  std::optional<compress::Encoded> image, bool dirty, Cycle now);
  void grant(Txn& t, Cycle now);
  void finish(Txn& t);
  void resume_parent(Addr parent, Cycle now);

  /// True when addr's set can hold `segments` for `line`, or for a new line
  /// (a free tag too) when `line` is null, once `freeing_segments` more
  /// segments (and a tag, if `freeing_tag`) are free.
  bool has_room(Addr addr, const L2Line* line, std::uint32_t segments,
                std::uint32_t freeing_segments = 0, bool freeing_tag = false) const;
  /// Try to make room for t's store; returns false if not yet possible,
  /// after launching one more eviction child transaction unless those
  /// already started for t will free enough.
  bool ensure_space(Txn& t, const L2Line* line, std::uint32_t segments, Cycle now);

  /// Encode `data` per storage policy. Counts energy. Returns nullopt when
  /// stored raw.
  std::optional<compress::Encoded> encode_for_store(
      const BlockBytes& data, const std::optional<compress::Encoded>& wire);

  void send(Msg m, Addr addr, NodeId dst, UnitKind dst_unit, Cycle now,
            std::uint32_t delay, const BlockBytes* data = nullptr);

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
  std::vector<Addr> space_waiters_;     ///< txns parked in SpaceWait
};

}  // namespace disco::cache
