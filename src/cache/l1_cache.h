// Private per-core L1 data cache controller: MESI states, MSHR-based miss
// handling with coalescing, eviction buffer for in-flight writebacks, and
// handling of the home bank's invalidations/recalls. An Inv is acked at
// once; a Recall that overtakes its grant parks until the data arrives.
//
// The L1 is where the paper's performance metric is measured: every miss
// records request-creation -> data-delivery latency into CacheStats.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/arrays.h"
#include "cache/delayed.h"
#include "cache/protocol.h"
#include "cache/stats.h"
#include "common/config.h"
#include "noc/ni.h"

namespace disco::cache {

/// Maps a block address to its NUCA home bank node.
using HomeFn = std::function<NodeId(Addr)>;

class L1Cache final : public noc::PacketSink {
 public:
  /// Core-side completion callback: op_id of the finished access.
  using CompletionFn = std::function<void(std::uint64_t op_id, Cycle now)>;

  L1Cache(NodeId node, const L1Config& cfg, noc::NetworkInterface& ni,
          HomeFn home_of, CacheStats& stats);

  void set_completion_handler(CompletionFn fn) { on_complete_ = std::move(fn); }

  enum class Outcome {
    Hit,      ///< satisfied after hit_latency cycles (caller accounts it)
    Miss,     ///< MSHR allocated; completion callback fires later
    Blocked,  ///< MSHR full or conflicting access type: retry next cycle
  };

  /// Core access. For stores, `store_value` is written into the block's
  /// 8B-aligned word (changing the data that later flows through the NoC).
  Outcome access(std::uint64_t op_id, Addr addr, bool is_store,
                 std::uint64_t store_value, Cycle now);

  void deliver(noc::PacketPtr pkt, Cycle now) override;
  void tick(Cycle now);

  std::uint32_t hit_latency() const { return cfg_.hit_latency; }
  bool idle() const;
  std::size_t mshr_in_use() const { return mshrs_.size(); }

  /// True when a synthesized `m` for `addr` has a consumer here (an MSHR for
  /// data grants, an eviction-buffer entry for WBAck). Guards the system's
  /// hard-fault completion synthesis against double delivery.
  bool expects(Msg m, Addr addr) const;

  /// This L1's tile suffered a permanent failure: hand every pending
  /// outbound message (acks and writebacks live banks may be waiting on) to
  /// the caller and abandon all local state. The cache never ticks again.
  void hard_fail(std::vector<noc::PacketPtr>& orphans);

  /// Test hook: peek at a cached line.
  const L1Line* peek(Addr addr) { return array_.lookup(addr); }

  // --- functional-warmup API (no timing, no messages; used only before
  // the timing phase to pre-populate cache and directory state) ---
  struct WarmVictim {
    Addr addr = 0;
    BlockBytes data{};
    bool dirty = false;
  };
  /// Install (or refresh) a line; returns the evicted line, if any.
  std::optional<WarmVictim> warm_install(Addr blk, const BlockBytes& data,
                                         L1State state, Cycle now);
  /// Drop a line; returns its data if it was dirty (M).
  std::optional<BlockBytes> warm_invalidate(Addr blk);
  L1Line* warm_lookup(Addr blk) { return array_.lookup(blk); }

 private:
  struct Waiter {
    std::uint64_t op_id;
    bool is_store;
    std::uint64_t store_value;
    Addr addr;  ///< full (word-granularity) address for the store target
  };
  struct Mshr {
    enum class Kind { IS, IM, SM } kind;
    std::vector<Waiter> waiters;
    bool inv_pending = false;     ///< Inv acked while the read miss was open
    bool recall_pending = false;  ///< Recall overtook the DataE/M grant
    Cycle issued = 0;
  };
  struct EvictEntry {
    BlockBytes data{};
    bool dirty = false;
  };

  void send(Msg m, Addr addr, NodeId dst_node, UnitKind dst_unit, Cycle now,
            const BlockBytes* data = nullptr, std::uint32_t extra_delay = 0);
  /// Allocate an MSHR for `waiters`, count the miss and send GetS (IS) or
  /// GetM (IM, SM) to the home.
  void allocate_miss(Addr blk, Mshr::Kind kind, std::vector<Waiter> waiters,
                     Cycle now);
  /// Answer a Recall: RecallData with `dirty_data`, RecallAck without.
  void answer_recall(Addr addr, const BlockBytes* dirty_data, Cycle now);
  void handle_data_grant(const noc::PacketPtr& pkt, Cycle now);
  void handle_inv(Addr addr, Cycle now);
  void handle_recall(Addr addr, Cycle now);
  void make_room_for(Addr addr, Cycle now);
  void complete_waiters(Mshr& m, BlockBytes& block, bool from_dram, Cycle now);

  NodeId node_;
  L1Config cfg_;
  noc::NetworkInterface& ni_;
  HomeFn home_of_;
  CacheStats& stats_;
  CompletionFn on_complete_;

  L1Array array_;
  DelayedInjector out_;
  std::unordered_map<Addr, Mshr> mshrs_;
  std::unordered_map<Addr, EvictEntry> evict_buffer_;
};

}  // namespace disco::cache
