// Memory controller + backing store (Table 2: 1 channel, 8 banks). DRAM
// holds uncompressed blocks. The image keeps only blocks that were written;
// a read of any other block returns what a workload-supplied value
// synthesizer, deterministic in the address, makes for it, so the data
// flowing through the whole system has realistic, per-benchmark
// compressibility and reads never grow the image.
#pragma once

#include <functional>
#include <unordered_map>
#include <vector>

#include "cache/delayed.h"
#include "cache/protocol.h"
#include "cache/stats.h"
#include "common/config.h"
#include "noc/ni.h"

namespace disco::cache {

/// Generates the initial content of a block. Deterministic in the address.
using ValueSynthFn = std::function<BlockBytes(Addr)>;

class MemCtrl final : public noc::PacketSink {
 public:
  MemCtrl(NodeId node, const MemConfig& cfg, noc::NetworkInterface& ni,
          ValueSynthFn synth, CacheStats& stats);

  void deliver(noc::PacketPtr pkt, Cycle now) override;
  void tick(Cycle now);

  bool idle() const { return out_.idle(); }

  /// This controller's tile suffered a permanent failure: hand back the
  /// pending fill responses (live banks are parked on them) and stop. The
  /// backing store stays readable — it is the simulation's ground-truth
  /// DRAM image, which the system consults to synthesize completions.
  void hard_fail(std::vector<noc::PacketPtr>& orphans) { out_.take_all(orphans); }

  /// Direct backing-store access (warmup, orphan resolution, tests). A
  /// block never written reads as the synthesizer's block and is not
  /// stored.
  BlockBytes read_block(Addr addr) const;
  void write_block(Addr addr, const BlockBytes& data);
  /// Blocks the image holds: those written at least once.
  std::size_t stored_blocks() const { return store_.size(); }

 private:
  std::size_t bank_of(Addr addr) const {
    // Skip the NUCA-interleave bits so DRAM banks stay decorrelated from
    // the L2 bank that issued the request.
    return static_cast<std::size_t>(((addr / kBlockBytes) >> 4) % cfg_.banks);
  }

  NodeId node_;
  MemConfig cfg_;
  ValueSynthFn synth_;
  CacheStats& stats_;
  DelayedInjector out_;
  std::vector<Cycle> bank_free_at_;
  std::unordered_map<Addr, BlockBytes> store_;
};

}  // namespace disco::cache
