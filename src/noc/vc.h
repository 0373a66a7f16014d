// Virtual-channel input buffer state. Each input port of a router has
// num_vcs of these; a VC holds flits of queued packets (wormhole: the flits
// of the packet at the head are contiguous at the front).
#pragma once

#include <cstdint>

#include "noc/packet.h"
#include "noc/ring.h"
#include "noc/routing.h"

namespace disco::noc {

struct VcId {
  Port port = Port::Local;
  std::uint8_t vc = 0;

  bool operator==(const VcId&) const = default;
};

enum class VcStage : std::uint8_t {
  Idle,     ///< no packet (or head not yet seen)
  VcAlloc,  ///< route computed, waiting for a downstream VC
  Active,   ///< downstream VC granted, competing for the switch
};

class VirtualChannel {
 public:
  Ring<Flit> buffer;
  VcStage stage = VcStage::Idle;
  Port out_port = Port::Local;
  std::uint8_t out_vc = 0;
  /// Head-packet facts latched by route computation and refreshed by
  /// in-place rebuilds, so VA, SA and traversal never dereference the
  /// packet. Valid while stage != Idle.
  std::uint8_t head_prio = 0;     ///< priority_class() of the head packet
  std::uint32_t sent_flits = 0;   ///< flits of the head packet already switched
  Cycle head_arrival = 0;         ///< arrival cycle of the head packet's head flit
  std::uint32_t credit_debt = 0;  ///< credits to swallow after an in-place expansion
  std::uint32_t head_flits = 0;   ///< head packet's flit_count()
  /// The packet currently streaming out of this VC (set while sent_flits > 0).
  /// Needed by hard-fault kill scans: a mid-wormhole VC may have an empty
  /// buffer while its packet's tail is still upstream.
  PacketPtr active_pkt;

  /// DISCO shadow-packet lock: head packet is copied into a compression
  /// engine; the copy in this buffer is the shadow (paper section 3.2 step 3).
  bool engine_busy = false;
  std::uint8_t head_vnet = 0;  ///< head packet's vnet (latched with head_prio)
  /// out_port * num_vcs + out_vc: the granted downstream VC's index into the
  /// router's credit and ownership arrays (valid while Active).
  std::uint8_t out_slot = 0;

  PacketPtr head_packet() const {
    return buffer.empty() ? nullptr : buffer.front().pkt;
  }

  /// Hot-path view of the head packet that never touches the refcount.
  Packet* head_raw() const {
    return buffer.empty() ? nullptr : buffer.front().pkt.get();
  }

  /// Number of contiguous front flits belonging to the head packet.
  std::uint32_t buffered_flits_of_head() const {
    if (buffer.empty()) return 0;
    const Packet* pkt = buffer.front().pkt.get();
    std::uint32_t n = 0;
    for (const Flit& f : buffer) {
      if (f.pkt.get() != pkt) break;
      ++n;
    }
    return n;
  }

  /// True when every flit of the head packet sits in this buffer and none
  /// has departed — the precondition for whole-packet de/compression.
  bool whole_packet_resident() const {
    const PacketPtr pkt = head_packet();
    return pkt && sent_flits == 0 && buffered_flits_of_head() == pkt->flit_count();
  }
};

/// Scheduling priority classes (paper section 3.3B). Lower value = higher
/// priority. Read-critical packets first; compressible-but-uncompressed
/// packets last so they idle (and get compressed) more often.
inline int priority_class(const Packet& pkt, bool deprioritize_compressible) {
  if (deprioritize_compressible && pkt.compressible && !pkt.compressed() &&
      pkt.has_data) {
    return 2;
  }
  return pkt.critical ? 0 : 1;
}

}  // namespace disco::noc
