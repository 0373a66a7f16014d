// NoC packet and flit model. A packet is the unit of protocol transfer
// (request / response / coherence message); it is serialized into 8-byte
// flits for transmission. Data-bearing packets carry the ground-truth 64B
// block plus, when compressed, the actual encoded bytes — so every
// in-network de/compression is a real, checkable transformation.
//
// Flit accounting: the head flit carries routing info plus up to 8B of
// payload, so an uncompressed data packet is 8 flits (fits an 8-flit VC,
// Table 2) and a control packet is 1 flit.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "compress/algorithm.h"

namespace disco::noc {

using PacketId = std::uint64_t;

class PacketPool;

/// Non-owning, generation-checked reference to a pooled packet. Resolving a
/// handle whose slot has since been freed (and possibly reused) yields null
/// instead of a dangling pointer: the pool bumps the slot's generation on
/// every free.
struct PacketHandle {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;  ///< 0 = null (live generations start at 1)

  explicit operator bool() const { return gen != 0; }
  bool operator==(const PacketHandle&) const = default;
};

struct Packet {
  PacketId id = 0;
  NodeId src = 0;
  NodeId dst = 0;
  UnitKind src_unit = UnitKind::Core;
  UnitKind dst_unit = UnitKind::Core;
  VNet vnet = VNet::Request;

  /// Opaque protocol message id (cache layer defines the enum) and address.
  std::uint8_t proto_msg = 0;
  Addr addr = 0;

  bool has_data = false;
  bool compressible = false;  ///< response-class data packet (section 3.3C)
  bool critical = false;      ///< read request/response: scheduling priority
  bool comp_failed = false;   ///< a compression attempt found the block incompressible
  bool was_compressed = false;  ///< travelled compressed at some point (stats)
  bool from_dram = false;  ///< data grant whose fill required a DRAM access
  /// Decompressed by a router near the destination (Eq. 2): the arbitrator
  /// must not feed it back to a compressor, or the hidden latency would be
  /// re-exposed at the consumer NI.
  bool decompressed_in_network = false;

  /// Ground-truth uncompressed payload (valid when has_data).
  BlockBytes data{};
  /// Wire form when travelling compressed.
  std::optional<compress::Encoded> encoded;

  // --- integrity / recovery (fault-injection mode only) ---
  /// End-to-end checksum of `data`, computed at the injecting NI.
  std::uint32_t payload_crc = 0;
  bool crc_valid = false;
  /// Retry ordinal of a retransmitted clone (0 = original transmission).
  std::uint32_t retry = 0;
  /// Nonzero: this packet is a raw retransmission of the given original id.
  PacketId retransmit_of = 0;
  /// Nonzero: this is a NACK control packet for the given corrupted id.
  PacketId nack_for = 0;
  /// NACK only: pool handle of the corrupted packet (models the receiver's
  /// parked copy). A *non-owning*, generation-checked handle on purpose: the
  /// old shared_ptr here formed an ownership chain that kept retired packets
  /// alive for the rest of the cell. If the parked entry is resolved before
  /// the NACK is consumed the handle goes stale and resolve() returns null —
  /// the retransmission it would have triggered was moot anyway.
  PacketHandle nack_ref;

  // --- degraded routing (hard-fault mode only) ---
  /// Up*/down* phase carried between hops: 0 = may still climb toward the
  /// spanning-tree root, 1 = descending only. Reset whenever route_epoch
  /// falls behind the live topology's epoch.
  std::uint8_t route_phase = 0;
  /// Topology epoch the phase belongs to (see Topology::epoch()).
  std::uint32_t route_epoch = 0;

  // --- timing bookkeeping (set by NIs / system) ---
  Cycle created = 0;
  Cycle injected = 0;
  Cycle ejected = 0;
  std::uint32_t hops = 0;
  /// Cycles spent losing SA (diagnostics). 64-bit: long-lived packets on a
  /// saturated network accumulate these across the whole run.
  std::uint64_t idle_cycles = 0;

  bool compressed() const { return encoded.has_value(); }

  std::size_t payload_bytes() const {
    if (!has_data) return 0;
    return compressed() ? encoded->size() : kBlockBytes;
  }

  /// Head flit + additional body flits; head carries the first 8B of payload.
  std::uint32_t flit_count() const {
    const std::size_t p = payload_bytes();
    if (p <= kFlitBytes) return 1;
    return 1 + static_cast<std::uint32_t>((p - kFlitBytes + kFlitBytes - 1) / kFlitBytes);
  }

  /// Apply a compression result (in-network or at an NI).
  void apply_compression(compress::Encoded enc) {
    assert(has_data && !compressed());
    encoded = std::move(enc);
    was_compressed = true;
  }

  // --- pool bookkeeping (managed by PacketPool / PacketPtr). A plain
  // non-atomic refcount: a simulation cell lives
  // entirely on one thread, so packets never cross threads.
  std::uint32_t pool_refs_ = 0;
  std::uint32_t pool_slot_ = 0;
  PacketPool* pool_ = nullptr;
};

namespace detail {
/// Out-of-line cold path: returns the packet to its owning pool. Declared
/// here so PacketPtr's inline release() stays a decrement + branch.
void pool_free(Packet* p) noexcept;
}  // namespace detail

/// Intrusive refcounted pointer to a pooled Packet. Drop-in for the old
/// `std::shared_ptr<Packet>` on the hot path, minus the atomic refcount and
/// the control-block allocation: copying a flit costs one non-atomic
/// increment, and packet memory is recycled through PacketPool's freelist
/// instead of the heap. Create packets with make_packet().
class PacketPtr {
 public:
  PacketPtr() = default;
  PacketPtr(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  PacketPtr(const PacketPtr& o) : p_(o.p_) {
    if (p_ != nullptr) ++p_->pool_refs_;
  }
  PacketPtr(PacketPtr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  PacketPtr& operator=(const PacketPtr& o) {
    if (o.p_ != nullptr) ++o.p_->pool_refs_;
    Packet* old = p_;
    p_ = o.p_;
    unref(old);
    return *this;
  }
  PacketPtr& operator=(PacketPtr&& o) noexcept {
    if (this != &o) {
      Packet* old = p_;
      p_ = o.p_;
      o.p_ = nullptr;
      unref(old);
    }
    return *this;
  }
  ~PacketPtr() { unref(p_); }

  void reset() {
    Packet* old = p_;
    p_ = nullptr;
    unref(old);
  }

  Packet* get() const { return p_; }
  Packet& operator*() const { return *p_; }
  Packet* operator->() const { return p_; }
  explicit operator bool() const { return p_ != nullptr; }

  friend bool operator==(const PacketPtr& a, const PacketPtr& b) {
    return a.p_ == b.p_;
  }
  friend bool operator==(const PacketPtr& a, std::nullptr_t) {
    return a.p_ == nullptr;
  }

 private:
  friend class PacketPool;
  /// Adopt `p` with one reference already counted (pool alloc/resolve).
  struct AlreadyCounted {};
  PacketPtr(Packet* p, AlreadyCounted) : p_(p) {}

  static void unref(Packet* p) {
    if (p != nullptr && --p->pool_refs_ == 0) detail::pool_free(p);
  }

  Packet* p_ = nullptr;
};

/// Allocate a default-constructed packet from the calling thread's pool.
PacketPtr make_packet();

/// Callback invoked when a packet is discovered to be undeliverable under
/// the live topology (destination dead or cut off). The system layer uses
/// it to keep the cache protocol live by synthesizing completions.
using DoomedPacketFn = std::function<void(const PacketPtr&, Cycle)>;

/// A flit token referencing its parent packet. Rebuilt in place when an
/// in-network de/compression changes the packet's flit count.
struct Flit {
  PacketPtr pkt;
  std::uint32_t seq = 0;
  std::uint8_t vc_tag = 0;  ///< downstream VC assigned by the upstream VA
  Cycle arrival = 0;  ///< cycle this flit was written into the current buffer

  bool is_head() const { return seq == 0; }
  bool is_tail() const { return seq + 1 == pkt->flit_count(); }
};

}  // namespace disco::noc
