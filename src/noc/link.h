// One-cycle wires between routers and NIs: a flit link (one flit per cycle)
// and a credit link (several credits per cycle are possible when a DISCO
// compression retires buffer slots in bulk). Items pushed at cycle t become
// visible to the consumer at cycle t+1, which makes the simulation
// insensitive to component tick ordering.
//
// Each wire is a member of the router or NI that consumes it; the sender
// holds a pointer. A wire has two slots indexed by cycle parity: a push at
// t writes slot (t+1)&1 and the consumer reads slot now&1, so the two
// never touch the same slot within a cycle. That holds only if the
// consumer drains a slot on the one cycle it is visible: the network ticks
// every cycle (Network::tick asserts it), every push wakes its consumer,
// and a push that finds its slot still holding an item from two cycles
// earlier asserts.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "common/types.h"
#include "noc/packet.h"

namespace disco::noc {

namespace wire_detail {

/// Slot stamp of an empty slot (no real cycle reaches it).
inline constexpr Cycle kEmpty = ~Cycle{0};

/// What both wires share: each slot's stamp (the one cycle its content is
/// visible, or kEmpty) and the consumer hooks. Every push raises the
/// consumer's pending-wake flag, so a sleeping consumer ticks on the cycle
/// the item becomes visible (the network latches pending flags at the top
/// of each cycle), and sets the wire's port bit in the consumer router's
/// wire mask of the slot's parity. The router reads and clears mask
/// now&1 as it drains those slots, so its receive stages visit exactly the
/// wires with an item visible this cycle.
class WireBase {
 public:
  WireBase() = default;
  // The consumer hooks point into this object until the wire is wired.
  WireBase(const WireBase&) = delete;
  WireBase& operator=(const WireBase&) = delete;

  void set_wake(std::uint8_t* flag) { wake_ = flag; }
  /// `masks` points to the consumer's two parity masks.
  void set_port_bit(std::uint32_t* masks, std::uint32_t bit) {
    port_masks_ = masks;
    port_bit_ = bit;
  }

  bool empty() const { return stamp_[0] == kEmpty && stamp_[1] == kEmpty; }
  /// True when an item is visible at or before `now` (idle-elision
  /// invariant: a skipped consumer must have nothing ready).
  bool ready(Cycle now) const { return stamp_[0] <= now || stamp_[1] <= now; }

 protected:
  /// An item went into slot `s`.
  void notify(std::size_t s) {
    *wake_ = 1;
    port_masks_[s] |= port_bit_;
  }

  std::array<Cycle, 2> stamp_{kEmpty, kEmpty};

 private:
  std::uint8_t* wake_ = &unwired_wake_;          ///< consumer's pending-wake flag
  std::uint32_t* port_masks_ = unwired_masks_;  ///< consumer router's wire masks
  std::uint32_t port_bit_ = 0;
  // Sinks for a wire nobody consumes through masks (NI wires, tests).
  std::uint8_t unwired_wake_ = 0;
  std::uint32_t unwired_masks_[2] = {0, 0};
};

}  // namespace wire_detail

/// Flit wire: at most one flit per cycle is pushed by the sender (enforced
/// by switch allocation, asserted here).
///
/// Slot contract: take() hands the visible flit to the consumer, which must
/// leave it owning nothing — move it out, or reset its packet. A push then
/// move-constructs its flit over the spent one without destroying it (its
/// destructor would do nothing) and asserts that the spent flit owns no
/// packet, so a consumer that only reads or copies a taken flit, and so
/// pins its packet, fails on the wire's next push. take_all() moves every
/// flit still in flight out. Each slot always holds a flit (an empty one
/// from the constructor on); the slots are byte storage rather than Flit
/// members because GCC 12 emits about 6 more instructions per flit hop for
/// the members (tools/flit_icount).
class FlitLink : public wire_detail::WireBase {
 public:
  FlitLink() {
    for (std::size_t s = 0; s < 2; ++s) ::new (static_cast<void*>(slots_[s])) Flit();
  }
  ~FlitLink() {
    for (std::size_t s = 0; s < 2; ++s) std::destroy_at(slot(s));
  }

  void push(Cycle now, Flit&& flit) {
    const std::size_t s = (now + 1) & 1;
    assert(stamp_[s] != now + 1 && "two flits on one link in one cycle");
    assert(stamp_[s] == wire_detail::kEmpty &&
           "flit wire slot not drained: a network tick was skipped");
    assert(slot(s)->pkt == nullptr &&
           "a consumer kept the packet of a flit it took off this wire");
    stamp_[s] = now + 1;
    ::new (static_cast<void*>(slot(s))) Flit(std::move(flit));
    notify(s);
  }

  /// The flit visible at `now`, or null. The slot counts as empty from
  /// here on; the caller moves the flit out (or resets its packet).
  Flit* take(Cycle now) {
    const std::size_t s = now & 1;
    if (stamp_[s] != now) return nullptr;
    stamp_[s] = wire_detail::kEmpty;
    return slot(s);
  }

  std::size_t size() const {
    return static_cast<std::size_t>(stamp_[0] != wire_detail::kEmpty) +
           static_cast<std::size_t>(stamp_[1] != wire_detail::kEmpty);
  }

  /// Drain every flit in flight, oldest first, regardless of readiness
  /// (hard-fault kill scrub: the caller condemns the owning packets).
  std::vector<Flit> take_all() {
    std::vector<Flit> out;
    const std::size_t first = stamp_[1] < stamp_[0] ? 1 : 0;
    for (const std::size_t s : {first, 1 - first}) {
      if (stamp_[s] == wire_detail::kEmpty) continue;
      stamp_[s] = wire_detail::kEmpty;
      out.push_back(std::move(*slot(s)));
    }
    return out;
  }

 private:
  Flit* slot(std::size_t s) { return std::launder(reinterpret_cast<Flit*>(slots_[s])); }

  alignas(Flit) unsigned char slots_[2][sizeof(Flit)];
};

/// Credit wire: each entry returns one buffer slot of one VC (its index).
/// A cycle's credits travel as one batch and keep their push order. A batch
/// holds at most num_vcs x vc_depth_flits credits, the most that can be in
/// flight on one wire under credit conservation; exceeding it asserts.
class CreditLink : public wire_detail::WireBase {
 public:
  CreditLink() = default;
  explicit CreditLink(std::uint32_t capacity) { set_capacity(capacity); }
  void set_capacity(std::uint32_t capacity) {
    capacity_ = capacity;
    vcs_.assign(2 * static_cast<std::size_t>(capacity), 0);
    batch_ = {vcs_.data(), vcs_.data() + capacity};
  }

  void push(Cycle now, std::uint8_t vc) {
    const std::size_t s = (now + 1) & 1;
    if (stamp_[s] != now + 1) {
      assert(stamp_[s] == wire_detail::kEmpty &&
             "credit wire batch not drained: a network tick was skipped");
      stamp_[s] = now + 1;
      count_[s] = 0;
    }
    assert(count_[s] < capacity_ && "more credits in flight than buffer slots");
    batch_[s][count_[s]++] = vc;
    notify(s);
  }

  /// The batch visible at `now`, in push order (empty if none). The batch
  /// counts as consumed from here on; the span stays valid for the rest of
  /// the cycle (this cycle's pushes fill the other batch).
  std::span<const std::uint8_t> take(Cycle now) {
    const std::size_t s = now & 1;
    if (stamp_[s] != now) return {};
    stamp_[s] = wire_detail::kEmpty;
    return {batch_[s], count_[s]};
  }

  /// Destroy everything in flight (hard-fault link/router kill).
  void clear() { stamp_ = {wire_detail::kEmpty, wire_detail::kEmpty}; }

 private:
  std::array<std::uint32_t, 2> count_{};
  std::array<std::uint8_t*, 2> batch_{};  ///< batch s: [batch_[s], +count_[s])
  std::uint32_t capacity_ = 0;
  std::vector<std::uint8_t> vcs_;  ///< storage of both batches
};

}  // namespace disco::noc
