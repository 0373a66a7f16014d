// One-cycle pipelined channels between routers: a flit link (one flit per
// cycle) and a credit link (several credits per cycle are possible when a
// DISCO compression retires buffer slots in bulk). Items pushed at cycle t
// become visible to the consumer at cycle t+1, which makes the simulation
// insensitive to component tick ordering.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "noc/packet.h"
#include "noc/ring.h"

namespace disco::noc {

template <typename T>
class PipelinedChannel {
 public:
  void push(Cycle now, T item) {
    queue_.push_back({now + 1, std::move(item)});
    if (wake_ != nullptr) *wake_ = 1;
  }

  /// Idle elision: point this channel at its consumer's pending-wake flag.
  /// Every push raises the flag, so a sleeping consumer is guaranteed to
  /// tick on the cycle the item becomes visible (pushes at t are visible at
  /// t+1, and the network latches pending flags at the top of each cycle).
  void set_wake(std::uint8_t* flag) { wake_ = flag; }

  /// Pop the next item that is visible at `now` (nullptr-like if none).
  bool try_pop(Cycle now, T& out) {
    if (queue_.empty() || queue_.front().ready > now) return false;
    out = std::move(queue_.front().item);
    queue_.pop_front();
    return true;
  }

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }

  /// Destroy everything in flight (hard-fault link/router kill).
  void clear() { queue_.clear(); }

  /// Drain all contents regardless of readiness (hard-fault kill scrub:
  /// the caller condemns the owning packets before destruction).
  std::vector<T> take_all() {
    std::vector<T> out;
    out.reserve(queue_.size());
    for (Entry& e : queue_) out.push_back(std::move(e.item));
    queue_.clear();
    return out;
  }

  /// Oldest in-flight ready cycle, or 0 when empty (idle-elision invariant
  /// checks: a sleeping consumer must have nothing ready).
  Cycle front_ready() const { return queue_.empty() ? 0 : queue_.front().ready; }

  /// Snapshot: every in-flight entry with its absolute ready cycle.
  template <class Ar>
  void visit(Ar& ar) { ar(queue_); }

 private:
  struct Entry {
    Cycle ready;
    T item;

    template <class Ar>
    void visit(Ar& ar) { ar(ready, item); }
  };
  Ring<Entry> queue_;
  std::uint8_t* wake_ = nullptr;  ///< consumer's pending-wake flag (optional)
};

/// Flit wire: at most one flit per cycle is pushed by the sender (enforced
/// by switch allocation, asserted here in debug builds).
class FlitLink {
 public:
  void push(Cycle now, Flit flit) {
    assert(last_push_ != now + 1 && "two flits on one link in one cycle");
    last_push_ = now + 1;
    chan_.push(now, std::move(flit));
  }
  bool try_pop(Cycle now, Flit& out) { return chan_.try_pop(now, out); }
  bool empty() const { return chan_.empty(); }
  std::size_t size() const { return chan_.size(); }
  void clear() { chan_.clear(); }
  std::vector<Flit> take_all() { return chan_.take_all(); }
  void set_wake(std::uint8_t* flag) { chan_.set_wake(flag); }
  Cycle front_ready() const { return chan_.front_ready(); }

  template <class Ar>
  void visit(Ar& ar) { ar(chan_, last_push_); }

 private:
  PipelinedChannel<Flit> chan_;
  Cycle last_push_ = static_cast<Cycle>(-1);
};

/// Credit wire: each event returns one buffer slot of one VC.
struct Credit {
  std::uint8_t vc = 0;

  template <class Ar>
  void visit(Ar& ar) { ar(vc); }
};

using CreditLink = PipelinedChannel<Credit>;

}  // namespace disco::noc
