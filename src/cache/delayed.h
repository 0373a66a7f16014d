// Helper used by every controller to model fixed processing latencies:
// packets scheduled for injection at a future cycle, drained into the NI by
// the controller's tick.
//
// Implemented as an explicit binary heap (vector + std::push_heap/pop_heap)
// rather than std::priority_queue so checkpointing can walk the entries: the
// snapshot serializes a (when, seq)-sorted copy — a canonical form that is
// byte-identical regardless of the heap's internal layout — and restore
// rebuilds the heap from it. Pop order depends only on the (when, seq) total
// order, so the restored queue drains exactly like the original.
#pragma once

#include <algorithm>
#include <vector>

#include "noc/ni.h"

namespace disco::cache {

class DelayedInjector {
 public:
  explicit DelayedInjector(noc::NetworkInterface& ni) : ni_(ni) {}

  noc::NetworkInterface& ni() { return ni_; }

  void schedule(noc::PacketPtr pkt, Cycle when) {
    queue_.push_back(Entry{when, seq_++, std::move(pkt)});
    std::push_heap(queue_.begin(), queue_.end(), Entry::later);
  }

  void tick(Cycle now) {
    while (!queue_.empty() && queue_.front().when <= now) {
      std::pop_heap(queue_.begin(), queue_.end(), Entry::later);
      noc::PacketPtr pkt = std::move(queue_.back().pkt);
      queue_.pop_back();
      ni_.inject(std::move(pkt), now);
    }
  }

  bool idle() const { return queue_.empty(); }

  /// Hard-fault drain: move every pending packet out (FIFO order) and clear
  /// the queue. The system resolves the orphans against the live topology.
  void take_all(std::vector<noc::PacketPtr>& out) {
    while (!queue_.empty()) {
      std::pop_heap(queue_.begin(), queue_.end(), Entry::later);
      out.push_back(std::move(queue_.back().pkt));
      queue_.pop_back();
    }
  }

  template <class Ar>
  void visit(Ar& ar) {
    std::vector<Entry> sorted;
    if constexpr (!Ar::kLoading) {
      sorted = queue_;
      std::sort(sorted.begin(), sorted.end(),
                [](const Entry& a, const Entry& b) { return Entry::later(b, a); });
    }
    ar(sorted, seq_);
    if constexpr (Ar::kLoading) {
      queue_ = std::move(sorted);
      std::make_heap(queue_.begin(), queue_.end(), Entry::later);
    }
  }

 private:
  struct Entry {
    Cycle when;
    std::uint64_t seq;  ///< FIFO tie-break for same-cycle entries
    noc::PacketPtr pkt;

    /// Heap comparator: "a fires later than b" — keeps the earliest entry
    /// at the front of the max-heap the std heap algorithms maintain.
    static bool later(const Entry& a, const Entry& b) {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }

    template <class Ar>
    void visit(Ar& ar) { ar(when, seq, pkt); }
  };
  noc::NetworkInterface& ni_;
  std::vector<Entry> queue_;
  std::uint64_t seq_ = 0;
};

}  // namespace disco::cache
