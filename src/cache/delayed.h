// Helper used by every controller to model fixed processing latencies:
// packets scheduled for injection at a future cycle, drained into the NI by
// the controller's tick.
//
// An explicit binary heap (vector + std::push_heap/pop_heap) ordered by
// (when, seq): pop order depends only on that total order, never on the
// heap's internal layout.
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
  };
  noc::NetworkInterface& ni_;
  std::vector<Entry> queue_;
  std::uint64_t seq_ = 0;
};

}  // namespace disco::cache
