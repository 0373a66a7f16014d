// Trace-driven core model: an out-of-order-core proxy that issues at most
// one memory reference per cycle, tolerates a bounded number of outstanding
// L1 misses (memory-level parallelism window), and stalls when the window
// or the L1 MSHRs fill. Store values come from the workload's value
// synthesizer so written data keeps the benchmark's compressibility.
#pragma once

#include <cstdint>
#include <optional>
#include <set>

#include "cache/l1_cache.h"
#include "workload/trace_gen.h"
#include "workload/value_synth.h"

namespace disco::cmp {

class Core {
 public:
  Core(NodeId node, cache::L1Cache& l1, workload::TraceGenerator gen,
       const workload::ValueSynthesizer& synth, std::uint32_t max_outstanding);

  void tick(Cycle now);

  /// Pull the next reference for functional warmup (advances the same
  /// stream the timing phase will continue from).
  workload::TraceOp next_warm_op() { return gen_.next(); }

  std::uint64_t ops_issued() const { return ops_; }
  std::uint64_t loads_issued() const { return loads_; }
  std::uint64_t stores_issued() const { return stores_; }
  std::uint64_t stall_cycles() const { return stalls_; }
  std::uint64_t window_stalls() const { return window_stalls_; }
  std::uint64_t blocked_stalls() const { return blocked_stalls_; }
  std::uint32_t outstanding() const { return outstanding_; }
  void reset_counters() {
    ops_ = loads_ = stores_ = stalls_ = 0;
    window_stalls_ = blocked_stalls_ = 0;
  }

  /// Snapshot: the core's issue state and counters (the trace generator's
  /// stream position rides along).
  template <class Ar>
  void visit(Ar& ar) {
    ar(gen_, pending_, gap_left_, outstanding_, inflight_ids_, next_op_id_,
       ops_, loads_, stores_, stalls_, window_stalls_, blocked_stalls_);
  }

 private:
  NodeId node_;
  cache::L1Cache& l1_;
  workload::TraceGenerator gen_;
  const workload::ValueSynthesizer& synth_;
  std::uint32_t max_outstanding_;

  std::optional<workload::TraceOp> pending_;
  std::uint32_t gap_left_ = 0;
  std::uint32_t outstanding_ = 0;
  std::set<std::uint64_t> inflight_ids_;  ///< window membership (invariant check)
  std::uint64_t next_op_id_;

  std::uint64_t ops_ = 0;
  std::uint64_t loads_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t window_stalls_ = 0;
  std::uint64_t blocked_stalls_ = 0;
};

}  // namespace disco::cmp
