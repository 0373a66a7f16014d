// The full simulated CMP (Table 2): a cols x rows mesh of tiles, each with
// a trace-driven core + private L1 + shared NUCA L2 bank behind one router,
// plus memory controller(s), assembled for one (scheme, algorithm,
// workload) experiment cell.
#pragma once

#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <vector>

#include "cache/l1_cache.h"
#include "cache/l2_bank.h"
#include "cache/mem_ctrl.h"
#include "cmp/core.h"
#include "cmp/scheme.h"
#include "common/config.h"
#include "compress/registry.h"
#include "disco/unit.h"
#include "fault/fault.h"
#include "noc/network.h"
#include "trace/invariants.h"
#include "trace/trace.h"
#include "workload/profile.h"

namespace disco::cmp {

/// What the no-progress watchdog concluded about a stalled system.
enum class StallKind : std::uint8_t {
  Deadlock,    ///< flits buffered in-network, nothing moves at all
  Livelock,    ///< flits still moving, but no packet ever retires
  Starvation,  ///< network empty, yet sources cannot inject (e.g. no credits)
};

const char* to_string(StallKind k);

/// Pure classification rule, unit-testable without a live network: called
/// when no packet was injected or ejected for the watchdog window.
inline StallKind classify_stall(bool activity_advanced,
                                std::uint64_t inflight_flits,
                                std::uint64_t pending_injections) {
  (void)pending_injections;
  if (activity_advanced) return StallKind::Livelock;
  if (inflight_flits > 0) return StallKind::Deadlock;
  return StallKind::Starvation;
}

/// Structured failure thrown by the no-progress watchdog instead of letting
/// a deadlocked/livelocked cell spin until its wall-clock budget.
class NoProgressError : public std::runtime_error {
 public:
  NoProgressError(StallKind kind, Cycle at, Cycle last_progress,
                  const std::string& what)
      : std::runtime_error(what), kind(kind), cycle(at),
        last_progress_cycle(last_progress) {}

  StallKind kind;
  Cycle cycle;
  Cycle last_progress_cycle;
};

/// Thrown by the simulation loop when it sees the process interrupt flag
/// (a SIGINT/SIGTERM shutdown, common/interrupt.h).
class CancelledError : public std::runtime_error {
 public:
  CancelledError() : std::runtime_error("cell cancelled") {}
};

class CmpSystem {
 public:
  CmpSystem(const SystemConfig& cfg, const workload::BenchmarkProfile& profile);

  /// Pre-populate caches, directory and backing store by functionally
  /// replaying `ops_per_core` references per core (round-robin, so sharing
  /// interleaves). Must run before any timing simulation; the timing phase
  /// then continues each core's reference stream.
  void functional_warmup(std::uint64_t ops_per_core);

  /// Flush the postmortem black box — last-progress cycle, stall census,
  /// invariant summary, tracer ring tail — to `os`. Called on watchdog trips
  /// (to cfg.postmortem_path) and best-effort from crash handlers.
  void write_postmortem(std::ostream& os, const std::string& reason) const;

  /// The process's most recently constructed live system, for crash handlers
  /// in isolated sweep workers (one system per forked child). Null when no
  /// system is live or several are (first claim wins).
  static CmpSystem* current();

  /// Advance the whole chip by `cycles`.
  void run(Cycle cycles);
  /// Advance until every queue drains or `max_cycles` elapse; returns true
  /// if the system went quiescent (used by tests).
  bool drain(Cycle max_cycles);

  void reset_stats();

  Cycle now() const { return cycle_; }
  const SystemConfig& config() const { return cfg_; }
  /// Hard faults actually applied so far (survives reset_stats, unlike the
  /// per-phase NocStats kill counters).
  std::uint64_t hard_faults_applied() const { return hard_faults_applied_; }
  /// The materialized deterministic kill schedule (sorted; empty unless
  /// cfg.fault.hard_enabled()).
  const std::vector<HardFaultEvent>& hard_fault_schedule() const {
    return hard_schedule_;
  }
  const noc::NocStats& noc_stats() const { return noc_stats_; }
  const cache::CacheStats& cache_stats() const { return cache_stats_; }
  const compress::Algorithm& algorithm() const { return *algo_; }
  const workload::ValueSynthesizer& synthesizer() const { return synth_; }
  /// Null unless cfg.fault.enabled.
  const fault::FaultInjector* fault_injector() const { return injector_.get(); }

  /// Null unless cfg.trace.active().
  trace::Tracer* tracer() const { return tracer_.get(); }
  /// Null unless cfg.trace.check_invariants.
  const trace::InvariantChecker* invariant_checker() const {
    return checker_.get();
  }

  noc::Network& network() { return *network_; }
  cache::L1Cache& l1(NodeId n) { return *l1s_[n]; }
  cache::L2Bank& l2(NodeId n) { return *l2s_[n]; }
  Core& core(NodeId n) { return *cores_[n]; }

  std::uint64_t total_core_ops() const;
  std::uint64_t total_stall_cycles() const;

  NodeId home_of(Addr addr) const {
    return static_cast<NodeId>((addr / kBlockBytes) % cfg_.noc.num_nodes());
  }

  CmpSystem(const CmpSystem&) = delete;
  CmpSystem& operator=(const CmpSystem&) = delete;
  ~CmpSystem();

 private:
  void tick();
  /// Advance one cycle: hard faults due, the network, then the live tiles'
  /// L1s, L2 banks, memory controllers and (`with_cores`) cores.
  void step(bool with_cores);
  void check_cancel() const;
  void check_progress();
  bool work_outstanding() const;
  /// Apply every scheduled hard fault due at the current cycle (called
  /// before the network tick, single-threaded: schedules replay bit-exactly
  /// under any thread count).
  void fire_hard_faults();
  /// A whole tile died: drain its L1/L2/mem-ctrl state and resolve the
  /// orphaned protocol messages against the surviving components.
  void on_tile_killed(NodeId n, Cycle at);
  /// Unified dead-component completion synthesis: a protocol message that
  /// provably cannot be serviced (doomed in-network, or orphaned inside a
  /// killed unit) is resolved here so the surviving requester/home makes
  /// forward progress instead of hanging into the watchdog. Ground-truth
  /// data comes from the DRAM image; the stale-data windows this opens are
  /// the documented degraded-by-design cost of losing a component.
  void resolve_protocol_orphan(const noc::PacketPtr& pkt, Cycle at);
  void warm_access(NodeId node, Addr addr, bool is_store, std::uint64_t value,
                   const cache::L2Bank::WarmEvictFn& on_evict);
  cache::MemCtrl& mem_for(Addr addr) {
    return *mems_[(addr / kBlockBytes) % mems_.size()];
  }
  cache::L2Bank::WarmEvictFn warm_evict_fn();
  /// Functionally drop every L1 copy of `blk` that `dir` names, except
  /// `keep`'s; returns the owner's data if it held the block dirty.
  std::optional<BlockBytes> warm_invalidate_copies(
      Addr blk, const cache::DirInfo& dir, NodeId keep = kInvalidNode);

  SystemConfig cfg_;
  std::unique_ptr<compress::Algorithm> algo_;
  workload::ValueSynthesizer synth_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<trace::InvariantChecker> checker_;

  noc::NocStats noc_stats_;
  cache::CacheStats cache_stats_;

  std::unique_ptr<noc::Network> network_;
  std::vector<std::unique_ptr<cache::L1Cache>> l1s_;
  std::vector<std::unique_ptr<cache::L2Bank>> l2s_;
  std::vector<std::unique_ptr<cache::MemCtrl>> mems_;
  std::vector<NodeId> mem_nodes_;
  std::vector<std::unique_ptr<Core>> cores_;

  Cycle cycle_ = 0;

  // Hard-fault (graceful degradation) state.
  std::vector<HardFaultEvent> hard_schedule_;  ///< sorted by (at, kind, node, dir)
  std::size_t next_hard_fault_ = 0;
  std::uint64_t hard_faults_applied_ = 0;
  bool any_node_dead_ = false;  ///< at least one whole tile is gone

  // No-progress watchdog state.
  std::uint64_t last_progress_sig_ = 0;
  std::uint64_t activity_sig_at_progress_ = 0;
  Cycle last_progress_cycle_ = 0;
};

}  // namespace disco::cmp
