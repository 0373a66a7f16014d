// Network Interface (NI): packetizes protocol messages into flits, injects
// them into the local router port (respecting VC ownership and credits),
// reassembles ejected flits into packets, and applies the per-scheme NI
// compression policy:
//   - CNC:   compress every injected data packet, decompress every ejected one
//   - DISCO: decompress at ejection only if the packet is still compressed
//            and the consumer needs raw data (core L1, DRAM) — the exposed
//            penalty the in-network machinery tries to hide
//   - Ideal: CNC behaviour at zero latency
//
// With a fault injector attached (fault-injection mode), the NI also runs the
// end-to-end integrity layer: it stamps a payload checksum on every injected
// data packet, verifies every ejected one (non-throwing decode + checksum),
// and recovers from corruption or flit loss by NACKing the source, which
// retransmits the block raw with bounded retries and exponential backoff.
// All of it is gated on the injector so runs without one are byte-identical
// to a build that never had this layer.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/config.h"
#include "fault/fault.h"
#include "noc/link.h"
#include "noc/noc_stats.h"
#include "noc/topology.h"
#include "noc/vc.h"
#include "trace/trace.h"

namespace disco::noc {

/// Endpoint consuming ejected packets (cache controllers, memory controller).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver(PacketPtr pkt, Cycle now) = 0;
};

/// Per-scheme NI compression behaviour.
struct NiPolicy {
  const compress::Algorithm* algo = nullptr;
  bool compress_on_inject = false;
  bool decompress_on_eject_all = false;
  bool decompress_for_raw_consumers = false;
  /// DISCO: the router's local input port belongs to a DISCO router, so a
  /// compressible packet stalled at the source (waiting for a VC/credits
  /// behind other traffic) is an idling packet the in-router engine can
  /// compress — its wait time fully hides the compression latency. One
  /// operation per cycle, only after the packet has idled comp_cycles.
  bool compress_when_source_queued = false;
  std::uint32_t comp_cycles = 0;
  std::uint32_t decomp_cycles = 0;
};

class NetworkInterface {
 public:
  NetworkInterface(NodeId node, const NocConfig& cfg, NiPolicy policy, NocStats& stats);

  NodeId node() const { return node_; }

  void connect_to_router(FlitLink* link) { to_router_ = link; }
  void connect_from_router(FlitLink* link) { from_router_ = link; }
  void connect_credits(CreditLink* link) { credits_in_ = link; }

  void register_sink(UnitKind unit, PacketSink* sink) {
    sinks_[static_cast<std::size_t>(unit)] = sink;
  }

  /// Attach the system's fault injector; enables the integrity layer.
  void set_fault_injector(fault::FaultInjector* fi) { injector_ = fi; }

  /// Attach the system tracer (null = probes compile to a pointer check).
  void set_tracer(trace::Tracer* t) { tracer_ = t; }

  /// Idle elision: this NI's own pending-wake flag. inject() raises it so a
  /// sleeping NI is guaranteed to tick and pump the new entry (the flag is
  /// latched at the top of the network cycle, so an inject that happens
  /// before tick(now) wakes the NI within the same cycle).
  void set_wake_flag(std::uint8_t* flag) { wake_self_ = flag; }

  // --- hard-fault support (wired by Network; inert until a kill) ---
  void set_topology(const Topology* t) { topo_ = t; }
  void set_condemned(const std::unordered_set<PacketId>* c) { condemned_ = c; }
  void set_doomed_callback(DoomedPacketFn fn) { doomed_cb_ = std::move(fn); }
  void enter_degraded_mode() { degraded_ = true; }

  /// The tile's compression hardware is permanently dead: stop compressing
  /// here; compressed arrivals that need raw delivery are NACKed for a raw
  /// retransmission instead of decoded locally.
  void set_bypass(Cycle now);
  bool bypassed() const { return bypass_; }

  /// An in-flight packet addressed here was cut apart by a kill: open a
  /// reassembly entry so the loss timeout fires and recovery runs.
  void note_severed(const PacketPtr& pkt, Cycle now);
  /// A kill-time repair path delivered transaction `oid` to the consumer out
  /// of band (system-level orphan resolution): retire any recovery state we
  /// still hold for it so the dead-peer fallback cannot deliver it twice.
  void note_external_completion(PacketId oid);
  /// Topology changed: drop queued/active sends that can no longer be
  /// delivered (destination dead or cut off).
  void on_topology_change(Cycle now);
  /// This NI's tile died: surrender every queued/in-flight protocol packet
  /// so the system layer can synthesize completions. Clears all state.
  void collect_dead_orphans(std::vector<PacketPtr>& out);

  FlitLink* to_router_link() const { return to_router_; }
  FlitLink* from_router_link() const { return from_router_; }
  CreditLink* credit_link() const { return credits_in_; }
  void disconnect() {
    to_router_ = nullptr;
    from_router_ = nullptr;
    credits_in_ = nullptr;
  }

  /// Deterministic id for a protocol packet originating at this node:
  /// (node << 40) | seq, disjoint from the ctrl (bit 63) and clone (bit 62)
  /// id spaces. Node-local so a cell's id sequence depends only on its own
  /// execution, never on concurrent cells — trace streams stay
  /// thread-count invariant (a process-global counter would not be).
  PacketId mint_protocol_id() {
    return (static_cast<PacketId>(node_) << 40) | proto_seq_++;
  }

  /// Queue a packet for injection. Applies the injection-side policy
  /// (possible NI compression latency) before the first flit can leave;
  /// `extra_delay` defers readiness further (retransmission backoff).
  void inject(PacketPtr pkt, Cycle now, Cycle extra_delay = 0);

  void tick(Cycle now);

  bool idle() const;
  std::size_t pending_injections() const;

  /// Idle elision: true when skipping this NI's tick is a no-op — no queued
  /// or in-flight send, no reassembly/recovery state whose timeout scan
  /// could fire, and nothing on the incoming wires. A non-empty reassembly
  /// or parked table keeps the NI awake so loss timeouts and retransmission
  /// scans run on every cycle, exactly as without elision.
  bool can_sleep() const {
    return idle() && (from_router_ == nullptr || from_router_->empty()) &&
           (credits_in_ == nullptr || credits_in_->empty());
  }

  /// Idle-elision invariant predicate: no work visible at `now` (wire
  /// entries that only become ready after `now` don't count — their push
  /// already raised the pending-wake flag for the next cycle).
  bool no_pending_work(Cycle now) const {
    return idle() &&
           (from_router_ == nullptr || from_router_->empty() ||
            from_router_->front_ready() > now) &&
           (credits_in_ == nullptr || credits_in_->empty() ||
            credits_in_->front_ready() > now);
  }

  /// Snapshot of all mutable NI state (inject queues, active sends,
  /// credits, reassembly/recovery/dedup tables, id counters, mode flags).
  template <class Ar>
  void visit(Ar& ar);

 private:
  struct PendingInject {
    PacketPtr pkt;
    Cycle ready_at;
    Cycle queued_at = 0;

    template <class Ar>
    void visit(Ar& ar) { ar(pkt, ready_at, queued_at); }
  };
  struct ActiveSend {
    PacketPtr pkt;
    std::uint8_t vc = 0;
    std::uint32_t next_seq = 0;

    template <class Ar>
    void visit(Ar& ar) { ar(pkt, vc, next_seq); }
  };
  struct PendingDeliver {
    PacketPtr pkt;
    Cycle deliver_at;

    template <class Ar>
    void visit(Ar& ar) { ar(pkt, deliver_at); }
  };
  struct Reassembly {
    PacketPtr pkt;                  ///< fault mode only
    std::uint64_t seen_mask = 0;    ///< fault mode only (flit dedup)
    std::uint32_t have = 0;
    Cycle first = 0;
    bool nacked = false;            ///< a loss timeout already fired

    template <class Ar>
    void visit(Ar& ar) { ar(pkt, seen_mask, have, first, nacked); }
  };
  /// A corrupted or flit-lossy packet awaiting a raw retransmission.
  struct Parked {
    PacketPtr pkt;
    std::uint32_t retries = 0;
    Cycle last_nack = 0;

    template <class Ar>
    void visit(Ar& ar) { ar(pkt, retries, last_nack); }
  };

  bool fault_mode() const { return injector_ != nullptr && injector_->enabled(); }

  void pump_credits(Cycle now);
  void pump_ejection(Cycle now);
  void pump_delivery(Cycle now);
  void pump_injection(Cycle now);
  void pump_source_compression(Cycle now);
  void finish_ejection(PacketPtr pkt, Cycle now);

  // --- integrity / recovery (fault mode only) ---
  void process_ejected_flit(const Flit& f, Cycle now);
  void finish_ejection_fault(PacketPtr pkt, Cycle now);
  void park_and_nack(PacketPtr pkt, Cycle now);
  void send_nack(PacketId oid, Parked& parked, Cycle now);

  // --- hard-fault helpers (degraded mode only) ---
  bool dest_doomed(const Packet& pkt) const;
  bool peer_unreachable(const Packet& pkt) const;
  void drop_doomed(const PacketPtr& pkt, Cycle now);
  void handle_nack(const PacketPtr& nack, Cycle now);
  void scan_recovery(Cycle now);
  void forget_clones_of(PacketId oid);
  PacketId mint_ctrl_id() {
    return (1ULL << 63) | (static_cast<PacketId>(node_) << 40) | ctrl_seq_++;
  }
  PacketId mint_clone_id() {
    return (1ULL << 62) | (static_cast<PacketId>(node_) << 40) | clone_seq_++;
  }

  NodeId node_;
  NocConfig cfg_;
  NiPolicy policy_;
  NocStats& stats_;
  fault::FaultInjector* injector_ = nullptr;
  trace::Tracer* tracer_ = nullptr;
  std::uint8_t* wake_self_ = nullptr;  ///< idle elision (see set_wake_flag)

  FlitLink* to_router_ = nullptr;
  FlitLink* from_router_ = nullptr;
  CreditLink* credits_in_ = nullptr;

  std::array<Ring<PendingInject>, kNumVNets> inject_q_;
  std::array<std::optional<ActiveSend>, kNumVNets> active_;
  std::vector<std::uint32_t> vc_credits_;
  std::vector<bool> vc_taken_;
  std::uint32_t rr_vnet_ = 0;

  std::unordered_map<PacketId, Reassembly> reassembly_;
  std::vector<PendingDeliver> delivery_;
  std::array<PacketSink*, 3> sinks_{};

  // Fault mode: packets whose delivery was blocked pending retransmission,
  // keyed by the *original* packet id (carried through clone chains).
  std::unordered_map<PacketId, Parked> parked_;
  // Fault mode: ids already delivered/resolved here, so late or duplicated
  // flits of the same packet can never re-open reassembly.
  std::unordered_set<PacketId> completed_;
  std::uint32_t ctrl_seq_ = 0;
  std::uint32_t clone_seq_ = 0;
  PacketId proto_seq_ = 1;  ///< id 0 stays "no packet" in trace events

  // Hard-fault state (all inert on the healthy path).
  const Topology* topo_ = nullptr;
  const std::unordered_set<PacketId>* condemned_ = nullptr;
  DoomedPacketFn doomed_cb_;
  bool degraded_ = false;
  bool bypass_ = false;
};

}  // namespace disco::noc
