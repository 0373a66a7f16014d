// Deterministic event-tracing layer. Probe points compiled into the hot
// paths of the router pipeline, the NIs, the DISCO unit and the L2 banks
// emit compact events through a Tracer owned by the enclosing system (one
// per experiment cell, so sweep cells never share a sink and the hot path
// needs no locks). Two backends consume the stream:
//   - a bounded ring buffer exported as canonical one-event-per-line text
//     (golden-trace diffing) or Chrome trace_event JSON (Perfetto), and
//   - a streaming InvariantChecker (see trace/invariants.h) that receives
//     every event unfiltered.
// When no tracer is attached every probe is a single null-pointer check, so
// tracing off costs nothing measurable and outputs stay bit-identical.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/types.h"

namespace disco::trace {

enum class Event : std::uint8_t {
  // Router pipeline (category: noc).
  BufferWrite,      ///< flit written into an input VC (BW stage); arg = seq
  RouteCompute,     ///< head packet routed (RC stage); arg = out port
  VcAllocGrant,     ///< downstream VC granted (VA stage); arg = out<<8 | out_vc
  SwitchTraversal,  ///< flit switched out (ST); arg = st_arg() encoding
  // Credit flow control (category: credit).
  CreditSend,       ///< credit returned upstream for a popped flit
  CreditRecv,       ///< credit received for a downstream (port, vc)
  Rebuild,          ///< in-place flit rebuild; arg = new_flits - old_flits
  // Network interface (category: ni).
  NiInject,         ///< packet queued for injection; arg = vnet
  NiFlitInject,     ///< flit pushed into the local router; arg = seq
  NiCreditRecv,     ///< injection-side credit received from the router
  NiFlitEject,      ///< flit popped from the local router; arg = seq
  NiReassembled,    ///< all flits of a packet arrived; arg = flit count
  NiDeliver,        ///< packet handed to its sink (or NI-consumed control)
  // DISCO arbitrator + engines (category: disco).
  ConfidenceComp,   ///< Eq.1 evaluated; arg = llround(confidence * 256)
  ConfidenceDecomp, ///< Eq.2 evaluated; arg = llround(confidence * 256)
  CompStart,        ///< compression engine armed; arg = llround(conf * 256)
  DecompStart,      ///< decompression engine armed; arg = llround(conf * 256)
  CompAbort,        ///< shadow departed mid-compression
  DecompAbort,      ///< shadow departed mid-decompression
  CompFinish,       ///< compression applied; arg = new_flits - old_flits
  DecompFinish,     ///< decompression applied (or decode-failed; arg = delta)
  ShadowRetire,     ///< engine released after abort-or-commit
  // L2 bank (category: cache).
  L2Fill,           ///< line data (re)installed; arg = stored bytes
  L2Evict,          ///< line evicted; arg = 1 if dirty writeback
  // Hard faults / live topology (category: topo).
  TopoKill,         ///< component killed; arg = HardFaultKind, port = dir
  TopoVcReset,      ///< VC pipeline state scrubbed back to Idle after a kill
  TopoFlitsKilled,  ///< flits destroyed by a kill/doomed filter; arg = count
  TopoReroute,      ///< degraded (non-XY) route chosen at RC; arg = out port
  TopoUnreachable,  ///< packet dropped at source NI, dst unreachable/dead
  TopoBypass,       ///< NI flipped to uncompressed-bypass (engine hard fault)
  // Soft faults (category: noc). Last, so the events above keep their codes.
  FlitDrop,         ///< body flit lost at ST by fault injection; arg = seq
};

inline constexpr std::size_t kNumEvents =
    static_cast<std::size_t>(Event::FlitDrop) + 1;

enum class Category : std::uint8_t { Noc, Credit, Ni, Disco, Cache, Topo };

inline constexpr std::size_t kNumCategories = 6;

Category category_of(Event e);
const char* to_string(Event e);
const char* to_string(Category c);

/// Capture mask from a comma-separated category list ("noc,disco"); empty
/// selects everything. Throws std::invalid_argument on an unknown name.
std::array<bool, kNumCategories> category_mask(const std::string& filter);

/// Pack the switch-traversal context into one arg so the hot path emits a
/// single event: tail flag, output port, downstream VC and flit seq.
inline std::int64_t st_arg(bool tail, std::uint8_t out_port,
                           std::uint8_t out_vc, std::uint32_t seq) {
  return static_cast<std::int64_t>(tail ? 1 : 0) |
         (static_cast<std::int64_t>(out_port) << 1) |
         (static_cast<std::int64_t>(out_vc) << 4) |
         (static_cast<std::int64_t>(seq) << 12);
}
inline bool st_tail(std::int64_t arg) { return (arg & 1) != 0; }
inline std::uint8_t st_out_port(std::int64_t arg) {
  return static_cast<std::uint8_t>((arg >> 1) & 0x7);
}
inline std::uint8_t st_out_vc(std::int64_t arg) {
  return static_cast<std::uint8_t>((arg >> 4) & 0xFF);
}
inline std::uint32_t st_seq(std::int64_t arg) {
  return static_cast<std::uint32_t>(arg >> 12);
}

struct TraceEvent {
  Cycle cycle = 0;
  NodeId node = 0;
  Event event = Event::BufferWrite;
  std::uint8_t port = 0;
  std::uint8_t vc = 0;
  std::uint64_t pkt = 0;
  std::int64_t arg = 0;

  bool operator==(const TraceEvent&) const = default;
};

class InvariantChecker;

class Tracer {
 public:
  explicit Tracer(const TraceConfig& cfg);

  /// Attach the streaming checker; it sees every event, filter or not.
  void set_checker(InvariantChecker* c) { checker_ = c; }
  InvariantChecker* checker() const { return checker_; }

  void emit(Cycle cycle, NodeId node, Event e, std::uint8_t port,
            std::uint8_t vc, std::uint64_t pkt, std::int64_t arg);

  /// Events that passed the capture filter (including overwritten ones).
  std::uint64_t total_events() const { return total_; }
  /// Filter-passing events lost to ring wrap-around.
  std::uint64_t dropped_events() const {
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
  }

  /// Retained events, oldest first.
  std::vector<TraceEvent> snapshot() const;

  /// Canonical one-event-per-line text: "cycle node event port vc pkt arg".
  /// Deterministic for a deterministic simulation, so two streams diff
  /// line-by-line (tools/trace_diff, golden-trace tests).
  void write_canonical(std::ostream& os) const;

  /// Canonical text of only the newest `max_events` retained events — the
  /// flight-recorder tail a postmortem black box embeds.
  void write_canonical_tail(std::ostream& os, std::size_t max_events) const;

  /// Chrome trace_event JSON (load in Perfetto / chrome://tracing): one
  /// instant event per probe, pid = node, tid = port.
  void write_chrome_json(std::ostream& os) const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;   ///< next write slot when the ring is full
  std::uint64_t total_ = 0;
  std::array<bool, kNumEvents> capture_{};
  InvariantChecker* checker_ = nullptr;
};

/// Canonical text for one event (no trailing newline).
std::string canonical_line(const TraceEvent& e);

}  // namespace disco::trace
