// System configuration: every architectural knob of the simulated CMP.
// Defaults reproduce Table 2 of the paper plus the DISCO parameters of
// section 3.2. Benches override fields per experiment cell.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace disco {

/// Flow-control discipline (paper section 3.3A). Wormhole is Table 2's
/// configuration; virtual cut-through only forwards a head flit when the
/// downstream VC can hold the whole packet, which keeps packets whole in
/// one node — the property whole-packet compression wants.
enum class FlowControl : std::uint8_t { Wormhole, VirtualCutThrough };

/// NoC/router microarchitecture (Table 2: 3 pipeline stages, wormhole flow
/// control, 8-flit deep buffers, 2 VCs per virtual network, XY routing).
struct NocConfig {
  /// The router keeps one 64-bit VC mask per pipeline stage, and
  /// 5 ports x 3 vnets x 4 VCs = 60 bits.
  static constexpr std::uint32_t kMaxVcsPerVnet = 4;

  std::uint32_t mesh_cols = 4;
  std::uint32_t mesh_rows = 4;
  std::uint32_t vcs_per_vnet = 2;
  std::uint32_t vc_depth_flits = 8;
  FlowControl flow_control = FlowControl::Wormhole;
  /// Section 3.3B: compressible-but-uncompressed packets get lowest priority.
  bool deprioritize_compressible = true;

  std::uint32_t num_nodes() const { return mesh_cols * mesh_rows; }
  std::uint32_t num_vcs() const { return vcs_per_vnet * kNumVNets; }
};

/// DISCO arbitrator + engine knobs (section 3.2, Eq. 1 and Eq. 2). The
/// paper trains the coefficients and thresholds empirically on NoC traces
/// and does not publish them. The defaults below are hand-picked, and the
/// run that tests them does not support them: bench_ablation (10 seeds,
/// base seed 1, canneal at 3x load) finds only CCth = CDth = 8 and engines
/// off below them, on every seed (-1.9 and -2.6 cycles); CCth = CDth = 0.5
/// with beta 1, and CDth = 1, are above them, and the other five points
/// are within the seed spread.
struct DiscoConfig {
  /// Local-pressure coefficients of Eq. 1 (gamma) and Eq. 2 (alpha).
  static constexpr double kGamma = 1.0;
  static constexpr double kAlpha = 1.0;

  double beta = 2.0;     ///< distance coefficient for decompression (Eq.2)
  double cc_threshold = 1.0;  ///< CCth: confidence needed to start compressing
  double cd_threshold = 2.0;  ///< CDth: confidence needed to start decompressing
  /// Section 3.3A: compress partial packets flit-group by flit-group under
  /// wormhole instead of requiring whole-packet residency. The paper adopts
  /// this mode ("...which is adopted in DISCO"); whole-packet-only is the
  /// ablation.
  bool separate_flit_compression = true;

  /// Extension (the paper defers "on-line threshold calculation" as future
  /// overhead): adapt CCth/CDth at runtime from the observed abort rate —
  /// aborts mean hasty decisions (thresholds too low), an idle engine under
  /// congestion means thresholds too high.
  bool adaptive_thresholds = false;
};

/// Private L1 data cache per core.
struct L1Config {
  std::uint32_t size_bytes = 32 * 1024;
  std::uint32_t ways = 4;
  std::uint32_t mshr_entries = 16;
  std::uint32_t hit_latency = 2;
};

/// Shared NUCA L2: Table 2 — 4MB total, 8-way, 64B lines, one bank per tile,
/// LRU, 4-cycle hit (NoC delay excluded).
struct L2Config {
  std::uint64_t total_size_bytes = 4ULL * 1024 * 1024;
  std::uint32_t ways = 8;
  std::uint32_t hit_latency = 4;
  /// Compressed banks use a decoupled tag/data organization: tag entries per
  /// set = ways * tag_factor; data space per set stays ways * 64B, carved
  /// into 8B segments. tag_factor bounds the achievable capacity gain.
  std::uint32_t tag_factor = 4;
};

/// Simple DRAM backend (Table 2: 4G, 1 rank, 1 channel, 8 banks).
struct MemConfig {
  std::uint32_t banks = 8;
  std::uint32_t access_latency = 120;  ///< row activate + CAS, in NoC cycles
  std::uint32_t bank_busy_cycles = 24; ///< per-request bank occupancy
  std::uint32_t num_controllers = 1;
};

/// Per-block integrity checksum carried in the packet header when fault
/// injection is enabled. CRC-32 catches every realistic corruption; the
/// 8-bit XOR fold is the cheap-hardware alternative (detects any single-bit
/// flip but can miss multi-bit patterns — the trade-off the resilience
/// bench quantifies).
enum class CrcMode : std::uint8_t { Crc32, Fold8 };

/// A permanently failing component class (hard faults, as opposed to the
/// transient bit flips/drops of the injector). Listed in spec-grammar order.
enum class HardFaultKind : std::uint8_t {
  Link,        ///< one mesh link, both directions severed
  Router,      ///< a whole tile: router + NI + core + L1 + L2 bank (+ mem ctrl)
  DiscoEngine, ///< all DISCO engines of one router; its NI goes to bypass mode
  LlcBank,     ///< one L2 bank; its router keeps forwarding traffic
};

const char* to_string(HardFaultKind k);

/// One scheduled permanent failure. `dir` is meaningful only for Link kills
/// (0=N 1=S 2=E 3=W, the port leaving `node`). Cycles are absolute
/// simulation cycles (warmup included), applied before the network tick.
struct HardFaultEvent {
  HardFaultKind kind = HardFaultKind::Link;
  std::uint64_t at = 0;
  std::uint32_t node = 0;
  std::uint8_t dir = 0;

  bool operator==(const HardFaultEvent&) const = default;
};

/// Deterministic fault injection + detect-and-recover machinery. Off by
/// default; when `enabled` is false no checksum is computed, no verifier
/// runs and all outputs are bit-identical to a build without the injector.
struct FaultConfig {
  bool enabled = false;

  // --- fault rates per injection site ---
  double link_bit_flip_rate = 0.0;   ///< per compressed-payload flit link traversal
  double llc_bit_flip_rate = 0.0;    ///< per compressed block injected from an L2 bank
  double flit_drop_rate = 0.0;       ///< per body flit link traversal (flit destroyed)
  double flit_duplicate_rate = 0.0;  ///< per flit ejection (replayed into the NI)
  double engine_stall_rate = 0.0;    ///< per DISCO engine start (transient slow-down)
  double engine_fault_rate = 0.0;    ///< per DISCO compression (corrupts the output)

  // --- recovery knobs ---
  CrcMode crc = CrcMode::Crc32;
  std::uint32_t engine_stall_cycles = 16;       ///< extra latency of a stalled engine
  std::uint32_t engine_quarantine_threshold = 4;///< decode errors before self-quarantine
  std::uint32_t max_retries = 4;                ///< retransmissions per corrupted block
  std::uint32_t retransmit_backoff_base = 16;   ///< cycles; doubles per retry
  std::uint32_t reassembly_timeout_cycles = 512;///< incomplete packet -> assume flit loss
  std::uint32_t nack_retry_interval = 1024;     ///< re-NACK a parked block after this long

  // --- permanent (hard) faults ---
  /// Explicit kill schedule (parse_hard_fault_spec / --hard-fault). The
  /// system sorts and applies these at their cycle; a hard fault forces
  /// `enabled` so the end-to-end recovery layer is live for severed packets.
  std::vector<HardFaultEvent> hard_faults;
  /// Rate-based schedule: per-component permanent-failure probability per
  /// cycle; each component draws one exponential failure time from the seed
  /// (--hard-fault-rate). 0 = off.
  double hard_fault_rate = 0.0;

  bool hard_enabled() const {
    return !hard_faults.empty() || hard_fault_rate > 0.0;
  }
};

/// Deterministic event tracing + streaming invariant checking. Off by
/// default; when inactive no probe fires (a null-pointer check per probe
/// site) and all outputs are bit-identical to a build without the tracer.
struct TraceConfig {
  /// Capture probe events into the ring buffer (canonical text / Chrome
  /// trace_event export). Independent of `check_invariants`.
  bool enabled = false;
  /// Feed every probe event (unfiltered) through the streaming invariant
  /// checker: credit conservation, flit conservation, VC state legality,
  /// Eq.1/Eq.2 confidence bounds, shadow-packet lifetime.
  bool check_invariants = false;
  /// Comma-separated capture categories (noc, credit, ni, disco, cache,
  /// topo); empty = all. Applies to the ring only, never to the checker feed.
  std::string filter;
  /// Chrome trace_event JSON output file; in sweeps this is a prefix and
  /// each cell writes <prefix>-cell<i>.json. Empty = no file.
  std::string out_path;
  /// Ring capacity in events; the oldest events are overwritten on wrap.
  std::uint64_t ring_capacity = 1ULL << 20;

  bool active() const { return enabled || check_invariants; }
};

struct SystemConfig {
  NocConfig noc;
  DiscoConfig disco;
  L1Config l1;
  L2Config l2;
  MemConfig mem;
  FaultConfig fault;
  TraceConfig trace;
  Scheme scheme = Scheme::DISCO;
  std::string algorithm = "delta";  ///< key into compress::Registry
  std::uint64_t seed = 1;

  /// In-sim no-progress watchdog: if no packet is injected or ejected for
  /// this many cycles while work is outstanding, the run fails with a
  /// structured NoProgressError classifying deadlock / livelock / starvation
  /// from router state instead of spinning to the wall-clock budget. 0 = off.
  std::uint64_t progress_watchdog_cycles = 0;

  /// When non-empty, the system dumps a postmortem black box (last-progress
  /// cycle, stall census, invariant summary, tracer ring tail) to this file
  /// before failing on a watchdog trip; crash handlers in isolated sweep
  /// workers reuse the same path. Set per cell by the sweep supervisor.
  std::string postmortem_path;

  std::uint64_t l2_bank_size_bytes() const {
    return l2.total_size_bytes / noc.num_nodes();
  }

  /// Human-readable one-line summary for bench headers.
  std::string summary() const;

  /// Reject configurations the simulator cannot represent before they reach
  /// undefined behaviour (mesh_cols = 0 would hit `n % cols` in
  /// MeshShape::x_of; cols*rows overflow would wrap the node count; the
  /// directory sharer bitmask caps the mesh at 64 tiles). Also validates the
  /// hard-fault schedule against the mesh geometry. Throws
  /// std::invalid_argument with a precise message; entry points (sweep,
  /// benches, batch_runner) call this before constructing a system.
  void validate() const;
};

}  // namespace disco
