// Deterministic fault injection for the resilience layer. One FaultInjector
// per simulated system, seeded from the cell seed through splitmix64, so a
// faulty run replays bit-exactly regardless of thread count (all injection
// sites are visited in simulation order by the single-threaded tick loop).
//
// The injector owns the per-site fault coins and the "faults injected"
// counters; detection/recovery counters live in NocStats next to the
// machinery that increments them.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/snapshot.h"
#include "compress/algorithm.h"

namespace disco::fault {

/// Parse a hard-fault spec: a comma-separated list of "kind@cycle:node" (or
/// "link@cycle:node:dir" with dir in {N,S,E,W}). Kinds: link, router,
/// engine, llc. Example: "engine@5000:3,link@9000:5:E,router@12000:10".
/// Throws std::invalid_argument with the offending token on a parse error.
std::vector<HardFaultEvent> parse_hard_fault_spec(const std::string& spec);

/// Canonical spec string for a schedule (round-trips through the parser).
std::string format_hard_fault_spec(const std::vector<HardFaultEvent>& events);

/// Materialize the full, deterministic kill schedule for one system: the
/// explicit events of `cfg.hard_faults` plus, when `cfg.hard_fault_rate` is
/// set, one exponential failure-time draw per component (router, engine and
/// bank per node; the N/S/E/W links of each node from the sender side). Each
/// component draws from its own splitmix64-derived stream, so the schedule
/// is a pure function of (seed, rate, mesh) — replayable bit-exactly under
/// any thread count. Events past `horizon` are discarded; the result is
/// sorted by (at, kind, node, dir).
std::vector<HardFaultEvent> build_hard_fault_schedule(
    const FaultConfig& cfg, std::uint64_t seed, std::uint32_t mesh_cols,
    std::uint32_t mesh_rows, std::uint64_t horizon);

/// Checksum over a raw 64B block, selected by FaultConfig::crc. Fold8 is
/// zero-extended so both modes fit the same 32-bit header field.
std::uint32_t checksum(std::span<const std::uint8_t> bytes, CrcMode mode);

/// Verdict of checked_decode.
enum class DecodeCheck : std::uint8_t {
  Ok,             ///< decodes to the ground truth
  Rejected,       ///< malformed stream, or the decoded block fails its checksum
  SilentlyWrong,  ///< passes every check the hardware has, yet differs from the truth
};

/// Decode a block's compressed wire form as a receiver would, check the
/// result against `crc` (the checksum stamped at injection, computed with
/// `mode`) when one was stamped, then against the ground truth `truth`: the
/// simulator's oracle, which no hardware has.
DecodeCheck checked_decode(const compress::Algorithm& algo,
                           std::span<const std::uint8_t> wire,
                           const BlockBytes& truth,
                           std::optional<std::uint32_t> crc, CrcMode mode);

/// IEEE CRC-32 (reflected, poly 0xEDB88320).
using snap::crc32;

/// 8-bit XOR fold: catches any single-bit flip, may miss multi-bit patterns.
std::uint8_t fold8(std::span<const std::uint8_t> bytes);

/// Faults injected, by site.
struct FaultCounters {
  std::uint64_t link_bit_flips = 0;
  std::uint64_t llc_bit_flips = 0;
  std::uint64_t flit_drops = 0;
  std::uint64_t flit_duplicates = 0;
  std::uint64_t engine_stalls = 0;
  std::uint64_t engine_faults = 0;

  std::uint64_t total() const {
    return link_bit_flips + llc_bit_flips + flit_drops + flit_duplicates +
           engine_stalls + engine_faults;
  }
  /// Faults that corrupted an in-flight or stored payload (the population
  /// the "100% detected" acceptance criterion is measured against).
  std::uint64_t payload_faults() const {
    return link_bit_flips + llc_bit_flips + engine_faults;
  }

  /// Named field list: the result export (sim::FaultSummary) walks it.
  template <class V>
  void visit(V& v) {
    v("link_bit_flips", link_bit_flips);
    v("llc_bit_flips", llc_bit_flips);
    v("flit_drops", flit_drops);
    v("flit_duplicates", flit_duplicates);
    v("engine_stalls", engine_stalls);
    v("engine_faults", engine_faults);
  }
};

class FaultInjector {
 public:
  FaultInjector(const FaultConfig& cfg, std::uint64_t seed)
      : cfg_(cfg), rng_(splitmix64(seed, 0xFA170ULL)) {}

  const FaultConfig& config() const { return cfg_; }
  bool enabled() const { return cfg_.enabled; }
  const FaultCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = FaultCounters{}; }

  /// Flip one random bit of a compressed payload traversing a link.
  /// Returns true when a fault was injected.
  bool corrupt_link_payload(std::vector<std::uint8_t>& bytes) {
    if (bytes.empty() || !coin(cfg_.link_bit_flip_rate)) return false;
    flip_random_bit(bytes);
    ++counters_.link_bit_flips;
    return true;
  }

  /// Flip one random bit of a compressed block read out of an L2 bank.
  bool corrupt_llc_payload(std::vector<std::uint8_t>& bytes) {
    if (bytes.empty() || !coin(cfg_.llc_bit_flip_rate)) return false;
    flip_random_bit(bytes);
    ++counters_.llc_bit_flips;
    return true;
  }

  /// Flip one random bit of a DISCO engine's compression output (a silent
  /// hardware fault in the compressor datapath).
  bool corrupt_engine_output(std::vector<std::uint8_t>& bytes) {
    if (bytes.empty() || !coin(cfg_.engine_fault_rate)) return false;
    flip_random_bit(bytes);
    ++counters_.engine_faults;
    return true;
  }

  bool should_drop_flit() {
    if (!coin(cfg_.flit_drop_rate)) return false;
    ++counters_.flit_drops;
    return true;
  }

  bool should_duplicate_flit() {
    if (!coin(cfg_.flit_duplicate_rate)) return false;
    ++counters_.flit_duplicates;
    return true;
  }

  bool should_stall_engine() {
    if (!coin(cfg_.engine_stall_rate)) return false;
    ++counters_.engine_stalls;
    return true;
  }

 private:
  /// A site's fault coin. A zero-rate site draws nothing, so it cannot shift
  /// which faults the sites sharing the stream inject.
  bool coin(double rate) { return rate > 0.0 && rng_.chance(rate); }

  void flip_random_bit(std::vector<std::uint8_t>& bytes) {
    const std::uint64_t bit = rng_.next_below(bytes.size() * 8);
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
  }

  FaultConfig cfg_;
  Rng rng_;
  FaultCounters counters_;
};

}  // namespace disco::fault
