// Core scalar types and chip-wide constants shared by every DISCO module.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace disco {

/// Simulation time in router clock cycles.
using Cycle = std::uint64_t;

/// Physical byte address.
using Addr = std::uint64_t;

/// Flat tile index on the mesh (row-major).
using NodeId = std::uint16_t;

inline constexpr NodeId kInvalidNode = 0xFFFF;

/// Cache line geometry fixed by the paper's Table 2 (64B lines, 8B flits).
inline constexpr std::size_t kBlockBytes = 64;
inline constexpr std::size_t kFlitBytes = 8;
inline constexpr std::size_t kWordsPerBlock = kBlockBytes / 8;

/// Raw contents of one cache line.
using BlockBytes = std::array<std::uint8_t, kBlockBytes>;

/// Zero-initialized block value.
inline BlockBytes zero_block() { return BlockBytes{}; }

/// Where a packet endpoint lives inside a tile. Every tile's router local
/// port multiplexes the core-side L1 NI and the L2-bank NI; edge tiles may
/// additionally host a memory-controller NI.
enum class UnitKind : std::uint8_t { Core = 0, L2Bank = 1, MemCtrl = 2 };

/// The three traffic classes of a cache-coherent CMP (paper section 3.3C).
/// Each maps to its own virtual network to avoid protocol deadlock.
enum class VNet : std::uint8_t { Request = 0, Response = 1, Coherence = 2 };
inline constexpr std::size_t kNumVNets = 3;

/// On-chip data compression deployment points compared in the evaluation.
enum class Scheme : std::uint8_t {
  Baseline,  ///< no compression anywhere
  CC,        ///< per-bank cache compression only
  CNC,       ///< cache compression + per-NI link compression
  DISCO,     ///< unified in-network compression (this paper)
  Ideal      ///< compression everywhere at zero latency (normalization basis)
};

const char* to_string(Scheme s);
/// The scheme whose to_string name is `name`, ignoring case; nullopt when
/// none is.
std::optional<Scheme> scheme_from_name(std::string_view name);
const char* to_string(UnitKind k);
const char* to_string(VNet v);

}  // namespace disco
