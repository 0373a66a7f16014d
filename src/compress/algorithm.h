// Abstract interface for cache-block compression algorithms. DISCO is
// algorithm-agnostic (paper section 2): every algorithm plugs into the same
// router/cache machinery through this interface. Compression is exact and
// lossless: decompress(compress(b)) == b for every 64-byte block, and the
// encoded size includes all metadata bits so compression ratios are honest.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/types.h"
#include "compress/decode_error.h"

namespace disco::compress {

/// De/compression pipeline timing, per Table 1 of the paper (cycles at the
/// router/cache clock).
struct LatencyModel {
  std::uint32_t comp_cycles = 1;
  std::uint32_t decomp_cycles = 3;
};

/// Encoded form of one cache block. `size()` is the storage/transfer size
/// used by the cache segment allocator and the flit packer; it includes
/// `overhead_bytes` of framing metadata (e.g. the concatenation tags of
/// separate-flit compression) that occupy wire/storage space but are not
/// part of the decodable stream in `bytes`.
struct Encoded {
  std::vector<std::uint8_t> bytes;
  std::size_t overhead_bytes = 0;
  std::size_t size() const { return bytes.size() + overhead_bytes; }
};

class Algorithm {
 public:
  virtual ~Algorithm() = default;

  virtual std::string_view name() const = 0;
  virtual LatencyModel latency() const = 0;
  /// Fraction of router/cache area the hardware unit adds (Table 1 column
  /// "Hardware Overhead"); consumed by the area model.
  virtual double hardware_overhead() const = 0;

  /// Encode a block. Implementations must fall back to a raw encoding
  /// (1 tag byte + 64 data bytes) when compression would not help, so the
  /// result is never larger than kBlockBytes + 1.
  virtual Encoded compress(const BlockBytes& block) const = 0;

  /// Exact inverse of compress(). Throws DecodeError on malformed input
  /// (truncated, overlong or invalid streams) instead of asserting.
  virtual BlockBytes decompress(std::span<const std::uint8_t> enc) const = 0;

  /// Non-throwing decode for untrusted streams (fault injection, fuzzing):
  /// std::nullopt on any malformed input, the exact block otherwise.
  std::optional<BlockBytes> try_decompress(
      std::span<const std::uint8_t> enc) const;
};

/// Shared raw-fallback helpers (tag byte 0xFF == stored uncompressed).
inline constexpr std::uint8_t kRawTag = 0xFF;

Encoded encode_raw(const BlockBytes& block);
bool is_raw(std::span<const std::uint8_t> enc);
BlockBytes decode_raw(std::span<const std::uint8_t> enc);

}  // namespace disco::compress
