#include "compress/algorithm.h"

#include <cassert>

namespace disco::compress {

Encoded encode_raw(const BlockBytes& block) {
  Encoded e;
  e.bytes.reserve(1 + kBlockBytes);
  e.bytes.push_back(kRawTag);
  e.bytes.insert(e.bytes.end(), block.begin(), block.end());
  return e;
}

bool is_raw(std::span<const std::uint8_t> enc) {
  return !enc.empty() && enc.front() == kRawTag;
}

BlockBytes decode_raw(std::span<const std::uint8_t> enc) {
  if (!is_raw(enc) || enc.size() != 1 + kBlockBytes)
    throw DecodeError("malformed raw encoding");
  BlockBytes b{};
  for (std::size_t i = 0; i < kBlockBytes; ++i) b[i] = enc[1 + i];
  return b;
}

std::optional<BlockBytes> Algorithm::try_decompress(
    std::span<const std::uint8_t> enc) const {
  if (enc.empty()) return std::nullopt;
  try {
    return decompress(enc);
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace disco::compress
