#include "compress/zerobit.h"

#include "compress/bitstream.h"

namespace disco::compress {
namespace {

constexpr std::size_t kWords = kBlockBytes / 4;
constexpr std::uint8_t kZeroBitTag = 0x00;

}  // namespace

Encoded ZeroBitAlgorithm::compress(const BlockBytes& block) const {
  BitWriter bw(kZeroBitTag);
  for (std::size_t w = 0; w < kWords; ++w) {
    unsigned mask = 0;
    for (unsigned byte = 0; byte < 4; ++byte) {
      if (block[w * 4 + byte] != 0) mask |= (1u << byte);
    }
    bw.put(mask, 4);
    for (unsigned byte = 0; byte < 4; ++byte) {
      if (mask & (1u << byte)) bw.put(block[w * 4 + byte], 8);
    }
  }
  return encoded_or_raw(bw, block);
}

BlockBytes ZeroBitAlgorithm::decompress(std::span<const std::uint8_t> enc) const {
  if (enc.empty()) throw DecodeError("empty zero-bit stream");
  if (is_raw(enc)) return decode_raw(enc);
  if (enc.front() != kZeroBitTag) throw DecodeError("invalid zero-bit tag");
  BitReader br(enc.subspan(1));
  BlockBytes out{};
  for (std::size_t w = 0; w < kWords; ++w) {
    const auto mask = static_cast<unsigned>(br.get(4));
    for (unsigned byte = 0; byte < 4; ++byte) {
      if (mask & (1u << byte))
        out[w * 4 + byte] = static_cast<std::uint8_t>(br.get(8));
    }
  }
  br.expect_no_trailing_bytes();
  return out;
}

}  // namespace disco::compress
