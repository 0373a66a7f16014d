#include "compress/fpc.h"

#include <cstring>

#include "compress/bitstream.h"

namespace disco::compress {
namespace {

constexpr std::size_t kWords = kBlockBytes / 4;  // 16 x 32-bit words
constexpr std::uint8_t kFpcTag = 0x00;

std::uint32_t load_word(const BlockBytes& b, std::size_t i) {
  std::uint32_t v;
  std::memcpy(&v, b.data() + i * 4, 4);
  return v;
}

bool sign_fits(std::uint32_t w, unsigned bits) {
  const auto s = static_cast<std::int32_t>(w);
  return s >= -(1 << (bits - 1)) && s < (1 << (bits - 1));
}

// FPC 3-bit prefixes.
enum FpcPrefix : unsigned {
  kZeroRun = 0,       // + 3-bit run length (1..8 encoded as 0..7)
  kSignExt4 = 1,      // + 4 bits
  kSignExt8 = 2,      // + 8 bits
  kSignExt16 = 3,     // + 16 bits
  kZeroPadded = 4,    // + 16 bits: word == halfword << 16
  kTwoHalfBytes = 5,  // + 16 bits: each halfword is a sign-extended byte
  kRepBytes = 6,      // + 8 bits: word is 4 identical bytes
  kRawWord = 7,       // + 32 bits
};

/// One 3-bit prefix and its `width`-bit payload, in a single put.
void put_coded(BitWriter& bw, unsigned prefix, std::uint64_t payload, unsigned width) {
  bw.put((std::uint64_t{prefix} << width) | payload, 3 + width);
}

bool half_is_sign_ext_byte(std::uint16_t h) {
  const auto s = static_cast<std::int16_t>(h);
  return s >= -128 && s < 128;
}

}  // namespace

Encoded FpcAlgorithm::compress(const BlockBytes& block) const {
  BitWriter bw(kFpcTag);
  std::size_t i = 0;
  while (i < kWords) {
    const std::uint32_t w = load_word(block, i);
    if (w == 0) {
      std::size_t run = 1;
      while (i + run < kWords && run < 8 && load_word(block, i + run) == 0) ++run;
      put_coded(bw, kZeroRun, run - 1, 3);
      i += run;
      continue;
    }
    if (sign_fits(w, 4)) {
      put_coded(bw, kSignExt4, w & 0xF, 4);
    } else if (sign_fits(w, 8)) {
      put_coded(bw, kSignExt8, w & 0xFF, 8);
    } else if (sign_fits(w, 16)) {
      put_coded(bw, kSignExt16, w & 0xFFFF, 16);
    } else if ((w & 0xFFFF) == 0) {
      put_coded(bw, kZeroPadded, w >> 16, 16);
    } else if (half_is_sign_ext_byte(static_cast<std::uint16_t>(w >> 16)) &&
               half_is_sign_ext_byte(static_cast<std::uint16_t>(w))) {
      put_coded(bw, kTwoHalfBytes, ((w >> 8) & 0xFF00) | (w & 0xFF), 16);
    } else {
      const std::uint8_t b0 = static_cast<std::uint8_t>(w);
      if (((w >> 8) & 0xFF) == b0 && ((w >> 16) & 0xFF) == b0 &&
          ((w >> 24) & 0xFF) == b0) {
        put_coded(bw, kRepBytes, b0, 8);
      } else {
        put_coded(bw, kRawWord, w, 32);
      }
    }
    ++i;
  }
  return encoded_or_raw(bw, block);
}

BlockBytes FpcAlgorithm::decompress(std::span<const std::uint8_t> enc) const {
  if (enc.empty()) throw DecodeError("empty FPC stream");
  if (is_raw(enc)) return decode_raw(enc);
  if (enc.front() != kFpcTag) throw DecodeError("invalid FPC tag");
  BitReader br(enc.subspan(1));
  BlockBytes out{};
  std::size_t i = 0;
  while (i < kWords) {
    const auto prefix = static_cast<unsigned>(br.get(3));
    std::uint32_t w = 0;
    switch (prefix) {
      case kZeroRun: {
        const auto run = static_cast<std::size_t>(br.get(3)) + 1;
        if (i + run > kWords) throw DecodeError("FPC zero run overflows block");
        i += run;  // words already zero-initialized
        continue;
      }
      case kSignExt4: {
        const auto v = static_cast<std::uint32_t>(br.get(4));
        w = static_cast<std::uint32_t>(static_cast<std::int32_t>(v << 28) >> 28);
        break;
      }
      case kSignExt8: {
        const auto v = static_cast<std::uint32_t>(br.get(8));
        w = static_cast<std::uint32_t>(static_cast<std::int32_t>(v << 24) >> 24);
        break;
      }
      case kSignExt16: {
        const auto v = static_cast<std::uint32_t>(br.get(16));
        w = static_cast<std::uint32_t>(static_cast<std::int32_t>(v << 16) >> 16);
        break;
      }
      case kZeroPadded:
        w = static_cast<std::uint32_t>(br.get(16)) << 16;
        break;
      case kTwoHalfBytes: {
        const auto hi = static_cast<std::uint32_t>(br.get(8));
        const auto lo = static_cast<std::uint32_t>(br.get(8));
        const auto ext = [](std::uint32_t b) {
          return static_cast<std::uint16_t>(static_cast<std::int16_t>(
                     static_cast<std::int8_t>(b)));
        };
        w = (static_cast<std::uint32_t>(ext(hi)) << 16) | ext(lo);
        break;
      }
      case kRepBytes: {
        const auto b = static_cast<std::uint32_t>(br.get(8));
        w = b | (b << 8) | (b << 16) | (b << 24);
        break;
      }
      default:
        w = static_cast<std::uint32_t>(br.get(32));
        break;
    }
    std::memcpy(out.data() + i * 4, &w, 4);
    ++i;
  }
  br.expect_no_trailing_bytes();
  return out;
}

// ---------------------------------------------------------------------------
// SFPC: simplified FPC — the same 3-bit prefix format (so the decoder
// pipeline is one stage shorter, Table 1: 4 vs 5 cycles) but only a subset
// of the patterns: single zero word, sign-extended byte/halfword, raw.
// No zero-run coding and no padded/repeated patterns -> strictly lower
// compression ratio than FPC (Table 1: 1.33 vs 1.5).
namespace {
enum SfpcPrefix : unsigned { kSZero = 0, kSByte = 1, kSHalf = 2, kSRaw = 7 };
}

Encoded SfpcAlgorithm::compress(const BlockBytes& block) const {
  BitWriter bw(kFpcTag);
  for (std::size_t i = 0; i < kWords; ++i) {
    const std::uint32_t w = load_word(block, i);
    if (w == 0) {
      bw.put(kSZero, 3);
    } else if (sign_fits(w, 8)) {
      put_coded(bw, kSByte, w & 0xFF, 8);
    } else if (sign_fits(w, 16)) {
      put_coded(bw, kSHalf, w & 0xFFFF, 16);
    } else {
      put_coded(bw, kSRaw, w, 32);
    }
  }
  return encoded_or_raw(bw, block);
}

BlockBytes SfpcAlgorithm::decompress(std::span<const std::uint8_t> enc) const {
  if (enc.empty()) throw DecodeError("empty SFPC stream");
  if (is_raw(enc)) return decode_raw(enc);
  if (enc.front() != kFpcTag) throw DecodeError("invalid SFPC tag");
  BitReader br(enc.subspan(1));
  BlockBytes out{};
  for (std::size_t i = 0; i < kWords; ++i) {
    std::uint32_t w = 0;
    switch (static_cast<unsigned>(br.get(3))) {
      case kSZero:
        break;
      case kSByte: {
        const auto v = static_cast<std::uint32_t>(br.get(8));
        w = static_cast<std::uint32_t>(static_cast<std::int32_t>(v << 24) >> 24);
        break;
      }
      case kSHalf: {
        const auto v = static_cast<std::uint32_t>(br.get(16));
        w = static_cast<std::uint32_t>(static_cast<std::int32_t>(v << 16) >> 16);
        break;
      }
      default:
        w = static_cast<std::uint32_t>(br.get(32));
        break;
    }
    std::memcpy(out.data() + i * 4, &w, 4);
  }
  br.expect_no_trailing_bytes();
  return out;
}

}  // namespace disco::compress
