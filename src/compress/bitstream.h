// MSB-first bit stream writer/reader used by the bit-granular algorithms
// (FPC, SFPC, C-Pack, SC², FVC, zero-bit). Encoded sizes are rounded up to
// whole bytes, matching how a hardware packer pads the last flit fragment.
//
// Both sides move whole words, as a hardware packer shifts them: the writer
// gathers bits in a 64-bit accumulator and stores each full word into a
// buffer in its own frame, and the reader cuts every field out of one 64-bit
// big-endian window. A compressor starts the writer with its tag byte and
// ends with encoded_or_raw(), so an encoded block costs one heap allocation
// of exactly its final size, and a raw fallback costs only encode_raw's own.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "compress/algorithm.h"

namespace disco::compress {

/// Big-endian <-> host order for a 64-bit word (its own inverse).
inline std::uint64_t swap_big_endian(std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::little)
    return __builtin_bswap64(v);
  return v;
}

class BitWriter {
 public:
  BitWriter() = default;
  /// Starts the stream with an algorithm's tag byte.
  explicit BitWriter(std::uint8_t tag) { put(tag, 8); }

  /// Append the low `nbits` of `value`, MSB first.
  void put(std::uint64_t value, unsigned nbits) {
    assert(nbits <= 64);
    if (nbits == 0) return;
    if (nbits < 64) value &= (std::uint64_t{1} << nbits) - 1;
    const unsigned free = 64 - acc_bits_;
    if (nbits < free) {
      acc_ |= value << (free - nbits);
      acc_bits_ += nbits;
      return;
    }
    const unsigned rest = nbits - free;  // bits that open the next word
    store_word(acc_ | (value >> rest));
    acc_ = rest == 0 ? 0 : value << (64 - rest);
    acc_bits_ = rest;
  }

  void put_bit(bool bit) { put(bit ? 1 : 0, 1); }

  std::size_t bit_count() const { return stored_ * 8 + acc_bits_; }
  std::size_t byte_count() const { return (bit_count() + 7) / 8; }

  /// The stream so far, zero-padded to whole bytes, in a vector of exactly
  /// byte_count() bytes.
  std::vector<std::uint8_t> bytes() const {
    const std::uint64_t be = swap_big_endian(acc_);
    std::uint8_t tail[8];
    std::memcpy(tail, &be, 8);
    const std::uint8_t* head = spill_.empty() ? inline_.data() : spill_.data();
    std::vector<std::uint8_t> out;
    out.reserve(byte_count());
    out.insert(out.end(), head, head + stored_);
    out.insert(out.end(), tail, tail + (acc_bits_ + 7) / 8);
    return out;
  }

  /// bytes(), leaving the writer empty.
  std::vector<std::uint8_t> take() {
    std::vector<std::uint8_t> out = bytes();
    *this = BitWriter();
    return out;
  }

 private:
  /// Room for the longest stream a compressor writes before its raw-fallback
  /// check, in whole words: zero-bit's tag + 16 x 36 bits (73 bytes), or
  /// SC²'s 64 bytes plus one escaped word (a code of at most 64 bits + a
  /// 32-bit literal; 76 bytes). Only longer streams, which no block
  /// produces, move to the heap.
  static constexpr std::size_t kInlineBytes = 80;

  void store_word(std::uint64_t word) {
    const std::uint64_t be = swap_big_endian(word);
    if (spill_.empty() && stored_ + 8 <= kInlineBytes) {
      std::memcpy(inline_.data() + stored_, &be, 8);
    } else {
      if (spill_.empty()) spill_.assign(inline_.data(), inline_.data() + stored_);
      spill_.resize(stored_ + 8);
      std::memcpy(spill_.data() + stored_, &be, 8);
    }
    stored_ += 8;
  }

  std::uint64_t acc_ = 0;     ///< pending bits, left-aligned
  unsigned acc_bits_ = 0;     ///< number of pending bits (< 64)
  std::size_t stored_ = 0;    ///< bytes stored, always whole words
  std::array<std::uint8_t, kInlineBytes> inline_{};
  std::vector<std::uint8_t> spill_;  ///< every stored byte, once past inline_
};

/// A compressor's result: the writer's stream if it is no longer than a raw
/// block's payload, else the raw fallback. Only a stream that stays
/// compressed is materialized.
inline Encoded encoded_or_raw(const BitWriter& bw, const BlockBytes& block) {
  if (bw.byte_count() > kBlockBytes) return encode_raw(block);
  return Encoded{bw.bytes()};
}

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> data) : data_(data) {}

  /// The next 64 bits, MSB first; bits past the end of the stream read as
  /// zero. Loads only bytes inside the span.
  std::uint64_t peek() const {
    const std::size_t byte = pos_ / 8;
    const unsigned shift = pos_ & 7;
    std::uint64_t w = 0;
    if (byte + 8 <= data_.size()) {
      std::memcpy(&w, data_.data() + byte, 8);
      w = swap_big_endian(w);
    } else {
      for (std::size_t i = byte; i < data_.size(); ++i)
        w |= std::uint64_t{data_[i]} << (56 - 8 * (i - byte));
    }
    if (shift != 0) {
      w <<= shift;
      if (byte + 8 < data_.size()) w |= data_[byte + 8] >> (8 - shift);
    }
    return w;
  }

  std::size_t bits_left() const { return data_.size() * 8 - pos_; }

  /// Consume `nbits` already inspected with peek().
  void skip(unsigned nbits) {
    if (nbits > bits_left()) throw DecodeError("bit stream truncated");
    pos_ += nbits;
  }

  std::uint64_t get(unsigned nbits) {
    assert(nbits <= 64);
    if (nbits == 0) return 0;
    if (nbits > bits_left()) throw DecodeError("bit stream truncated");
    const std::uint64_t v = peek() >> (64 - nbits);
    pos_ += nbits;
    return v;
  }

  bool get_bit() { return get(1) != 0; }

  /// Bit-packed streams round up to whole bytes, so a well-formed stream
  /// leaves at most 7 padding bits. Called by decoders after the final
  /// symbol to reject overlong streams.
  void expect_no_trailing_bytes() const {
    if ((pos_ + 7) / 8 != data_.size()) throw DecodeError("overlong bit stream");
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace disco::compress
