// Canonical Huffman coding over a bounded symbol alphabet, used by the SC²
// statistical compressor. Codes are derived from symbol frequencies with the
// package-merge-free classic algorithm; canonical assignment makes encoder
// and decoder tables reproducible from code lengths alone.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "compress/bitstream.h"

namespace disco::compress {

struct HuffCode {
  std::uint64_t bits = 0;
  std::uint8_t length = 0;
};

class HuffmanCode {
 public:
  /// Build from per-symbol frequencies (size = alphabet size). Symbols with
  /// zero frequency get no code; encoding them is a caller bug.
  static HuffmanCode build(const std::vector<std::uint64_t>& freqs);

  std::size_t alphabet_size() const { return codes_.size(); }
  const HuffCode& code(std::size_t symbol) const { return codes_[symbol]; }
  bool has_code(std::size_t symbol) const { return codes_[symbol].length > 0; }

  void encode(BitWriter& bw, std::size_t symbol) const {
    const HuffCode& c = codes_[symbol];
    assert(c.length > 0 && "encoding symbol without a code");
    bw.put(c.bits, c.length);
  }
  /// Decode one symbol by walking the canonical table on a peeked window.
  std::size_t decode(BitReader& br) const;

 private:
  /// Canonical decode table row for one code length.
  struct LengthRow {
    std::uint64_t first_code = 0;   ///< first canonical code of this length
    std::uint32_t count = 0;        ///< number of codes of this length
    std::uint32_t first_index = 0;  ///< index into sorted_symbols_
  };

  std::vector<HuffCode> codes_;
  std::vector<LengthRow> rows_;  ///< indexed by code length (1..max)
  std::vector<std::uint32_t> sorted_symbols_;
  std::uint8_t max_len_ = 0;

  void build_decode_tables();
};

}  // namespace disco::compress
