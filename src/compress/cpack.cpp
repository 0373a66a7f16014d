#include "compress/cpack.h"

#include <cstring>

#include "compress/bitstream.h"

namespace disco::compress {
namespace {

constexpr std::size_t kWords = kBlockBytes / 4;
constexpr std::size_t kDictEntries = 16;
constexpr std::uint8_t kCpackTag = 0x00;

/// FIFO dictionary replicated by compressor and decompressor.
class Dict {
 public:
  void push(std::uint32_t w) {
    entries_[head_] = w;
    head_ = (head_ + 1) % kDictEntries;
    if (size_ < kDictEntries) ++size_;
  }
  std::size_t size() const { return size_; }
  std::uint32_t at(std::size_t physical_index) const { return entries_[physical_index]; }

  /// Best match: 2 = full word, 1 = high 3 bytes, 0 = high halfword only,
  /// -1 = none. Lowest physical index wins ties for determinism.
  int best_match(std::uint32_t w, std::size_t& index) const {
    int best = -1;
    for (std::size_t i = 0; i < size_; ++i) {
      const std::uint32_t e = entries_[i];
      int quality = -1;
      if (e == w) quality = 2;
      else if ((e & 0xFFFFFF00U) == (w & 0xFFFFFF00U)) quality = 1;
      else if ((e & 0xFFFF0000U) == (w & 0xFFFF0000U)) quality = 0;
      if (quality > best) {
        best = quality;
        index = i;
      }
    }
    return best;
  }

 private:
  std::uint32_t entries_[kDictEntries]{};
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

std::uint32_t load_word(const BlockBytes& b, std::size_t i) {
  std::uint32_t v;
  std::memcpy(&v, b.data() + i * 4, 4);
  return v;
}

}  // namespace

Encoded CpackAlgorithm::compress(const BlockBytes& block) const {
  BitWriter bw(kCpackTag);
  Dict dict;
  for (std::size_t i = 0; i < kWords; ++i) {
    const std::uint32_t w = load_word(block, i);
    if (w == 0) {
      bw.put(0b00, 2);  // zzzz
      continue;
    }
    if ((w & 0xFFFFFF00U) == 0) {
      bw.put(0b1101, 4);  // zzzx
      bw.put(w & 0xFF, 8);
      continue;
    }
    std::size_t idx = 0;
    const int match = dict.best_match(w, idx);
    if (match == 2) {
      bw.put(0b10, 2);  // mmmm
      bw.put(idx, 4);
    } else if (match == 1) {
      bw.put(0b1110, 4);  // mmmx
      bw.put(idx, 4);
      bw.put(w & 0xFF, 8);
    } else if (match == 0) {
      bw.put(0b1100, 4);  // mmxx
      bw.put(idx, 4);
      bw.put(w & 0xFFFF, 16);
      dict.push(w);
    } else {
      bw.put(0b01, 2);  // xxxx
      bw.put(w, 32);
      dict.push(w);
    }
  }
  return encoded_or_raw(bw, block);
}

BlockBytes CpackAlgorithm::decompress(std::span<const std::uint8_t> enc) const {
  if (enc.empty()) throw DecodeError("empty C-Pack stream");
  if (is_raw(enc)) return decode_raw(enc);
  if (enc.front() != kCpackTag) throw DecodeError("invalid C-Pack tag");
  BitReader br(enc.subspan(1));
  Dict dict;
  const auto dict_word = [&dict](std::size_t idx) {
    if (idx >= dict.size()) throw DecodeError("invalid C-Pack dictionary index");
    return dict.at(idx);
  };
  BlockBytes out{};
  for (std::size_t i = 0; i < kWords; ++i) {
    std::uint32_t w = 0;
    const bool b0 = br.get_bit();
    const bool b1 = br.get_bit();
    if (!b0 && !b1) {  // 00 zzzz
      w = 0;
    } else if (!b0 && b1) {  // 01 xxxx
      w = static_cast<std::uint32_t>(br.get(32));
      dict.push(w);
    } else if (b0 && !b1) {  // 10 mmmm
      const auto idx = static_cast<std::size_t>(br.get(4));
      w = dict_word(idx);
    } else {  // 11xx four-bit codes
      const bool b2 = br.get_bit();
      const bool b3 = br.get_bit();
      if (!b2 && !b3) {  // 1100 mmxx
        const auto idx = static_cast<std::size_t>(br.get(4));
        const auto low = static_cast<std::uint32_t>(br.get(16));
        w = (dict_word(idx) & 0xFFFF0000U) | low;
        dict.push(w);
      } else if (!b2 && b3) {  // 1101 zzzx
        w = static_cast<std::uint32_t>(br.get(8));
      } else {  // 1110 mmmx
        const auto idx = static_cast<std::size_t>(br.get(4));
        const auto low = static_cast<std::uint32_t>(br.get(8));
        w = (dict_word(idx) & 0xFFFFFF00U) | low;
      }
    }
    std::memcpy(out.data() + i * 4, &w, 4);
  }
  br.expect_no_trailing_bytes();
  return out;
}

}  // namespace disco::compress
