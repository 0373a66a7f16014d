// Word -> index lookup for the table-driven compressors (SC²'s frequent-word
// symbols, FVC's frequent values). Open addressing with linear probing over a
// power-of-two array at most half full, built once per (re)training. The
// layout depends only on the words and their order, so it is identical on
// every run, and a lookup is one multiply plus a short probe of one flat
// array instead of a hashed node chase.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace disco::compress {

class WordTable {
 public:
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};

  /// Map each of `words` (distinct) to its position in the span.
  void assign(std::span<const std::uint32_t> words) {
    const std::size_t capacity =
        std::bit_ceil(std::max<std::size_t>(2 * words.size(), 2));
    shift_ = 64 - std::countr_zero(capacity);
    slots_.assign(capacity, Slot{});
    for (std::size_t i = 0; i < words.size(); ++i) {
      std::size_t s = home_of(words[i]);
      while (slots_[s].index != kAbsent) {
        assert(slots_[s].word != words[i] && "WordTable words must be distinct");
        s = (s + 1) & (capacity - 1);
      }
      slots_[s] = Slot{words[i], static_cast<std::uint32_t>(i)};
    }
  }

  /// Position of `word` in the assigned span, or kAbsent.
  std::uint32_t find(std::uint32_t word) const {
    for (std::size_t s = home_of(word);; s = (s + 1) & (slots_.size() - 1)) {
      const Slot& slot = slots_[s];
      if (slot.index == kAbsent || slot.word == word) return slot.index;
    }
  }

 private:
  struct Slot {
    std::uint32_t word = 0;
    std::uint32_t index = kAbsent;
  };

  std::size_t home_of(std::uint32_t word) const {
    return static_cast<std::size_t>((word * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<Slot> slots_ = std::vector<Slot>(2);  ///< empty until assign()
  unsigned shift_ = 63;
};

}  // namespace disco::compress
