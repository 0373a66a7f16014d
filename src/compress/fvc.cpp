#include "compress/fvc.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "compress/bitstream.h"

namespace disco::compress {
namespace {

constexpr std::size_t kWords = kBlockBytes / 4;
constexpr std::uint8_t kFvcTag = 0x00;
constexpr unsigned kIndexBits = 3;  // log2(kTableEntries)

std::uint32_t load_word(const BlockBytes& b, std::size_t i) {
  std::uint32_t v;
  std::memcpy(&v, b.data() + i * 4, 4);
  return v;
}

}  // namespace

FvcAlgorithm::FvcAlgorithm() {
  table_ = {0x00000000u, 0x00000001u, 0xFFFFFFFFu, 0x00000002u,
            0x00000004u, 0x00000008u, 0x00000010u, 0x000000FFu};
  index_of_.assign(table_);
}

FvcAlgorithm::FvcAlgorithm(std::span<const BlockBytes> sample) : FvcAlgorithm() {
  retrain(sample);
}

void FvcAlgorithm::retrain(std::span<const BlockBytes> sample) {
  std::unordered_map<std::uint32_t, std::uint64_t> counts;
  for (const BlockBytes& b : sample)
    for (std::size_t w = 0; w < kWords; ++w) ++counts[load_word(b, w)];

  std::vector<std::pair<std::uint32_t, std::uint64_t>> sorted(counts.begin(),
                                                              counts.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  table_.clear();
  for (std::size_t i = 0; i < kTableEntries && i < sorted.size(); ++i)
    table_.push_back(sorted[i].first);
  index_of_.assign(table_);  // before the padding, which is not a value
  while (table_.size() < kTableEntries) table_.push_back(0);
}

Encoded FvcAlgorithm::compress(const BlockBytes& block) const {
  BitWriter bw(kFvcTag);
  for (std::size_t i = 0; i < kWords; ++i) {
    const std::uint32_t w = load_word(block, i);
    const std::uint32_t index = index_of_.find(w);
    if (index != WordTable::kAbsent) {
      bw.put_bit(true);
      bw.put(index, kIndexBits);
    } else {
      bw.put_bit(false);
      bw.put(w, 32);
    }
  }
  return encoded_or_raw(bw, block);
}

BlockBytes FvcAlgorithm::decompress(std::span<const std::uint8_t> enc) const {
  if (enc.empty()) throw DecodeError("empty FVC stream");
  if (is_raw(enc)) return decode_raw(enc);
  if (enc.front() != kFvcTag) throw DecodeError("invalid FVC tag");
  BitReader br(enc.subspan(1));
  BlockBytes out{};
  for (std::size_t i = 0; i < kWords; ++i) {
    std::uint32_t w;
    if (br.get_bit()) {
      w = table_[static_cast<std::size_t>(br.get(kIndexBits))];
    } else {
      w = static_cast<std::uint32_t>(br.get(32));
    }
    std::memcpy(out.data() + i * 4, &w, 4);
  }
  br.expect_no_trailing_bytes();
  return out;
}

}  // namespace disco::compress
