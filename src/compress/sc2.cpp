#include "compress/sc2.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "common/rng.h"

namespace disco::compress {
namespace {

constexpr std::size_t kWords = kBlockBytes / 4;
constexpr std::uint8_t kSc2Tag = 0x00;

std::uint32_t load_word(const BlockBytes& b, std::size_t i) {
  std::uint32_t v;
  std::memcpy(&v, b.data() + i * 4, 4);
  return v;
}

/// Deterministic generic training corpus: mixes the value populations that
/// dominate real workloads (zeros, small integers, pointer-like values,
/// repeated words) so an untrained SC² still behaves sensibly.
std::vector<BlockBytes> generic_corpus() {
  std::vector<BlockBytes> corpus;
  Rng rng(0xC0DEC0DEULL);
  for (int n = 0; n < 512; ++n) {
    BlockBytes b{};
    const int kind = n % 4;
    for (std::size_t w = 0; w < kWords; ++w) {
      std::uint32_t v = 0;
      switch (kind) {
        case 0: v = 0; break;
        case 1: v = static_cast<std::uint32_t>(rng.next_below(256)); break;
        case 2: v = 0x08000000U + static_cast<std::uint32_t>(rng.next_below(64)) * 8; break;
        default: v = rng.next_u32(); break;
      }
      std::memcpy(b.data() + w * 4, &v, 4);
    }
    corpus.push_back(b);
  }
  return corpus;
}

}  // namespace

Sc2Algorithm::Sc2Algorithm() {
  const auto corpus = generic_corpus();
  retrain(std::span<const BlockBytes>(corpus.data(), corpus.size()));
}

Sc2Algorithm::Sc2Algorithm(std::span<const BlockBytes> training_blocks) {
  retrain(training_blocks);
}

void Sc2Algorithm::retrain(std::span<const BlockBytes> training_blocks) {
  std::unordered_map<std::uint32_t, std::uint64_t> counts;
  std::uint64_t total_words = 0;
  for (const auto& block : training_blocks) {
    for (std::size_t w = 0; w < kWords; ++w) {
      ++counts[load_word(block, w)];
      ++total_words;
    }
  }

  // Keep the kTableWords most frequent words as symbols.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> sorted(counts.begin(),
                                                              counts.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // deterministic tie-break
  });
  if (sorted.size() > kTableWords) sorted.resize(kTableWords);

  word_of_symbol_.clear();
  std::vector<std::uint64_t> freqs(kTableWords + 1, 0);
  std::uint64_t covered = 0;
  for (std::size_t s = 0; s < sorted.size(); ++s) {
    word_of_symbol_.push_back(sorted[s].first);
    freqs[s] = sorted[s].second;
    covered += sorted[s].second;
  }
  symbol_of_word_.assign(word_of_symbol_);
  // Escape frequency = everything not covered by the table (at least 1 so
  // the escape path always has a code).
  freqs[kEscape] = std::max<std::uint64_t>(total_words - covered, 1);
  code_ = HuffmanCode::build(freqs);
}

Encoded Sc2Algorithm::compress(const BlockBytes& block) const {
  BitWriter bw(kSc2Tag);
  for (std::size_t i = 0; i < kWords; ++i) {
    const std::uint32_t w = load_word(block, i);
    const std::uint32_t symbol = symbol_of_word_.find(w);
    if (symbol != WordTable::kAbsent) {
      code_.encode(bw, symbol);
    } else {
      code_.encode(bw, kEscape);
      bw.put(w, 32);
    }
    // Code lengths are unbounded by the block, so stop as soon as the
    // stream can no longer beat raw: it then never outgrows the writer's
    // inline buffer.
    if (bw.byte_count() > kBlockBytes) return encode_raw(block);
  }
  return encoded_or_raw(bw, block);
}

BlockBytes Sc2Algorithm::decompress(std::span<const std::uint8_t> enc) const {
  if (enc.empty()) throw DecodeError("empty SC2 stream");
  if (is_raw(enc)) return decode_raw(enc);
  if (enc.front() != kSc2Tag) throw DecodeError("invalid SC2 tag");
  BitReader br(enc.subspan(1));
  BlockBytes out{};
  for (std::size_t i = 0; i < kWords; ++i) {
    const std::size_t symbol = code_.decode(br);
    std::uint32_t w;
    if (symbol == kEscape) {
      w = static_cast<std::uint32_t>(br.get(32));
    } else {
      if (symbol >= word_of_symbol_.size())
        throw DecodeError("SC2 symbol out of table range");
      w = word_of_symbol_[symbol];
    }
    std::memcpy(out.data() + i * 4, &w, 4);
  }
  br.expect_no_trailing_bytes();
  return out;
}

}  // namespace disco::compress
