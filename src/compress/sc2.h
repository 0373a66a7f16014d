// SC² statistical cache compression (Arelakis & Stenström, ISCA 2014; paper
// reference [3]): value-frequency sampling builds a Huffman code over the
// most frequent 32-bit words; rare words escape to a literal encoding. The
// paper reports ~2.4x average compression at 6-cycle compression and
// 8/14-cycle decompression.
//
// The code table is trained from sampled blocks — either the built-in
// generic corpus (constructor) or a workload sample via retrain(), mirroring
// SC²'s sampling phase.
#pragma once

#include <span>
#include <vector>

#include "compress/algorithm.h"
#include "compress/huffman.h"
#include "compress/word_table.h"

namespace disco::compress {

class Sc2Algorithm final : public Algorithm {
 public:
  /// Trains on a deterministic built-in corpus so the algorithm is usable
  /// out of the box; systems retrain on workload samples during warmup.
  Sc2Algorithm();
  explicit Sc2Algorithm(std::span<const BlockBytes> training_blocks);

  std::string_view name() const override { return "sc2"; }
  LatencyModel latency() const override { return {6, 14}; }  // worst of 8/14
  double hardware_overhead() const override { return 0.027; }  // mid of 1.46-3.9%

  Encoded compress(const BlockBytes& block) const override;
  BlockBytes decompress(std::span<const std::uint8_t> enc) const override;

  /// Rebuild the code table from a workload sample (SC² sampling phase).
  void retrain(std::span<const BlockBytes> training_blocks);

 private:
  static constexpr std::size_t kTableWords = 255;  ///< frequent-word symbols
  static constexpr std::size_t kEscape = kTableWords;  ///< escape symbol id

  HuffmanCode code_;
  std::vector<std::uint32_t> word_of_symbol_;
  WordTable symbol_of_word_;
};

}  // namespace disco::compress
