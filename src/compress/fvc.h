// Frequent Value Compression (Jin/Zhou et al., the paper's NoC-compression
// references [7][8]): a small table of globally frequent 32-bit values;
// each word is either a short table index or an escaped literal. The table
// is trainable from sampled traffic like the hardware's profiling phase.
//
// Encoding: [tag][per-word: 1 bit hit/miss + (k-bit index | 32-bit literal)]
#pragma once

#include <span>
#include <vector>

#include "compress/algorithm.h"
#include "compress/word_table.h"

namespace disco::compress {

class FvcAlgorithm final : public Algorithm {
 public:
  /// Default table: the values that dominate real traffic (zero, small
  /// constants, all-ones). retrain() replaces it from a sample.
  FvcAlgorithm();
  explicit FvcAlgorithm(std::span<const BlockBytes> sample);

  std::string_view name() const override { return "fvc"; }
  LatencyModel latency() const override { return {1, 2}; }
  double hardware_overhead() const override { return 0.04; }

  Encoded compress(const BlockBytes& block) const override;
  BlockBytes decompress(std::span<const std::uint8_t> enc) const override;

  void retrain(std::span<const BlockBytes> sample);

  static constexpr std::size_t kTableEntries = 8;  // 3-bit index

 private:
  std::vector<std::uint32_t> table_;
  WordTable index_of_;
};

}  // namespace disco::compress
