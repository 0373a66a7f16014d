// Per-call measurements of the layers a full-CMP cell cannot time from
// outside: the compressor kernels (on a corpus drawn from the workload's own
// data) and the workload generators.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "workload/profile.h"

namespace perfbench {

/// The algorithms whose kernels the benchmark times (Fig. 5 and Fig. 6).
inline const std::vector<std::string>& codec_names() {
  static const std::vector<std::string> names = {"delta", "fpc", "sc2"};
  return names;
}

struct CodecTiming {
  std::string algorithm;
  double compress_ns = 0;    ///< median over repetitions, per 64 B block
  double decompress_ns = 0;
};

/// decompress(compress(b)) == b for every block under every algorithm in
/// codec_names(); returns an empty string, or the first failure.
std::string check_roundtrip(const std::vector<disco::BlockBytes>& corpus);

std::vector<CodecTiming> time_codecs(const std::vector<disco::BlockBytes>& corpus);

/// ns per workload::TraceGenerator::next: per profile the median over
/// repetitions, then the mean over the profiles.
double trace_op_ns(const std::vector<const disco::workload::BenchmarkProfile*>& profiles,
                   std::uint64_t seed);
/// ns per workload::ValueSynthesizer::block_for, aggregated the same way.
double block_for_ns(const std::vector<const disco::workload::BenchmarkProfile*>& profiles,
                    std::uint64_t seed);

}  // namespace perfbench
