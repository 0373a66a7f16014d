// Wire-image pins: the exact bytes every compressor emits on a fixed corpus.
// Round-trip properties cannot catch an encoder and a decoder that change
// format together, and golden traces only see encoded sizes; these FNV-1a
// digests over every (size, bytes) pair can. A digest moves only when the
// encoded format does, so update one only for an intended format change.
#include <gtest/gtest.h>

#include <cstring>
#include <ios>

#include "common/rng.h"
#include "compress/fvc.h"
#include "compress/registry.h"
#include "compress/sc2.h"
#include "workload/value_synth.h"

namespace disco::compress {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

std::uint64_t fnv1a(std::uint64_t h, std::uint8_t byte) {
  return (h ^ byte) * kFnvPrime;
}

BlockBytes block_of_u32(const std::uint32_t (&words)[16], std::size_t rotate) {
  BlockBytes b{};
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint32_t w = words[(i + rotate) % 16];
    std::memcpy(b.data() + i * 4, &w, 4);
  }
  return b;
}

/// Value-mix blocks of every workload profile, then the edge blocks.
std::vector<BlockBytes> wire_corpus() {
  std::vector<BlockBytes> blocks;
  for (const workload::BenchmarkProfile& p : workload::parsec_profiles()) {
    const workload::ValueSynthesizer synth(p.values, 0x5EED);
    for (Addr a = 0; a < 48 * kBlockBytes; a += kBlockBytes)
      blocks.push_back(synth.block_for(a));
  }
  blocks.push_back(zero_block());
  BlockBytes ones;
  ones.fill(0xFF);
  blocks.push_back(ones);

  // Both sides of every signed-width boundary the pattern matchers test
  // (4, 8, 16 and 32 bits), in four rotations so zero runs and dictionary
  // hits land on different word positions.
  const std::uint32_t signed_edges[16] = {
      0x00000007u, 0x00000008u, 0xFFFFFFF8u, 0xFFFFFFF7u,
      0x0000007Fu, 0x00000080u, 0xFFFFFF80u, 0xFFFFFF7Fu,
      0x00007FFFu, 0x00008000u, 0xFFFF8000u, 0xFFFF7FFFu,
      0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu, 0x00000000u};
  for (std::size_t r = 0; r < 16; r += 4)
    blocks.push_back(block_of_u32(signed_edges, r));
  const std::uint64_t wide_edges[8] = {
      0x7FULL, 0x80ULL, 0xFFFFFFFFFFFFFF80ULL, 0x7FFFULL,
      0xFFFFFFFFFFFF8000ULL, 0x7FFFFFFFULL, 0xFFFFFFFF80000000ULL,
      0x8000000000000000ULL};
  BlockBytes wide{};
  std::memcpy(wide.data(), wide_edges, sizeof wide_edges);
  blocks.push_back(wide);

  Rng rng(0x1D1E5EEDULL);
  for (int n = 0; n < 8; ++n) {
    BlockBytes noise;
    for (auto& byte : noise) byte = static_cast<std::uint8_t>(rng.next_u64());
    blocks.push_back(noise);
  }
  return blocks;
}

/// A fixed training sample for the trainable algorithms (SC², FVC).
std::vector<BlockBytes> training_sample() {
  const workload::ValueSynthesizer synth(
      workload::profile_by_name("canneal").values, 0x7EA1);
  std::vector<BlockBytes> sample;
  for (Addr a = 0; a < 256 * kBlockBytes; a += kBlockBytes)
    sample.push_back(synth.block_for(a));
  return sample;
}

struct WireImage {
  std::uint64_t digest = kFnvOffset;
  std::size_t total_bytes = 0;
};

WireImage wire_image_of(const Algorithm& algo) {
  WireImage img;
  for (const BlockBytes& block : wire_corpus()) {
    const Encoded e = algo.compress(block);
    const std::uint64_t size = e.size();
    for (unsigned i = 0; i < 8; ++i)
      img.digest = fnv1a(img.digest, static_cast<std::uint8_t>(size >> (8 * i)));
    for (const std::uint8_t byte : e.bytes) img.digest = fnv1a(img.digest, byte);
    img.total_bytes += e.size();
  }
  return img;
}

void expect_pinned(const Algorithm& algo, const std::string& label,
                   std::uint64_t digest, std::size_t total_bytes) {
  const WireImage img = wire_image_of(algo);
  EXPECT_EQ(img.total_bytes, total_bytes) << label;
  EXPECT_EQ(img.digest, digest)
      << label << ": wire image digest is 0x" << std::hex << img.digest;
}

struct Pin {
  const char* name;
  std::uint64_t digest;
  std::size_t total_bytes;
};

constexpr Pin kPins[] = {
    {"fpc", 0x3859aa2c8d869c51ULL, 29615},
    {"sfpc", 0x783c644071692aadULL, 29608},
    {"bdi", 0x4e8ed524d20bf26eULL, 21150},
    {"sc2", 0xa95a3fe900b0f780ULL, 30391},
    {"cpack", 0x90112269ad9dc2c3ULL, 22597},
    {"delta", 0x1c99e7107b6002d7ULL, 20488},
    {"fvc", 0x63d094afc88a598dULL, 33025},
    {"zerobit", 0x9922860fce4000d1ULL, 28938},
};

TEST(WireImage, EveryRegisteredAlgorithmMatchesItsPin) {
  for (const std::string& name : algorithm_names()) {
    const Pin* pin = nullptr;
    for (const Pin& p : kPins)
      if (name == p.name) pin = &p;
    ASSERT_NE(pin, nullptr) << name << " has no pinned wire image";
    expect_pinned(*make_algorithm(name), name, pin->digest, pin->total_bytes);
  }
}

TEST(WireImage, RetrainedSc2CodeTableIsPinned) {
  const auto sample = training_sample();
  const Sc2Algorithm sc2{std::span<const BlockBytes>(sample)};
  expect_pinned(sc2, "sc2 retrained", 0xc1f3df7135fbb0c7ULL, 28642);
}

TEST(WireImage, RetrainedFvcTableIsPinned) {
  const auto sample = training_sample();
  const FvcAlgorithm fvc{std::span<const BlockBytes>(sample)};
  expect_pinned(fvc, "fvc retrained", 0xedd655332e390be2ULL, 30801);
}

}  // namespace
}  // namespace disco::compress
