// Heap budget of the bit-granular compressors: compress() allocates at most
// once, for the returned buffer, and a block that falls back to raw costs
// nothing beyond encode_raw's own allocation. The global operator new is
// replaced by a counting one, so these tests build into their own
// executable instead of sharing one with the rest of the suite.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "compress/registry.h"
#include "workload/value_synth.h"

namespace {
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace disco::compress {
namespace {

template <class F>
std::size_t allocations_during(F&& f) {
  const std::size_t before = g_allocations;
  f();
  return g_allocations - before;
}

std::vector<BlockBytes> alloc_corpus() {
  std::vector<BlockBytes> blocks{zero_block()};
  const workload::ValueSynthesizer synth(
      workload::ValueMix{0.1, 0.3, 0.2, 0.2, 0.1, 0.1}, 99);
  for (Addr a = 0; a < 64 * kBlockBytes; a += kBlockBytes)
    blocks.push_back(synth.block_for(a));
  Rng rng(0xA110C);
  for (int n = 0; n < 4; ++n) {
    BlockBytes noise;
    for (auto& byte : noise) byte = static_cast<std::uint8_t>(rng.next_u64());
    blocks.push_back(noise);
  }
  return blocks;
}

TEST(CompressAllocs, OneAllocationPerBlockAndNoneExtraForRaw) {
  const auto blocks = alloc_corpus();
  for (const char* name : {"fpc", "sfpc", "sc2", "cpack", "fvc", "zerobit"}) {
    const auto algo = make_algorithm(name);
    std::size_t compressed = 0, raw = 0;
    for (const BlockBytes& block : blocks) {
      std::size_t raw_budget = 0;
      {
        Encoded e;
        raw_budget = allocations_during([&] { e = encode_raw(block); });
      }
      Encoded e;
      const std::size_t n = allocations_during([&] { e = algo->compress(block); });
      if (is_raw(e.bytes)) {
        ++raw;
        EXPECT_LE(n, raw_budget) << name << ": raw fallback allocated " << n;
      } else {
        ++compressed;
        EXPECT_LE(n, 1u) << name << ": compress allocated " << n;
        EXPECT_EQ(e.bytes.capacity(), e.bytes.size()) << name << ": slack in the stored buffer";
      }
    }
    EXPECT_GT(compressed, 0u) << name;
    EXPECT_GT(raw, 0u) << name;
  }
}

}  // namespace
}  // namespace disco::compress
