// Randomized fuzz of the segmented compressed array: arbitrary sequences
// of install / erase / resize / touch with a shadow model, checking the
// segment-accounting invariants after every operation, that absent
// addresses never hit, and that the free-tag test matches the shadow's
// per-set occupancy. Runs the compressed (tag_factor 4) and the
// uncompressed (tag_factor 1) geometries.
#include <gtest/gtest.h>

#include <map>

#include "cache/arrays.h"
#include "common/rng.h"

namespace disco::cache {
namespace {

void fuzz_against_shadow(SegmentedArray& arr, std::uint32_t slots, std::uint64_t seed) {
  Rng rng(seed);
  Rng probe(seed + 1);  // absent addresses; keeps rng's operation stream
  // Shadow: addr -> segments, and lines per set.
  std::map<Addr, std::uint32_t> shadow;
  std::map<std::size_t, std::uint32_t> per_set;
  const auto total_capacity = [&] {
    return static_cast<std::uint64_t>(arr.sets()) * arr.segment_capacity();
  };

  Cycle now = 1;
  for (int step = 0; step < 20000; ++step) {
    const Addr addr = rng.next_below(4096) * kBlockBytes;
    const auto it = shadow.find(addr);
    const int action = static_cast<int>(rng.next_below(4));
    ++now;

    // Addresses outside the working range are never resident.
    const Addr absent = (4096 + probe.next_below(1ULL << 40)) * kBlockBytes;
    ASSERT_EQ(arr.lookup(absent), nullptr) << std::hex << absent;
    ASSERT_EQ(arr.has_free_tag(addr), per_set[arr.set_of(addr)] < slots);

    if (it == shadow.end()) {
      ASSERT_EQ(arr.lookup(addr), nullptr) << std::hex << addr;
      const auto segs = 1 + static_cast<std::uint32_t>(rng.next_below(8));
      if (arr.fits(addr, segs)) {
        arr.install(addr, segs, now);
        shadow[addr] = segs;
        ++per_set[arr.set_of(addr)];
      } else {
        // Full set: evict the array's victim to stay in sync.
        L2Line* victim = arr.lru_victim(addr, addr);
        if (victim != nullptr) {
          const Addr gone = victim->addr;
          shadow.erase(gone);
          --per_set[arr.set_of(gone)];
          arr.erase(gone);
        }
      }
    } else if (action == 0) {
      arr.erase(addr);
      shadow.erase(it);
      --per_set[arr.set_of(addr)];
    } else if (action == 1) {
      L2Line* line = arr.lookup(addr);
      ASSERT_NE(line, nullptr);
      const auto new_segs = 1 + static_cast<std::uint32_t>(rng.next_below(8));
      const std::uint32_t extra =
          new_segs > line->segments ? new_segs - line->segments : 0;
      if (arr.free_segments(addr) >= extra) {
        arr.resize(*line, new_segs);
        it->second = new_segs;
      }
    } else {
      L2Line* line = arr.lookup(addr);
      ASSERT_NE(line, nullptr);
      line->lru = now;
    }

    // Invariants after every step.
    if (step % 256 == 0) {
      std::uint64_t shadow_segs = 0;
      for (const auto& [a, s] : shadow) shadow_segs += s;
      EXPECT_EQ(arr.used_segments(), shadow_segs);
      EXPECT_EQ(arr.valid_lines(), shadow.size());
      EXPECT_LE(arr.used_segments(), total_capacity());
    }
  }

  // Final exact sweep: every shadow line present with the right size.
  for (const auto& [addr, segs] : shadow) {
    const L2Line* line = arr.lookup(addr);
    ASSERT_NE(line, nullptr) << std::hex << addr;
    EXPECT_EQ(line->segments, segs);
  }
}

TEST(SegmentedFuzz, AccountingMatchesShadowModel) {
  SegmentedArray arr(64 * 1024, 8, 4, /*index_shift=*/0);
  fuzz_against_shadow(arr, 32, 2024);
}

TEST(SegmentedFuzz, UncompressedGeometryMatchesShadowModel) {
  SegmentedArray arr(64 * 1024, 8, 1, /*index_shift=*/0);
  fuzz_against_shadow(arr, 8, 2025);
}

}  // namespace
}  // namespace disco::cache
