// Storage-structure unit tests: L1 set-associative LRU and the segmented
// compressed L2 array (decoupled tags, segment accounting, victim policy).
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "cache/arrays.h"
#include "common/rng.h"

namespace disco::cache {
namespace {

TEST(L1Array, GeometryFromConfig) {
  L1Array a(32 * 1024, 4);
  EXPECT_EQ(a.sets(), 128u);
  EXPECT_EQ(a.ways(), 4u);
}

TEST(L1Array, InstallLookupAndLru) {
  L1Array a(32 * 1024, 4);
  const Addr base = 0x10000;
  // Fill one set: addresses that differ by sets*64.
  const Addr stride = 128 * 64;
  for (int i = 0; i < 4; ++i) {
    a.install(base + i * stride, BlockBytes{}, L1State::S,
              static_cast<Cycle>(i + 1));
  }
  EXPECT_NE(a.lookup(base), nullptr);
  EXPECT_EQ(a.victim_for(base + 4 * stride)->addr, base)
      << "LRU victim must be the oldest line";
  // Touch the oldest; victim changes.
  a.lookup(base)->lru = 99;
  EXPECT_EQ(a.victim_for(base + 4 * stride)->addr, base + stride);
}

TEST(L1Array, VictimNullWhenFreeWayExists) {
  L1Array a(32 * 1024, 4);
  a.install(0, BlockBytes{}, L1State::E, 1);
  EXPECT_EQ(a.victim_for(0), nullptr);
}

TEST(L1Array, InstallWithoutFreeWayThrows) {
  L1Array a(32 * 1024, 4);
  const Addr stride = 128 * 64;
  for (int i = 0; i < 4; ++i) a.install(i * stride, BlockBytes{}, L1State::S, 1);
  EXPECT_THROW(a.install(4 * stride, BlockBytes{}, L1State::S, 2), std::logic_error);
  for (int i = 0; i < 4; ++i) EXPECT_NE(a.lookup(i * stride), nullptr);
}

// set_of masks with sets - 1 instead of dividing; on a power-of-two set
// count that must equal the modulo formula for every address. Covers the L1
// geometry and every L2 bank geometry the suite builds: 16 KB (golden and
// 4x4 cells with a 256 KB L2) up to 1 MB banks, each tag factor, and the
// bank-interleave shifts of 1 to 64 nodes.
TEST(L1Array, SetIndexMaskEqualsModulo) {
  const L1Array a(32 * 1024, 4);
  Rng rng(0x5E7);
  for (int i = 0; i < 4096; ++i) {
    const Addr addr = rng.next_u64();
    ASSERT_EQ(a.set_of(addr), (addr / kBlockBytes) % a.sets()) << addr;
  }
}

TEST(SegmentedArray, SetIndexMaskEqualsModulo) {
  Rng rng(0x5E8);
  for (const std::uint64_t size : {16ULL << 10, 64ULL << 10, 256ULL << 10, 1ULL << 20}) {
    for (const std::uint32_t tag_factor : {1u, 2u, 4u}) {
      for (const std::uint32_t shift : {0u, 2u, 4u, 6u}) {
        const SegmentedArray a(size, 8, tag_factor, shift);
        std::uint32_t set_bits = 1;
        while ((1u << set_bits) < a.sets()) ++set_bits;
        for (int i = 0; i < 1024; ++i) {
          const Addr addr = rng.next_u64();
          std::uint64_t idx = (addr / kBlockBytes) >> shift;
          idx ^= (idx >> set_bits) ^ (idx >> (2 * set_bits));
          ASSERT_EQ(a.set_of(addr), idx % a.sets())
              << "size " << size << " tag_factor " << tag_factor << " shift "
              << shift << " addr " << addr;
        }
      }
    }
  }
}

TEST(SegmentedArray, UncompressedGeometryMatchesBaseline) {
  SegmentedArray a(256 * 1024, 8, /*tag_factor=*/1);
  EXPECT_EQ(a.sets(), 512u);
  EXPECT_EQ(a.segment_capacity(), 64u);
}

TEST(SegmentedArray, SegmentAccounting) {
  SegmentedArray a(256 * 1024, 8, 4);
  const Addr addr = 0x4000;
  EXPECT_EQ(a.free_segments(addr), 64u);
  L2Line& line = a.install(addr, 3, 1);
  EXPECT_EQ(line.segments, 3u);
  EXPECT_EQ(a.free_segments(addr), 61u);
  a.resize(line, 8);
  EXPECT_EQ(a.free_segments(addr), 56u);
  a.resize(line, 1);
  EXPECT_EQ(a.free_segments(addr), 63u);
  a.erase(addr);
  EXPECT_EQ(a.free_segments(addr), 64u);
  EXPECT_EQ(a.lookup(addr), nullptr);
}

TEST(SegmentedArray, CompressionExpandsEffectiveCapacity) {
  SegmentedArray a(256 * 1024, 8, 4);
  // 2-segment lines: a set should hold up to 32 (tag-limited), not 8.
  const std::size_t set0 = a.set_of(0);
  std::uint32_t installed = 0;
  for (Addr idx = 0; installed < 32; ++idx) {
    const Addr addr = idx * kBlockBytes;
    if (a.set_of(addr) != set0) continue;
    if (!a.fits(addr, 2)) break;
    a.install(addr, 2, 1);
    ++installed;
  }
  EXPECT_EQ(installed, 32u) << "tag_factor x ways compressed lines per set";
}

TEST(SegmentedArray, FitsRespectsBothTagsAndSegments) {
  SegmentedArray a(64 * 1024, 8, 2);
  const std::size_t set0 = a.set_of(0);
  // Fill with 8-segment (raw) lines until segments run out.
  std::uint32_t installed = 0;
  for (Addr idx = 0;; ++idx) {
    const Addr addr = idx * kBlockBytes;
    if (a.set_of(addr) != set0) continue;
    if (!a.fits(addr, 8)) break;
    a.install(addr, 8, 1);
    ++installed;
  }
  EXPECT_EQ(installed, 8u) << "raw lines are segment-limited to `ways`";
}

TEST(SegmentedArray, VictimPrefersLinesWithoutL1Copies) {
  SegmentedArray a(256 * 1024, 8, 4);
  const std::size_t set0 = a.set_of(0);
  Addr first = 0, second = 0;
  int found = 0;
  for (Addr idx = 0; found < 2; ++idx) {
    const Addr addr = idx * kBlockBytes;
    if (a.set_of(addr) != set0) continue;
    (found == 0 ? first : second) = addr;
    ++found;
  }
  L2Line& older = a.install(first, 4, /*lru=*/1);
  a.install(second, 4, /*lru=*/5);
  older.dir.kind = DirInfo::Kind::Shared;
  older.dir.add_sharer(3);
  // Older line has an L1 copy: the younger uncached one is preferred.
  EXPECT_EQ(a.lru_victim(first, ~Addr{0})->addr, second);
  older.dir = DirInfo{};
  EXPECT_EQ(a.lru_victim(first, ~Addr{0})->addr, first);
}

TEST(SegmentedArray, BusyLinesAreNotVictims) {
  SegmentedArray a(256 * 1024, 8, 4);
  L2Line& line = a.install(0, 4, 1);
  line.busy = true;
  EXPECT_EQ(a.lru_victim(0, ~Addr{0}), nullptr);
}

TEST(SegmentedArray, HashedIndexSpreadsAlignedStrides) {
  SegmentedArray a(256 * 1024, 8, 4, /*index_shift=*/4);
  // 1GB-aligned bases (per-core heaps) must not collapse onto one set.
  std::set<std::size_t> sets;
  for (int core = 0; core < 16; ++core)
    sets.insert(a.set_of((static_cast<Addr>(core + 1) << 30)));
  EXPECT_GT(sets.size(), 8u);
}

TEST(SegmentedArray, SegmentsForRounding) {
  EXPECT_EQ(SegmentedArray::segments_for(1), 1u);
  EXPECT_EQ(SegmentedArray::segments_for(8), 1u);
  EXPECT_EQ(SegmentedArray::segments_for(9), 2u);
  EXPECT_EQ(SegmentedArray::segments_for(17), 3u);
  EXPECT_EQ(SegmentedArray::segments_for(64), 8u);
  EXPECT_EQ(SegmentedArray::segments_for(65), 9u);
}

// A one-set bank (8 ways x 64 B) with tag_factor 4: 32 tag slots, so the
// whole set's fingerprints are one scan.
SegmentedArray one_set_array() { return SegmentedArray(8 * kBlockBytes, 8, 4); }

/// Fills a one-set array's 32 slots with 1-segment lines; returns the
/// addresses in slot order.
std::vector<Addr> fill_one_set(SegmentedArray& a, Cycle lru) {
  std::vector<Addr> addrs;
  for (Addr i = 0; i < 32; ++i) {
    addrs.push_back((i * 7919 + 3) * kBlockBytes);
    a.install(addrs.back(), 1, lru);
  }
  return addrs;
}

TEST(SegmentedArray, InstallWithoutFreeTagThrows) {
  SegmentedArray a = one_set_array();
  const std::vector<Addr> addrs = fill_one_set(a, 1);
  EXPECT_FALSE(a.has_free_tag(0));
  EXPECT_THROW(a.install(1ULL << 40, 1, 2), std::logic_error);
  EXPECT_EQ(a.valid_lines(), 32u);
  for (const Addr addr : addrs) EXPECT_NE(a.lookup(addr), nullptr);
}

// 16-bit fingerprints collide: with 32 resident lines, about one absent
// probe in 2,000 matches some slot's fingerprint and must be rejected by
// the addr confirm.
TEST(SegmentedArray, AbsentProbesMissThroughFingerprintCollisions) {
  SegmentedArray a = one_set_array();
  const std::vector<Addr> addrs = fill_one_set(a, 1);
  std::set<Addr> resident(addrs.begin(), addrs.end());
  std::set<std::uint16_t> fps;
  for (const Addr addr : addrs) fps.insert(SegmentedArray::fingerprint(addr));
  Rng rng(0xF1);
  int collisions = 0;
  for (int i = 0; i < 200000; ++i) {
    const Addr addr = (rng.next_u64() >> 8) * kBlockBytes;
    if (resident.count(addr) != 0) continue;
    collisions += fps.count(SegmentedArray::fingerprint(addr)) != 0 ? 1 : 0;
    ASSERT_EQ(a.lookup(addr), nullptr) << std::hex << addr;
  }
  EXPECT_GT(collisions, 20) << "the probes must exercise fingerprint false hits";
  for (const Addr addr : addrs) ASSERT_NE(a.lookup(addr), nullptr);
}

TEST(SegmentedArray, PlanesAreAllocatedOnFirstUse) {
  SegmentedArray a(256 * 1024, 8, 4);
  EXPECT_EQ(a.planes_allocated(), 0u);
  a.install(0, 8, 1);
  a.install(kBlockBytes, 8, 1);
  EXPECT_EQ(a.planes_allocated(), 1u) << "both lines take slot 0 of their sets";
  a.erase(0);
  a.erase(kBlockBytes);
  EXPECT_EQ(a.planes_allocated(), 1u) << "planes are freed only with the array";
}

TEST(SegmentedArray, LruTiesResolveInSlotOrderAcrossPlanes) {
  SegmentedArray a = one_set_array();
  const std::vector<Addr> addrs = fill_one_set(a, 7);
  EXPECT_EQ(a.lru_victim(0, ~Addr{0})->addr, addrs[0]) << "all tied: slot 0";
  for (const std::size_t slot : {29u, 5u, 17u}) a.lookup(addrs[slot])->lru = 3;
  EXPECT_EQ(a.lru_victim(0, ~Addr{0})->addr, addrs[5]);
  a.lookup(addrs[5])->busy = true;
  EXPECT_EQ(a.lru_victim(0, ~Addr{0})->addr, addrs[17]);
  EXPECT_EQ(a.lru_victim(0, addrs[17])->addr, addrs[29]);
  a.lookup(addrs[17])->dir.kind = DirInfo::Kind::Shared;
  EXPECT_EQ(a.lru_victim(0, ~Addr{0})->addr, addrs[29]) << "uncached lines first";
  a.erase(addrs[0]);
  a.install(addrs[0], 1, 3);
  EXPECT_EQ(a.lru_victim(0, ~Addr{0})->addr, addrs[0]) << "reinstalled into slot 0";
}

TEST(DirInfo, SharerBitmask) {
  DirInfo d;
  d.kind = DirInfo::Kind::Shared;
  d.add_sharer(0);
  d.add_sharer(63);
  d.add_sharer(5);
  EXPECT_EQ(d.sharer_count(), 3u);
  EXPECT_TRUE(d.is_sharer(63));
  d.remove_sharer(63);
  EXPECT_FALSE(d.is_sharer(63));
  EXPECT_EQ(d.sharer_count(), 2u);
}

}  // namespace
}  // namespace disco::cache
