// Coherence-protocol correctness on the mini CMP: single-core semantics,
// sharing, invalidation, ownership migration, writeback races, inclusive
// evictions — each scenario drains fully and checks data values end-to-end.
//
// CoherencePins.* pin the L2 paths that wait for segment space (a store
// that grows its line in a full set parks until an eviction frees room):
// FNV-1a digests of the canonical trace stream and, separately, of the
// drained CacheStats and NocStats lists. Update a digest only for an
// intended change to how a parked transaction behaves.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string_view>

#include "cache_test_util.h"
#include "cmp/system.h"
#include "common/snapshot.h"
#include "trace/invariants.h"
#include "trace/trace.h"
#include "workload/profile.h"

namespace disco::cache {
namespace {

using testutil::MiniCmp;
using testutil::word_at;

TEST(Coherence, LoadReturnsMemoryContent) {
  MiniCmp cmp;
  const Addr addr = 0x1000;
  const BlockBytes expected = cmp.mem_->read_block(addr);
  EXPECT_EQ(cmp.load(0, addr), expected);
  EXPECT_EQ(cmp.stats_.l1_misses, 1u);
  EXPECT_EQ(cmp.stats_.l2_misses, 1u);
  EXPECT_EQ(cmp.stats_.dram_reads, 1u);
}

TEST(Coherence, SecondLoadHitsL1) {
  MiniCmp cmp;
  const Addr addr = 0x2000;
  cmp.load(0, addr);
  const auto misses = cmp.stats_.l1_misses;
  cmp.load(0, addr);
  EXPECT_EQ(cmp.stats_.l1_misses, misses);
  EXPECT_EQ(cmp.stats_.l1_hits, 1u);
}

TEST(Coherence, StoreThenLoadSameCore) {
  MiniCmp cmp;
  const Addr addr = 0x3000;
  cmp.store(0, addr, 0xABCDULL);
  const BlockBytes b = cmp.load(0, addr);
  EXPECT_EQ(word_at(b, 0), 0xABCDULL);
}

TEST(Coherence, StoreVisibleToOtherCore) {
  MiniCmp cmp;
  const Addr addr = 0x4000;
  cmp.store(0, addr + 8, 0x1234'5678ULL);
  const BlockBytes b = cmp.load(1, addr);
  EXPECT_EQ(word_at(b, 8), 0x1234'5678ULL)
      << "ownership must migrate through the home";
}

TEST(Coherence, FirstReaderGetsExclusive) {
  MiniCmp cmp;
  const Addr addr = 0x5000;
  cmp.load(0, addr);
  EXPECT_EQ(cmp.l1s_[0]->peek(addr)->state, L1State::E);
}

TEST(Coherence, SecondReaderShares) {
  MiniCmp cmp;
  const Addr addr = 0x6000;
  cmp.load(0, addr);
  cmp.load(1, addr);
  // Core 0 was recalled (home-mediated downgrade); core 1 holds the block.
  EXPECT_NE(cmp.l1s_[1]->peek(addr), nullptr);
  EXPECT_GE(cmp.stats_.recalls_sent, 1u);
}

TEST(Coherence, WriterInvalidatesSharers) {
  MiniCmp cmp;
  const Addr addr = 0x7000;
  cmp.load(0, addr);
  cmp.load(1, addr);
  cmp.load(2, addr);
  cmp.store(3, addr, 99);
  // All previous sharers lose their copies.
  const L1Line* l0 = cmp.l1s_[0]->peek(addr);
  const L1Line* l1 = cmp.l1s_[1]->peek(addr);
  const L1Line* l2 = cmp.l1s_[2]->peek(addr);
  EXPECT_TRUE(l0 == nullptr || l0->state == L1State::I);
  EXPECT_TRUE(l1 == nullptr || l1->state == L1State::I);
  EXPECT_TRUE(l2 == nullptr || l2->state == L1State::I);
  EXPECT_EQ(word_at(cmp.load(0, addr), 0), 99u);
}

TEST(Coherence, SilentEToMUpgrade) {
  MiniCmp cmp;
  const Addr addr = 0x8000;
  cmp.load(0, addr);  // E grant
  const auto misses = cmp.stats_.l1_misses;
  cmp.store(0, addr, 5);  // silent upgrade, no new miss
  EXPECT_EQ(cmp.stats_.l1_misses, misses);
  EXPECT_EQ(cmp.l1s_[0]->peek(addr)->state, L1State::M);
}

TEST(Coherence, DirtyDataSurvivesL1Eviction) {
  MiniCmp cmp;
  const Addr addr = 0x9000;
  cmp.store(0, addr, 0xFEEDULL);
  // Evict by filling the same L1 set (128 sets, 4 ways).
  const Addr stride = 128 * kBlockBytes;
  for (int i = 1; i <= 6; ++i) cmp.load(0, addr + i * stride);
  cmp.drain();
  // The dirty block must now live in L2 (or memory) with the stored value.
  const BlockBytes b = cmp.load(1, addr);
  EXPECT_EQ(word_at(b, 0), 0xFEEDULL);
}

TEST(Coherence, PingPongOwnership) {
  MiniCmp cmp;
  const Addr addr = 0xA000;
  for (std::uint64_t round = 1; round <= 6; ++round) {
    const NodeId writer = round % 2;
    cmp.store(writer, addr, round);
    const BlockBytes b = cmp.load(1 - writer, addr);
    EXPECT_EQ(word_at(b, 0), round) << "round " << round;
  }
}

TEST(Coherence, ReadAfterEvictionReRequestIsCorrect) {
  // Exercises the writeback/re-request path (eviction buffer + Recall).
  MiniCmp cmp;
  const Addr addr = 0xB000;
  cmp.store(0, addr, 0x77);
  const Addr stride = 128 * kBlockBytes;
  for (int i = 1; i <= 4; ++i) cmp.load(0, addr + i * stride);
  // Immediately re-access without draining: the PutM may still be in flight.
  cmp.issue(0, addr, false, 0);
  ASSERT_TRUE(cmp.drain());
  EXPECT_EQ(word_at(cmp.l1s_[0]->peek(addr)->data, 0), 0x77u);
}

TEST(Coherence, L2InclusiveEvictionRecallsOwner) {
  MiniCmp cmp(Scheme::Baseline);
  // Make an L2 set overflow: baseline bank, 8 ways of raw lines. The mini
  // CMP has 4 nodes; pick addresses sharing home bank 0 and one L2 set.
  const auto& arr = cmp.l2s_[0]->array();
  std::vector<Addr> same_set;
  const std::size_t target_set = arr.set_of(0);
  for (Addr idx = 0; same_set.size() < 12; ++idx) {
    const Addr a = idx * kBlockBytes;
    if ((idx % 4) != 0) continue;           // home bank 0
    if (arr.set_of(a) != target_set) continue;
    same_set.push_back(a);
  }
  // Dirty the first one in an L1, then overflow the set.
  cmp.store(1, same_set[0], 0xBEEF);
  for (std::size_t i = 1; i < same_set.size(); ++i) cmp.load(2, same_set[i]);
  ASSERT_TRUE(cmp.drain());
  EXPECT_GE(cmp.stats_.l2_evictions, 1u);
  // The dirty value must be recoverable regardless of where it ended up.
  EXPECT_EQ(word_at(cmp.load(3, same_set[0]), 0), 0xBEEFu);
}

TEST(Coherence, ManyRandomAccessesMatchGoldenModel) {
  MiniCmp cmp;
  Rng rng(606);
  std::map<Addr, std::uint64_t> golden;  // last stored word0 per block
  for (int i = 0; i < 300; ++i) {
    const Addr addr = (rng.next_below(64)) * kBlockBytes;
    const auto node = static_cast<NodeId>(rng.next_below(4));
    if (rng.chance(0.4)) {
      const std::uint64_t v = rng.next_u64();
      cmp.store(node, addr, v);
      golden[addr] = v;
    } else {
      const BlockBytes b = cmp.load(node, addr);
      if (auto it = golden.find(addr); it != golden.end()) {
        EXPECT_EQ(word_at(b, 0), it->second) << "block " << std::hex << addr;
      }
    }
  }
}

// A stale sharer: core 3 held the block in S from warmup, dropped it
// silently to a conflict, and reads it again while core 0's GetM is
// invalidating the sharers the home still lists. Its read miss must answer
// the Inv at once: its GetS is queued behind that GetM, so holding the
// InvAck back until the grant arrives deadlocks the block.
TEST(Coherence, StaleSharerRereadDuringWriterInvalidationDrains) {
  MiniCmp cmp;
  const Addr blk = 0x40000;  // home bank 0
  const NodeId reader = 3, writer = 0;
  ASSERT_EQ((blk / kBlockBytes) % 4, 0u);
  const BlockBytes data = cmp.mem_->read_block(blk);
  L2Line& line = cmp.l2s_[0]->warm_store(
      blk, nullptr, data, false, 0, [](Addr, const BlockBytes&, bool, const DirInfo&) {});
  line.dir = DirInfo{DirInfo::Kind::Shared, 0, kInvalidNode};
  line.dir.add_sharer(reader);
  cmp.l1s_[reader]->warm_install(blk, nullptr, data, L1State::S, 0);

  // Four more blocks of the reader's L1 set evict the S copy silently.
  const Addr stride = 128 * kBlockBytes;
  for (int i = 1; i <= 4; ++i) cmp.load(reader, blk + i * stride);
  ASSERT_EQ(cmp.l1s_[reader]->peek(blk), nullptr);
  ASSERT_TRUE(cmp.l2s_[0]->warm_lookup(blk)->dir.is_sharer(reader));

  // The writer sits at the home, so its GetM wins; the reader's GetS queues
  // behind it while the Inv is on its way to the reader.
  cmp.issue(writer, blk, true, 0x5EED);
  cmp.issue(reader, blk, false, 0);
  ASSERT_TRUE(cmp.drain()) << "the stale sharer's read miss must not block the writer";
  EXPECT_EQ(word_at(cmp.load(reader, blk), 0), 0x5EEDu);
}

// The same defect in a whole system: perfbench's fig5-delta cell
// canneal/delta/CC at seed 15 left three transactions open forever.
TEST(Coherence, CannealSeed15CellDrains) {
  SystemConfig cfg;
  cfg.scheme = Scheme::CC;
  cfg.algorithm = "delta";
  cfg.seed = 15;
  cmp::CmpSystem sys(cfg, workload::profile_by_name("canneal"));
  sys.functional_warmup(6000);
  sys.run(3000);
  sys.reset_stats();
  sys.run(12000);
  ASSERT_TRUE(sys.drain(40000)) << "every coherence transaction must retire";
  EXPECT_TRUE(sys.network().credits_quiescent());
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes)
    h = (h ^ static_cast<std::uint8_t>(c)) * 0x100000001b3ULL;
  return h;
}

std::uint64_t trace_digest(const trace::Tracer& t) {
  EXPECT_EQ(t.dropped_events(), 0u) << "the ring must hold the whole stream";
  std::ostringstream os;
  t.write_canonical(os);
  return fnv1a(os.str());
}

std::uint64_t stats_digest(CacheStats cs, noc::NocStats ns) {
  snap::Writer w;
  cs.visit(w);
  ns.visit(w);
  const auto& b = w.data();
  return fnv1a({reinterpret_cast<const char*>(b.data()), b.size()});
}

TraceConfig full_trace() {
  TraceConfig tc;
  tc.enabled = true;
  tc.check_invariants = true;
  tc.ring_capacity = 1ULL << 22;
  return tc;
}

// Small banks overflow: the timed phase evicts hundreds of lines and parks
// dirty writebacks (PutM) whose line grows in a full set.
TEST(CoherencePins, SmallBanksParkWritebackGrowths) {
  SystemConfig cfg;
  cfg.noc.mesh_cols = 2;
  cfg.noc.mesh_rows = 2;
  cfg.l2.total_size_bytes = 4 * 16 * 1024;
  cfg.scheme = Scheme::DISCO;
  cfg.algorithm = "delta";
  cfg.seed = 3;
  cfg.trace = full_trace();
  cmp::CmpSystem sys(cfg, workload::profile_by_name("x264"));
  sys.functional_warmup(2000);
  sys.run(4000);
  ASSERT_TRUE(sys.drain(100000)) << "the system must drain";
  EXPECT_TRUE(sys.tracer()->checker()->summary().clean());
  EXPECT_GT(sys.cache_stats().l2_evictions, 250u);

  const std::uint64_t t = trace_digest(*sys.tracer());
  const std::uint64_t s = stats_digest(sys.cache_stats(), sys.noc_stats());
  EXPECT_EQ(t, 0x0aa80df58ceea472ULL) << std::hex << "trace 0x" << t;
  EXPECT_EQ(s, 0xc6380be81b63259aULL) << std::hex << "stats 0x" << s;
}

// A recall returns dirty data that no longer compresses, and the owner's
// set has no room for the grown line: the recall parks until an eviction
// frees segments, then grants the new reader the recalled data.
TEST(CoherencePins, RecallDataGrowthParksForSpace) {
  MiniCmp cmp(Scheme::CC);
  trace::Tracer tracer(full_trace());
  cmp.net_->set_tracer(&tracer);
  for (auto& l2 : cmp.l2s_) l2->set_tracer(&tracer);

  // Bank 0, one set: the target and one more all-zero block compress to a
  // few segments; seven incompressible blocks take 8 segments each.
  const auto& arr = cmp.l2s_[0]->array();
  std::vector<Addr> same_set;
  for (Addr idx = 0; same_set.size() < 9; idx += 4)  // idx % 4 == 0: bank 0
    if (arr.set_of(idx * kBlockBytes) == arr.set_of(0))
      same_set.push_back(idx * kBlockBytes);
  const Addr target = same_set[0];
  const std::set<Addr> zero = {same_set[0], same_set[1]};
  cmp.set_memory_pattern([zero](Addr a) {
    BlockBytes b{};
    if (zero.count(a) != 0) return b;
    for (std::size_t f = 0; f < kWordsPerBlock; ++f) {
      const std::uint64_t v = splitmix64(a + f);
      std::memcpy(b.data() + f * 8, &v, 8);
    }
    return b;
  });

  cmp.load(0, target);  // exclusive-clean at core 0
  for (std::size_t i = 1; i < same_set.size(); ++i) cmp.load(2, same_set[i]);
  const std::uint32_t small = arr.lookup(target)->segments;
  ASSERT_LT(small, 4u);
  ASSERT_EQ(arr.free_segments(target), arr.segment_capacity() - 56 - 2 * small)
      << "the set holds two small lines and seven raw ones";
  ASSERT_EQ(cmp.stats_.l2_evictions, 0u);

  // Core 0 makes the block incompressible (silent E->M upgrade, L1 hits);
  // core 1's read recalls it and the grown line no longer fits.
  for (std::size_t w = 0; w < kWordsPerBlock; ++w)
    cmp.store(0, target + 8 * w, splitmix64(0xD1 + w));
  const BlockBytes b = cmp.load(1, target);
  ASSERT_TRUE(cmp.drain());
  for (std::size_t w = 0; w < kWordsPerBlock; ++w)
    EXPECT_EQ(word_at(b, 8 * w), splitmix64(0xD1 + w)) << "word " << w;
  // Evicting the LRU line, the other small one, frees exactly the growth:
  // one eviction, not one more per tick the store waits for it.
  EXPECT_EQ(cmp.stats_.l2_evictions, 1u);
  EXPECT_EQ(arr.lookup(same_set[1]), nullptr);
  EXPECT_EQ(arr.lookup(target)->segments, 8u);

  const std::uint64_t t = trace_digest(tracer);
  const std::uint64_t s = stats_digest(cmp.stats_, cmp.noc_stats_);
  EXPECT_EQ(t, 0x9108e11e2601e0a7ULL) << std::hex << "trace 0x" << t;
  EXPECT_EQ(s, 0x637ac1ef8cd10dc0ULL) << std::hex << "stats 0x" << s;
}

}  // namespace
}  // namespace disco::cache
