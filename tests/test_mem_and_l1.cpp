// Memory-controller timing/content tests and focused L1 behaviours (MSHR
// limits, coalescing, store replay) on the mini CMP.
#include <gtest/gtest.h>

#include "cache_test_util.h"

namespace disco::cache {
namespace {

using testutil::MiniCmp;
using testutil::word_at;

TEST(MemCtrl, BackingStoreLazyAndSticky) {
  MiniCmp cmp;
  const BlockBytes first = cmp.mem_->read_block(0x1000);
  EXPECT_EQ(cmp.mem_->read_block(0x1000), first) << "content must be stable";
  BlockBytes changed = first;
  changed[0] ^= 0xFF;
  cmp.mem_->write_block(0x1000, changed);
  EXPECT_EQ(cmp.mem_->read_block(0x1000), changed);
}

TEST(MemCtrl, ReadsDoNotGrowTheImage) {
  MiniCmp cmp;
  const auto synth = [](Addr a) {
    BlockBytes b{};
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::uint8_t>(a / kBlockBytes + i);
    return b;
  };
  cmp.set_memory_pattern(synth);
  const Addr a = 0x3000;
  const BlockBytes synthesized = synth(a);
  EXPECT_EQ(cmp.mem_->read_block(a), synthesized);
  EXPECT_EQ(cmp.mem_->read_block(a + 8), synthesized) << "reads are per block";
  EXPECT_EQ(cmp.mem_->stored_blocks(), 0u) << "a read of an unwritten block stores nothing";

  BlockBytes changed = synthesized;
  changed[5] ^= 0x5A;
  cmp.mem_->write_block(a, changed);
  EXPECT_EQ(cmp.mem_->stored_blocks(), 1u);
  EXPECT_EQ(cmp.mem_->read_block(a), changed) << "a write sticks";
  EXPECT_EQ(cmp.mem_->read_block(a + kBlockBytes), synth(a + kBlockBytes));
  EXPECT_EQ(cmp.mem_->stored_blocks(), 1u);
}

TEST(MemCtrl, AccessLatencyRespected) {
  MiniCmp cmp;
  const Cycle start = cmp.clock_;
  cmp.load(0, 0x2000);
  // DRAM access latency (120) must dominate the round trip.
  EXPECT_GE(cmp.clock_ - start, Cycle{cmp.cfg_.mem.access_latency});
}

TEST(MemCtrl, BankContentionSerializes) {
  // Two fills to the same DRAM bank take longer than two to different banks.
  MiniCmp same;
  const Addr a0 = 0;  // bank_of uses (blk >> 4) % 8
  const Addr a1 = (8ULL << 4) * kBlockBytes;  // same bank, different block
  same.issue(0, a0, false, 0);
  same.issue(1, a1 + 0x40, false, 0);  // keep homes distinct
  same.drain();
  const Cycle same_time = same.clock_;

  MiniCmp diff;
  const Addr b1 = (1ULL << 4) * kBlockBytes;  // adjacent bank
  diff.issue(0, a0, false, 0);
  diff.issue(1, b1 + 0x40, false, 0);
  diff.drain();
  EXPECT_GE(same_time, diff.clock_);
}

TEST(L1, MshrLimitBlocks) {
  MiniCmp cmp;
  // Issue more distinct misses than MSHR entries without draining.
  const std::uint32_t limit = cmp.cfg_.l1.mshr_entries;
  std::uint32_t accepted = 0;
  for (std::uint32_t i = 0; i < limit + 4; ++i) {
    const auto out = cmp.l1s_[0]->access(1000 + i, (0x100 + i * 16) * kBlockBytes,
                                         false, 0, cmp.clock_);
    if (out == L1Cache::Outcome::Miss) ++accepted;
  }
  EXPECT_EQ(accepted, limit);
  EXPECT_EQ(cmp.l1s_[0]->mshr_in_use(), limit);
  ASSERT_TRUE(cmp.drain());
  EXPECT_EQ(cmp.l1s_[0]->mshr_in_use(), 0u);
}

TEST(L1, CoalescingSharesOneMshr) {
  MiniCmp cmp;
  const Addr blk = 0x5500 * kBlockBytes;
  EXPECT_EQ(cmp.l1s_[0]->access(1, blk, false, 0, cmp.clock_),
            L1Cache::Outcome::Miss);
  EXPECT_EQ(cmp.l1s_[0]->access(2, blk + 8, false, 0, cmp.clock_),
            L1Cache::Outcome::Miss);
  EXPECT_EQ(cmp.l1s_[0]->access(3, blk + 16, false, 0, cmp.clock_),
            L1Cache::Outcome::Miss);
  EXPECT_EQ(cmp.l1s_[0]->mshr_in_use(), 1u) << "same-block misses coalesce";
  ASSERT_TRUE(cmp.drain());
}

TEST(L1, StoreCoalescedOntoReadMissReplaysAsUpgrade) {
  MiniCmp cmp;
  const Addr blk = 0x7700 * kBlockBytes;
  // Make the block shared first so the read grant comes back DataS.
  cmp.load(1, blk);
  cmp.load(2, blk);
  // Now core 0: load-miss immediately followed by store to the same block.
  EXPECT_EQ(cmp.l1s_[0]->access(10, blk, false, 0, cmp.clock_),
            L1Cache::Outcome::Miss);
  EXPECT_EQ(cmp.l1s_[0]->access(11, blk + 8, true, 0xAB, cmp.clock_),
            L1Cache::Outcome::Miss)
      << "store must coalesce, not block";
  ASSERT_TRUE(cmp.drain());
  const L1Line* line = cmp.l1s_[0]->peek(blk);
  ASSERT_NE(line, nullptr);
  EXPECT_EQ(line->state, L1State::M);
  EXPECT_EQ(word_at(line->data, 8), 0xABu);
}

TEST(L1, ReaccessDuringWritebackSeesDirtyData) {
  MiniCmp cmp;
  const Addr blk = 0x9900 * kBlockBytes;
  cmp.store(0, blk, 0x11);
  // Evict it (dirty -> eviction buffer + PutM): fill the set and let the
  // grants install (each install evicts the then-LRU line).
  const Addr stride = 128 * kBlockBytes;
  for (int i = 1; i <= 5; ++i) cmp.load(0, blk + i * stride);
  // Re-access right away: the access() guard may return Blocked while the
  // writeback is un-acked; MiniCmp::issue retries until accepted, and the
  // reload must return the dirty value.
  EXPECT_EQ(word_at(cmp.load(0, blk), 0), 0x11u);
}

TEST(Delayed, InjectorPreservesFifoWithinCycle) {
  MiniCmp cmp;  // reuse an NI
  DelayedInjector inj(cmp.net_->ni(0));
  auto a = noc::make_packet();
  a->id = 1;
  a->vnet = VNet::Request;
  auto b = noc::make_packet();
  b->id = 2;
  b->vnet = VNet::Request;
  inj.schedule(a, 5);
  inj.schedule(b, 5);
  EXPECT_FALSE(inj.idle());
  inj.tick(4);
  EXPECT_FALSE(inj.idle());
  inj.tick(5);
  EXPECT_TRUE(inj.idle());
  EXPECT_EQ(cmp.net_->ni(0).pending_injections(), 2u);
}

}  // namespace
}  // namespace disco::cache
