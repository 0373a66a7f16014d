// Ring<T> unit tests: the flat circular buffer that replaced std::deque in
// every hot queue (VC flit buffers, link pipelines, NI inject queues).
// Exercises the wrap-around and growth paths a straight-line simulation can
// miss: filling past capacity with a rotated head, push_front across the
// wrap point, mid-queue erase, and the popped-slot-resets-to-default
// guarantee the packet refcounting relies on. The PacketPtr cases check the
// slot contract with the packet pool's live count: a slot owns its element
// from the push that constructs it until the pop, erase or clear that ends
// it, and holds no reference before or after.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "noc/link.h"
#include "noc/packet_pool.h"
#include "noc/ring.h"

namespace disco::noc {
namespace {

TEST(Ring, PushPopFifoOrder) {
  Ring<int> r;
  EXPECT_TRUE(r.empty());
  for (int i = 0; i < 5; ++i) r.push_back(i);
  EXPECT_EQ(r.size(), 5u);
  EXPECT_EQ(r.front(), 0);
  EXPECT_EQ(r.back(), 4);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(r.front(), i);
    r.pop_front();
  }
  EXPECT_TRUE(r.empty());
}

TEST(Ring, GrowsPastInitialCapacityPreservingOrder) {
  Ring<int> r;
  // Rotate the head first so growth has to linearize a wrapped buffer.
  for (int i = 0; i < 6; ++i) r.push_back(-1);
  for (int i = 0; i < 6; ++i) r.pop_front();
  // Now fill well past the initial capacity of 8.
  for (int i = 0; i < 100; ++i) r.push_back(i);
  ASSERT_EQ(r.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r[static_cast<std::size_t>(i)], i);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(r.front(), i);
    r.pop_front();
  }
  EXPECT_TRUE(r.empty());
}

TEST(Ring, PushFrontWrapsBelowIndexZero) {
  Ring<int> r;
  r.push_back(10);            // head_ == 0; push_front must wrap to capacity-1
  r.push_front(9);
  r.push_front(8);
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0], 8);
  EXPECT_EQ(r[1], 9);
  EXPECT_EQ(r[2], 10);
  // Grow with a wrapped head: order must survive the linearization.
  for (int i = 11; i < 30; ++i) r.push_back(i);
  ASSERT_EQ(r.size(), 22u);
  for (int i = 0; i < 22; ++i) EXPECT_EQ(r[static_cast<std::size_t>(i)], i + 8);
}

TEST(Ring, MixedFrontBackTrafficAcrossManyWraps) {
  // Steady-state queue churn: stays small but the head circles the buffer
  // many times, crossing the wrap point in both directions.
  Ring<int> r;
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 200; ++round) {
    r.push_back(next_in++);
    r.push_back(next_in++);
    EXPECT_EQ(r.front(), next_out);
    r.pop_front();
    ++next_out;
  }
  ASSERT_EQ(r.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(r.front(), next_out + i);
    r.pop_front();
  }
}

TEST(Ring, EraseMiddleShiftsTailForward) {
  Ring<int> r;
  for (int i = 0; i < 10; ++i) r.push_back(i);
  auto it = r.erase(r.begin() + 3);  // drop 3
  EXPECT_EQ(*it, 4);
  ASSERT_EQ(r.size(), 9u);
  const std::vector<int> want = {0, 1, 2, 4, 5, 6, 7, 8, 9};
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(r[i], want[i]);
}

TEST(Ring, EraseRangeFrontUsesPopFastPathAndMidShifts) {
  Ring<int> r;
  for (int i = 0; i < 12; ++i) r.push_back(i);
  // Front range: pop_front fast path.
  auto it = r.erase(r.begin(), r.begin() + 4);
  EXPECT_EQ(*it, 4);
  ASSERT_EQ(r.size(), 8u);
  EXPECT_EQ(r.front(), 4);
  // Mid range: shift path.
  it = r.erase(r.begin() + 2, r.begin() + 5);  // drop 6,7,8
  EXPECT_EQ(*it, 9);
  ASSERT_EQ(r.size(), 5u);
  const std::vector<int> want = {4, 5, 9, 10, 11};
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(r[i], want[i]);
  // Empty range is a no-op.
  EXPECT_EQ(*r.erase(r.begin() + 1, r.begin() + 1), 5);
  EXPECT_EQ(r.size(), 5u);
}

TEST(Ring, PoppedSlotsReleaseHeldResources) {
  // The pool refcounting depends on popped slots resetting to T()
  // immediately, not lingering until overwrite. Observable via use_count.
  auto obj = std::make_shared<int>(42);
  Ring<std::shared_ptr<int>> r;
  r.push_back(obj);
  r.push_back(obj);
  r.push_back(obj);
  EXPECT_EQ(obj.use_count(), 4);
  r.pop_front();
  EXPECT_EQ(obj.use_count(), 3);
  r.pop_back();
  EXPECT_EQ(obj.use_count(), 2);
  r.clear();
  EXPECT_EQ(obj.use_count(), 1);

  // erase() must release the dropped element too (via the shifted pop).
  for (int i = 0; i < 4; ++i) r.push_back(obj);
  r.erase(r.begin() + 1);
  EXPECT_EQ(obj.use_count(), 4);
  r.erase(r.begin(), r.begin() + 2);
  EXPECT_EQ(obj.use_count(), 2);
}

TEST(Ring, IteratorsCoverWholeQueueAfterWrap) {
  Ring<int> r;
  for (int i = 0; i < 7; ++i) r.push_back(-1);
  for (int i = 0; i < 7; ++i) r.pop_front();
  for (int i = 0; i < 8; ++i) r.push_back(i);  // spans the wrap point
  int sum = 0;
  for (const int v : r) sum += v;
  EXPECT_EQ(sum, 28);
  EXPECT_EQ(std::accumulate(r.begin(), r.end(), 0), 28);
  EXPECT_EQ(r.end() - r.begin(), 8);
}

// --- slot contract, observed through the packet pool ---

PacketPtr numbered_packet(PacketId id) {
  PacketPtr p = make_packet();
  p->id = id;
  return p;
}

TEST(Ring, PushConstructsIntoAnEmptySlotWithoutExtraReferences) {
  auto& pool = packet_pool();
  const std::size_t base = pool.live();
  {
    Ring<PacketPtr> r;
    r.push_back(numbered_packet(1));
    r.push_front(numbered_packet(0));
    EXPECT_EQ(pool.live(), base + 2);
    EXPECT_EQ(r[0]->pool_refs_, 1u) << "the slot is the only owner";
    EXPECT_EQ(r[1]->pool_refs_, 1u);
    PacketPtr kept = r.front();
    EXPECT_EQ(kept->pool_refs_, 2u);
    r.pop_front();
    EXPECT_EQ(kept->pool_refs_, 1u) << "a popped slot keeps no reference";
    EXPECT_EQ(r.front()->id, 1u);
  }
  EXPECT_EQ(pool.live(), base);
}

TEST(Ring, PacketsSurviveManyWrapsInOrder) {
  auto& pool = packet_pool();
  const std::size_t base = pool.live();
  {
    Ring<PacketPtr> r;
    PacketId next_in = 0;
    PacketId next_out = 0;
    for (int round = 0; round < 100; ++round) {
      r.push_back(numbered_packet(next_in++));
      r.push_back(numbered_packet(next_in++));
      ASSERT_EQ(r.front()->id, next_out++);
      r.pop_front();
      ASSERT_EQ(r.front()->id, next_out++);
      r.pop_front();
      EXPECT_EQ(pool.live(), base);
    }
    // Cross the wrap point backwards too.
    r.push_back(numbered_packet(2));
    r.push_front(numbered_packet(1));
    r.push_front(numbered_packet(0));
    for (PacketId id = 0; id < 3; ++id) {
      EXPECT_EQ(r.front()->id, id);
      r.pop_front();
    }
  }
  EXPECT_EQ(pool.live(), base);
}

TEST(Ring, GrowthMovesLivePacketsWithoutExtraReferences) {
  auto& pool = packet_pool();
  const std::size_t base = pool.live();
  {
    Ring<PacketPtr> r;
    // Rotate the head so growth linearizes a wrapped buffer of packets.
    for (int i = 0; i < 5; ++i) r.push_back(numbered_packet(99));
    for (int i = 0; i < 5; ++i) r.pop_front();
    for (PacketId id = 0; id < 40; ++id) r.push_back(numbered_packet(id));
    EXPECT_EQ(pool.live(), base + 40);
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_EQ(r[i]->id, i);
      EXPECT_EQ(r[i]->pool_refs_, 1u) << "growth left a second owner behind";
    }
  }
  EXPECT_EQ(pool.live(), base) << "destroying a ring releases its packets";
}

TEST(Ring, EraseAndClearReleasePackets) {
  auto& pool = packet_pool();
  const std::size_t base = pool.live();
  Ring<PacketPtr> r;
  for (int i = 0; i < 6; ++i) r.push_back(numbered_packet(99));
  for (int i = 0; i < 6; ++i) r.pop_front();
  for (PacketId id = 0; id < 8; ++id) r.push_back(numbered_packet(id));
  r.erase(r.begin() + 3);  // mid-queue, across the wrap point
  EXPECT_EQ(pool.live(), base + 7);
  EXPECT_EQ(r[3]->id, 4u);
  r.erase(r.begin(), r.begin() + 2);  // front range
  EXPECT_EQ(pool.live(), base + 5);
  EXPECT_EQ(r.front()->id, 2u);
  r.erase(r.begin() + 1, r.begin() + 3);  // mid range
  EXPECT_EQ(pool.live(), base + 3);
  EXPECT_EQ(r[1]->id, 6u);
  for (const PacketPtr& p : r) EXPECT_EQ(p->pool_refs_, 1u);
  r.clear();
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(pool.live(), base);
  r.push_back(numbered_packet(7));  // a cleared ring takes pushes again
  EXPECT_EQ(r.front()->id, 7u);
  r.pop_back();
  EXPECT_EQ(pool.live(), base);
}

TEST(FlitLink, TakeHandsOverTheVisibleFlitOnce) {
  auto& pool = packet_pool();
  const std::size_t base = pool.live();
  {
    FlitLink link;
    PacketPtr pkt = numbered_packet(5);
    link.push(4, Flit{pkt, 3, 2, 0});
    EXPECT_EQ(pkt->pool_refs_, 2u);
    EXPECT_EQ(link.size(), 1u);
    EXPECT_FALSE(link.ready(4)) << "a push becomes visible one cycle later";
    EXPECT_TRUE(link.ready(5));
    EXPECT_EQ(link.take(4), nullptr);

    Flit* f = link.take(5);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->pkt, pkt);
    EXPECT_EQ(f->seq, 3u);
    EXPECT_EQ(f->vc_tag, 2u);
    EXPECT_TRUE(link.empty()) << "a taken slot counts as empty";
    EXPECT_EQ(link.take(5), nullptr) << "a flit is taken once";
    Flit moved = std::move(*f);  // the consumer moves it out
    EXPECT_EQ(pkt->pool_refs_, 2u);
    moved.pkt.reset();
    EXPECT_EQ(pkt->pool_refs_, 1u) << "the wire keeps no reference";

    // Both parity slots in turn, then a kill scrub of two in-flight flits.
    link.push(5, Flit{pkt, 0, 0, 0});
    Flit* g = link.take(6);
    ASSERT_NE(g, nullptr);
    g->pkt.reset();  // or the consumer drops it
    link.push(6, Flit{pkt, 1, 0, 0});
    link.push(7, Flit{numbered_packet(6), 2, 0, 0});
    EXPECT_EQ(link.size(), 2u);
    std::vector<Flit> all = link.take_all();
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].seq, 1u) << "take_all hands flits over oldest first";
    EXPECT_EQ(all[1].pkt->id, 6u);
    EXPECT_TRUE(link.empty());
    all.clear();
    EXPECT_EQ(pkt->pool_refs_, 1u);
  }
  EXPECT_EQ(pool.live(), base);
}

}  // namespace
}  // namespace disco::noc
