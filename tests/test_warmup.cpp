// Functional-warmup state. WarmupPins.* digest every L1 and L2 line after
// `CmpSystem::functional_warmup` on five cells, so a change to the warm
// path cannot move the state the timed phase starts from unnoticed. Update
// a digest only for an intended behaviour change. Warmup.* check the facts
// the warm path's L1 fast path relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cmp/system.h"
#include "workload/profile.h"

namespace disco::cmp {
namespace {

using cache::DirInfo;
using cache::L1Line;
using cache::L1State;
using cache::L2Line;

struct WarmCell {
  const char* workload;
  const char* algorithm;
  Scheme scheme;
  std::uint64_t ops_per_core;
  std::uint32_t mesh = 4;            ///< mesh_cols = mesh_rows
  std::uint64_t l2_total_bytes = 0;  ///< 0 = Table 2 default
  std::uint64_t seed = 1;
};

constexpr WarmCell kCanneal{"canneal", "delta", Scheme::CC, 6000};
constexpr WarmCell kX264{"x264", "delta", Scheme::DISCO, 3000};
constexpr WarmCell kSwaptions{"swaptions", "delta", Scheme::Ideal, 3000};
constexpr WarmCell kStreamcluster{"streamcluster", "sc2", Scheme::DISCO, 3000};
/// At Table 2 sizes no warm store evicts an L2 line; 16 KiB banks on a 2x2
/// mesh evict about a thousand, so this cell covers the eviction path.
constexpr WarmCell kSmallBanks{"x264", "delta", Scheme::DISCO, 2000, 2, 4 * 16 * 1024, 3};

std::unique_ptr<CmpSystem> warmed(const WarmCell& c) {
  SystemConfig cfg;
  cfg.scheme = c.scheme;
  cfg.algorithm = c.algorithm;
  cfg.seed = c.seed;
  cfg.noc.mesh_cols = cfg.noc.mesh_rows = c.mesh;
  if (c.l2_total_bytes != 0) cfg.l2.total_size_bytes = c.l2_total_bytes;
  auto sys = std::make_unique<CmpSystem>(cfg, workload::profile_by_name(c.workload));
  sys->functional_warmup(c.ops_per_core);
  return sys;
}

/// FNV-1a over words and byte ranges.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;

  void byte(std::uint8_t b) { h = (h ^ b) * 0x100000001b3ULL; }
  void word(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  template <class Bytes>
  void bytes(const Bytes& b) {
    word(b.size());
    for (const std::uint8_t x : b) byte(x);
  }
};

/// Every valid L1 line (index, addr, state, data, lru) of every node, then
/// every L2 line (addr, dirty, segments, lru, data, stored image, directory
/// entry) of every bank, each array in its own order.
std::uint64_t warm_state_digest(CmpSystem& sys) {
  const std::uint32_t n = sys.config().noc.num_nodes();
  Digest d;
  for (NodeId node = 0; node < n; ++node) {
    const auto lines = sys.l1(node).array().lines();
    for (std::size_t i = 0; i < lines.size(); ++i) {
      const L1Line& l = lines[i];
      if (!l.valid()) continue;
      d.word(i);
      d.word(l.addr);
      d.word(static_cast<std::uint64_t>(l.state));
      d.bytes(l.data);
      d.word(l.lru);
    }
  }
  for (NodeId node = 0; node < n; ++node) {
    sys.l2(node).array().for_each_line([&](const L2Line& l) {
      d.word(l.addr);
      d.word(l.dirty);
      d.word(l.segments);
      d.word(l.lru);
      d.bytes(l.data);
      d.word(l.stored.has_value());
      if (l.stored) {
        d.bytes(l.stored->bytes);
        d.word(l.stored->overhead_bytes);
      }
      d.word(static_cast<std::uint64_t>(l.dir.kind));
      d.word(l.dir.sharers);
      d.word(l.dir.owner);
    });
  }
  return d.h;
}

std::uint64_t pin_of(const WarmCell& c) {
  auto sys = warmed(c);
  return warm_state_digest(*sys);
}

TEST(WarmupPins, CannealDeltaCC) {
  const std::uint64_t d = pin_of(kCanneal);
  EXPECT_EQ(d, 0x6121e1f9c4787c61ULL) << std::hex << "0x" << d;
}

TEST(WarmupPins, X264DeltaDisco) {
  const std::uint64_t d = pin_of(kX264);
  EXPECT_EQ(d, 0x80544162e5b4ad41ULL) << std::hex << "0x" << d;
}

TEST(WarmupPins, SwaptionsDeltaIdeal) {
  const std::uint64_t d = pin_of(kSwaptions);
  EXPECT_EQ(d, 0x6650808d60fe9dffULL) << std::hex << "0x" << d;
}

TEST(WarmupPins, StreamclusterSc2Disco) {
  const std::uint64_t d = pin_of(kStreamcluster);
  EXPECT_EQ(d, 0x92b3319dbf5da64bULL) << std::hex << "0x" << d;
}

TEST(WarmupPins, SmallBanksEvict) {
  const std::uint64_t d = pin_of(kSmallBanks);
  EXPECT_EQ(d, 0xf97aae9c9d363d1eULL) << std::hex << "0x" << d;
}

// `CmpSystem::warm_access` answers L1 hits without probing the home, which
// is exact only if every L1 copy has its home line (inclusion) and the
// copy's state agrees with the home's directory entry.
TEST(Warmup, L1StatesAgreeWithDirectory) {
  for (const WarmCell& c : {kCanneal, kX264, kSwaptions, kStreamcluster, kSmallBanks}) {
    SCOPED_TRACE(std::string(c.workload) + "/" + c.algorithm);
    auto sys = warmed(c);
    std::size_t checked = 0;
    for (NodeId node = 0; node < sys->config().noc.num_nodes(); ++node) {
      for (const L1Line& l : sys->l1(node).array().lines()) {
        if (!l.valid()) continue;
        const L2Line* home = sys->l2(sys->home_of(l.addr)).array().lookup(l.addr);
        ASSERT_NE(home, nullptr) << "L1 copy of 0x" << std::hex << l.addr
                                 << " has no home line";
        const bool owned = l.state == L1State::E || l.state == L1State::M;
        EXPECT_EQ(owned, home->dir.kind == DirInfo::Kind::Excl && home->dir.owner == node)
            << "node " << node << " block 0x" << std::hex << l.addr;
        EXPECT_EQ(l.state == L1State::S,
                  home->dir.kind == DirInfo::Kind::Shared && home->dir.is_sharer(node))
            << "node " << node << " block 0x" << std::hex << l.addr;
        ++checked;
      }
    }
    EXPECT_GT(checked, 0u);
  }
}

}  // namespace
}  // namespace disco::cmp
