// Shared simulation fixtures for the test suite. Everything that used to be
// duplicated between the NoC-level and cache-level test utilities lives here
// once: a collecting packet sink, a deterministic compressible-packet
// factory, quiescence drivers, and the MiniCmp substrate (mesh + L1s + L2
// banks + memory controller, no cores) that protocol tests drive directly.
// tests/noc_test_util.h and tests/cache_test_util.h remain as thin aliases
// so existing tests keep their includes.
#pragma once

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cache/l1_cache.h"
#include "cache/l2_bank.h"
#include "cache/mem_ctrl.h"
#include "cmp/scheme.h"
#include "common/rng.h"
#include "compress/registry.h"
#include "disco/unit.h"
#include "noc/network.h"

namespace disco::noc::testutil {

class CollectingSink final : public PacketSink {
 public:
  void deliver(PacketPtr pkt, Cycle now) override {
    arrivals.push_back({std::move(pkt), now});
  }
  struct Arrival {
    PacketPtr pkt;
    Cycle when;
  };
  std::vector<Arrival> arrivals;
};

inline PacketPtr make_packet(NodeId src, NodeId dst, VNet vnet, bool with_data,
                             Cycle now, std::uint64_t id) {
  auto pkt = disco::noc::make_packet();
  pkt->id = id;
  pkt->src = src;
  pkt->dst = dst;
  pkt->src_unit = UnitKind::Core;
  pkt->dst_unit = UnitKind::Core;
  pkt->vnet = vnet;
  pkt->created = now;
  pkt->has_data = with_data;
  pkt->compressible = with_data;
  if (with_data) {
    // Compressible payload: base + small deltas.
    Rng rng(id);
    const std::uint64_t base = rng.next_u64();
    for (std::size_t f = 0; f < kWordsPerBlock; ++f) {
      const std::uint64_t v = base + rng.next_below(100);
      std::memcpy(pkt->data.data() + f * 8, &v, 8);
    }
  }
  return pkt;
}

/// Tick until the network is quiescent; returns false on timeout.
inline bool run_until_quiescent(Network& net, Cycle& clock, Cycle max_cycles) {
  for (Cycle i = 0; i < max_cycles; ++i) {
    ++clock;
    net.tick(clock);
    if (net.quiescent()) return true;
  }
  return false;
}

}  // namespace disco::noc::testutil

namespace disco::cache::testutil {

class MiniCmp {
 public:
  explicit MiniCmp(Scheme scheme = Scheme::Baseline, std::uint32_t nodes_side = 2,
                   std::string algo_name = "delta") {
    cfg_.noc.mesh_cols = nodes_side;
    cfg_.noc.mesh_rows = nodes_side;
    cfg_.scheme = scheme;
    cfg_.l2.total_size_bytes = 256ULL * 1024 * nodes_side * nodes_side;
    algo_ = compress::make_algorithm(algo_name);

    const cmp::SchemeSetup setup = cmp::make_scheme_setup(scheme, *algo_);
    cfg_.noc.deprioritize_compressible &= setup.deprioritize_compressible;
    noc::Network::ExtensionFactory factory;
    if (setup.use_disco_units) {
      factory = [this](noc::Router& r) {
        return std::make_unique<core::DiscoUnit>(r, cfg_.disco, *algo_,
                                                 algo_->latency(), noc_stats_);
      };
    }
    net_ = std::make_unique<noc::Network>(cfg_.noc, setup.ni, noc_stats_,
                                          factory);

    const std::uint32_t n = cfg_.noc.num_nodes();
    auto home = [n](Addr a) { return static_cast<NodeId>((a / kBlockBytes) % n); };
    auto mem_node = [](Addr) { return NodeId{0}; };
    std::uint32_t shift = 0;
    while ((1u << shift) < n) ++shift;

    for (NodeId node = 0; node < n; ++node) {
      l1s_.push_back(std::make_unique<L1Cache>(node, cfg_.l1, net_->ni(node),
                                               home, stats_));
      net_->register_sink(node, UnitKind::Core, l1s_.back().get());
      l2s_.push_back(std::make_unique<L2Bank>(
          node, cfg_.l2, setup.bank, algo_.get(), cfg_.l2_bank_size_bytes(), shift,
          net_->ni(node), mem_node, stats_));
      net_->register_sink(node, UnitKind::L2Bank, l2s_.back().get());
    }
    mem_ = std::make_unique<MemCtrl>(
        NodeId{0}, cfg_.mem, net_->ni(0),
        [this](Addr a) { return default_block_(a); }, stats_);
    net_->register_sink(0, UnitKind::MemCtrl, mem_.get());
  }

  void set_memory_pattern(std::function<BlockBytes(Addr)> fn) {
    default_block_ = std::move(fn);
  }

  void tick() {
    ++clock_;
    net_->tick(clock_);
    for (auto& l1 : l1s_) l1->tick(clock_);
    for (auto& l2 : l2s_) l2->tick(clock_);
    mem_->tick(clock_);
  }

  /// Run until all controllers and the network are idle (false on timeout).
  bool drain(Cycle max_cycles = 20000) {
    for (Cycle i = 0; i < max_cycles; ++i) {
      tick();
      bool quiet = net_->quiescent() && mem_->idle();
      for (auto& l1 : l1s_) quiet = quiet && l1->idle();
      for (auto& l2 : l2s_) quiet = quiet && l2->idle();
      if (quiet) return true;
    }
    return false;
  }

  /// Blocking load: issues through the L1 and drains the system.
  /// Returns the loaded block as seen by the L1 afterwards.
  BlockBytes load(NodeId node, Addr addr) {
    issue(node, addr, false, 0);
    drain();
    const L1Line* line = l1s_[node]->peek(block_align(addr));
    EXPECT_NE(line, nullptr) << "load did not install a line";
    return line != nullptr ? line->data : BlockBytes{};
  }

  void store(NodeId node, Addr addr, std::uint64_t value) {
    issue(node, addr, true, value);
    drain();
  }

  /// Issue an access, retrying while the L1 is Blocked.
  void issue(NodeId node, Addr addr, bool is_store, std::uint64_t value) {
    for (int tries = 0; tries < 10000; ++tries) {
      const auto outcome =
          l1s_[node]->access(next_op_++, addr, is_store, value, clock_);
      if (outcome != L1Cache::Outcome::Blocked) return;
      tick();
    }
    FAIL() << "access blocked forever";
  }

  SystemConfig cfg_;
  std::unique_ptr<compress::Algorithm> algo_;
  noc::NocStats noc_stats_;
  CacheStats stats_;
  std::unique_ptr<noc::Network> net_;
  std::vector<std::unique_ptr<L1Cache>> l1s_;
  std::vector<std::unique_ptr<L2Bank>> l2s_;
  std::unique_ptr<MemCtrl> mem_;
  Cycle clock_ = 0;
  std::uint64_t next_op_ = 1;

 private:
  std::function<BlockBytes(Addr)> default_block_ = [](Addr a) {
    BlockBytes b{};
    for (std::size_t f = 0; f < kWordsPerBlock; ++f) {
      const std::uint64_t v = splitmix64(a + f);
      std::memcpy(b.data() + f * 8, &v, 8);
    }
    return b;
  };
};

using disco::Rng;
using disco::splitmix64;

inline std::uint64_t word_at(const BlockBytes& b, std::size_t offset) {
  std::uint64_t v;
  std::memcpy(&v, b.data() + (offset & ~std::size_t{7}), 8);
  return v;
}

}  // namespace disco::cache::testutil
