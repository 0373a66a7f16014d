// Infrastructure tests: RNG determinism/quality smoke checks, table
// printing, config summaries, and scheme-setup wiring.
#include <gtest/gtest.h>

#include <sstream>

#include "cmp/scheme.h"
#include "common/config.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "compress/registry.h"

namespace disco {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, UniformityRough) {
  Rng rng(123);
  int buckets[8] = {};
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++buckets[rng.next_below(8)];
  for (int b = 0; b < 8; ++b) {
    EXPECT_NEAR(buckets[b], n / 8, n / 8 * 0.1) << "bucket " << b;
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SplitmixIsStatelessHash) {
  EXPECT_EQ(splitmix64(42), splitmix64(42));
  EXPECT_NE(splitmix64(42), splitmix64(43));
}

TEST(Rng, SplitmixStreamDerivationSeparatesCells) {
  // The sweep engine's per-cell seeds: pure function of (base, index),
  // distinct across indices and across bases.
  EXPECT_EQ(splitmix64(1, 0), splitmix64(1, 0));
  EXPECT_NE(splitmix64(1, 0), splitmix64(1, 1));
  EXPECT_NE(splitmix64(1, 7), splitmix64(2, 7));
  // Not the trivial composition of either single-arg hash.
  EXPECT_NE(splitmix64(1, 0), splitmix64(1));
  EXPECT_NE(splitmix64(1, 0), splitmix64(0));
}

TEST(Histogram, QuantileEdgeCases) {
  // Bucket convention: add() files v into the bucket whose exclusive upper
  // bound 2^i is the smallest power of two > v; approx_quantile reports
  // that upper bound for the sample of rank ceil(q * count).
  Histogram h;
  h.add(0);    // bucket 0 -> reports 1
  h.add(3);    // bucket 2 -> reports 4
  h.add(3);
  h.add(100);  // bucket 7 -> reports 128
  EXPECT_EQ(h.approx_quantile(0.0), 1u) << "q=0 is the minimum's bucket";
  EXPECT_EQ(h.approx_quantile(0.5), 4u);
  EXPECT_EQ(h.approx_quantile(0.99), 128u);
  EXPECT_EQ(h.approx_quantile(1.0), 128u) << "q=1 is the maximum's bucket";
  // Out-of-range q clamps instead of under/overflowing the rank.
  EXPECT_EQ(h.approx_quantile(-0.5), 1u);
  EXPECT_EQ(h.approx_quantile(2.0), 128u);
}

TEST(Histogram, QuantileSingleSampleAndEmpty) {
  Histogram empty;
  EXPECT_EQ(empty.approx_quantile(0.5), 0u);
  Histogram one;
  one.add(9);  // bucket (8..15] -> reports 16
  for (const double q : {0.0, 0.5, 0.99, 1.0})
    EXPECT_EQ(one.approx_quantile(q), 16u) << "q=" << q;
}

TEST(Table, RendersAlignedGrid) {
  TablePrinter t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"bb", "22222"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| alpha |"), std::string::npos);
  EXPECT_NE(out.find("| 22222 |"), std::string::npos);
  EXPECT_EQ(out.find('\t'), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(TablePrinter::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::pct(0.1234), "12.3%");
}

TEST(Config, SummaryMentionsKeyParameters) {
  SystemConfig cfg;
  const std::string s = cfg.summary();
  EXPECT_NE(s.find("4x4"), std::string::npos);
  EXPECT_NE(s.find("4MB"), std::string::npos);
  EXPECT_NE(s.find("DISCO"), std::string::npos);
}

TEST(Config, BankSizeDerived) {
  SystemConfig cfg;
  EXPECT_EQ(cfg.l2_bank_size_bytes(), 256u * 1024u);
  cfg.noc.mesh_cols = 8;
  cfg.noc.mesh_rows = 8;
  cfg.l2.total_size_bytes = 16ULL << 20;
  EXPECT_EQ(cfg.l2_bank_size_bytes(), 256u * 1024u);
}

TEST(SchemeSetup, WiringMatchesDesignTable) {
  auto algo = compress::make_algorithm("delta");
  const auto lat = algo->latency();

  const auto base = cmp::make_scheme_setup(Scheme::Baseline, *algo);
  EXPECT_FALSE(base.bank.store_compressed);
  EXPECT_FALSE(base.use_disco_units);

  const auto cc = cmp::make_scheme_setup(Scheme::CC, *algo);
  EXPECT_TRUE(cc.bank.store_compressed);
  EXPECT_EQ(cc.bank.read_decomp_cycles, lat.decomp_cycles);
  EXPECT_FALSE(cc.bank.inject_stored_wire);
  EXPECT_FALSE(cc.ni.compress_on_inject);

  const auto cnc = cmp::make_scheme_setup(Scheme::CNC, *algo);
  EXPECT_TRUE(cnc.ni.compress_on_inject);
  EXPECT_TRUE(cnc.ni.decompress_on_eject_all);
  EXPECT_EQ(cnc.ni.decomp_cycles, lat.decomp_cycles);

  const auto dsc = cmp::make_scheme_setup(Scheme::DISCO, *algo);
  EXPECT_TRUE(dsc.use_disco_units);
  EXPECT_TRUE(dsc.bank.inject_stored_wire);
  EXPECT_EQ(dsc.bank.read_decomp_cycles, 0u);
  EXPECT_TRUE(dsc.ni.decompress_for_raw_consumers);
  EXPECT_TRUE(dsc.ni.compress_when_source_queued);

  const auto ideal = cmp::make_scheme_setup(Scheme::Ideal, *algo);
  EXPECT_EQ(ideal.ni.comp_cycles, 0u);
  EXPECT_EQ(ideal.ni.decomp_cycles, 0u);
  EXPECT_FALSE(ideal.use_disco_units);
}

TEST(Types, ToStringCoversEnums) {
  EXPECT_STREQ(to_string(Scheme::DISCO), "DISCO");
  EXPECT_STREQ(to_string(UnitKind::MemCtrl), "MemCtrl");
  EXPECT_STREQ(to_string(VNet::Coherence), "Coherence");
}

}  // namespace
}  // namespace disco
