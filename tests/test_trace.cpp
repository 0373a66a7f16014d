// Unit tests of the event-tracing layer and the streaming invariant
// checker: ring/filter semantics, canonical formatting, and one synthetic
// violation per invariant family. The last two tests close the loop at
// system level: a clean cell must check clean end to end, and a seeded
// fault-injection run must trip the checker.
#include <sstream>
#include <stdexcept>

#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim/golden.h"
#include "trace/invariants.h"
#include "trace/trace.h"
#include "workload/profile.h"

namespace disco {
namespace {

using trace::Event;
using trace::InvariantChecker;
using trace::InvariantParams;
using trace::TraceEvent;
using trace::Tracer;

TEST(TraceFormat, StArgRoundtrip) {
  const std::int64_t a = trace::st_arg(true, 3, 5, 123456);
  EXPECT_TRUE(trace::st_tail(a));
  EXPECT_EQ(trace::st_out_port(a), 3);
  EXPECT_EQ(trace::st_out_vc(a), 5);
  EXPECT_EQ(trace::st_seq(a), 123456u);
  const std::int64_t b = trace::st_arg(false, 0, 0, 0);
  EXPECT_FALSE(trace::st_tail(b));
  EXPECT_EQ(trace::st_seq(b), 0u);
}

TEST(TraceFormat, CanonicalLine) {
  TraceEvent e;
  e.cycle = 38;
  e.node = 2;
  e.event = Event::BufferWrite;
  e.port = 1;
  e.vc = 4;
  e.pkt = 99;
  e.arg = -3;
  EXPECT_EQ(trace::canonical_line(e), "38 2 BW 1 4 99 -3");
}

TEST(TraceFormat, CategoryMaskSelectsAndRejects) {
  const auto all = trace::category_mask("");
  for (bool b : all) EXPECT_TRUE(b);
  const auto disco_only = trace::category_mask("disco");
  EXPECT_TRUE(disco_only[static_cast<std::size_t>(trace::Category::Disco)]);
  EXPECT_FALSE(disco_only[static_cast<std::size_t>(trace::Category::Noc)]);
  const auto two = trace::category_mask("noc,cache");
  EXPECT_TRUE(two[static_cast<std::size_t>(trace::Category::Noc)]);
  EXPECT_TRUE(two[static_cast<std::size_t>(trace::Category::Cache)]);
  EXPECT_FALSE(two[static_cast<std::size_t>(trace::Category::Credit)]);
  EXPECT_THROW((void)trace::category_mask("bogus"), std::invalid_argument);
}

TEST(Tracer, RingWrapKeepsNewestEvents) {
  TraceConfig tc;
  tc.enabled = true;
  tc.ring_capacity = 8;
  Tracer t(tc);
  for (std::uint64_t i = 0; i < 20; ++i)
    t.emit(i, 0, Event::BufferWrite, 0, 0, i, 0);
  EXPECT_EQ(t.total_events(), 20u);
  EXPECT_EQ(t.dropped_events(), 12u);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 8u);
  for (std::size_t i = 0; i < snap.size(); ++i)
    EXPECT_EQ(snap[i].pkt, 12 + i) << "oldest-first order broken at " << i;
  std::ostringstream os;
  t.write_canonical(os);
  EXPECT_NE(os.str().find("# 12 oldest events dropped"), std::string::npos);
}

TEST(Tracer, FilterSkipsRingButNotChecker) {
  TraceConfig tc;
  tc.enabled = true;
  tc.filter = "cache";
  tc.check_invariants = true;
  Tracer t(tc);
  InvariantChecker checker{InvariantParams{}};
  t.set_checker(&checker);
  t.emit(1, 0, Event::BufferWrite, 0, 0, 1, 0);     // noc: filtered out
  t.emit(2, 0, Event::L2Fill, 0, 0, 64, 64);        // cache: captured
  t.emit(3, 0, Event::CreditSend, 1, 0, 0, 0);      // credit: filtered out
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].event, Event::L2Fill);
  // The checker saw all three regardless of the capture filter.
  EXPECT_EQ(checker.summary().events_checked, 3u);
  EXPECT_TRUE(checker.summary().clean());
}

TEST(Tracer, ChromeJsonExport) {
  TraceConfig tc;
  tc.enabled = true;
  Tracer t(tc);
  t.emit(5, 1, Event::NiInject, 0, 2, 7, 1);
  std::ostringstream os;
  t.write_chrome_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"NIQ\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":5"), std::string::npos);
}

/// Fixture for synthetic-event checker tests: tiny geometry so pools are
/// quick to drain, plus emit helpers.
class CheckerTest : public ::testing::Test {
 protected:
  CheckerTest() : p_(make_params()), c_(p_) {}

  static InvariantParams make_params() {
    InvariantParams p;
    p.nodes = 4;
    p.ports = 5;
    p.local_port = 4;
    p.num_vcs = 2;
    p.vc_depth = 2;
    p.max_hops = 2;
    p.block_flits = 9;
    return p;
  }

  void emit(Event ev, std::uint8_t port, std::uint8_t vc, std::uint64_t pkt,
            std::int64_t arg) {
    TraceEvent e;
    e.cycle = cycle_++;
    e.node = 0;
    e.event = ev;
    e.port = port;
    e.vc = vc;
    e.pkt = pkt;
    e.arg = arg;
    c_.on_event(e);
  }

  /// Walk VC (port, vc) to Active legally.
  void activate(std::uint8_t port, std::uint8_t vc) {
    emit(Event::RouteCompute, port, vc, 1, 1);
    emit(Event::VcAllocGrant, port, vc, 1, 0);
  }

  InvariantParams p_;
  InvariantChecker c_;
  Cycle cycle_ = 0;
};

TEST_F(CheckerTest, CreditUnderflowOnSwitchTraversal) {
  activate(0, 0);
  // Non-tail STs toward out port 1 vc 0: depth legal, one more underflows.
  for (std::uint32_t i = 0; i < p_.vc_depth; ++i)
    emit(Event::SwitchTraversal, 0, 0, 1, trace::st_arg(false, 1, 0, i));
  EXPECT_TRUE(c_.summary().clean());
  emit(Event::SwitchTraversal, 0, 0, 1, trace::st_arg(false, 1, 0, 9));
  EXPECT_EQ(c_.summary().credit_violations, 1u);
}

TEST_F(CheckerTest, EjectionPortNeedsNoCredits) {
  activate(0, 0);
  // The local (ejection) port has infinite credits: far more STs than the
  // depth must stay clean.
  for (std::uint32_t i = 0; i < 4 * p_.vc_depth; ++i)
    emit(Event::SwitchTraversal, 0, 0, 1,
         trace::st_arg(false, static_cast<std::uint8_t>(p_.local_port), 0, i));
  EXPECT_TRUE(c_.summary().clean());
}

TEST_F(CheckerTest, CreditOverflowOnRecv) {
  emit(Event::CreditRecv, 1, 0, 0, 0);  // pool starts full at depth
  EXPECT_EQ(c_.summary().credit_violations, 1u);
}

TEST_F(CheckerTest, VcStateMachineLegality) {
  emit(Event::VcAllocGrant, 0, 0, 1, 0);  // VA without RC
  EXPECT_EQ(c_.summary().vc_state_violations, 1u);
  emit(Event::SwitchTraversal, 1, 0, 1, trace::st_arg(false, 4, 0, 0));
  EXPECT_EQ(c_.summary().vc_state_violations, 2u);  // ST from idle
  activate(2, 0);
  emit(Event::RouteCompute, 2, 0, 1, 1);  // RC again while allocated...
  EXPECT_EQ(c_.summary().vc_state_violations, 3u);
}

TEST_F(CheckerTest, TailStReturnsVcToIdle) {
  activate(0, 0);
  emit(Event::SwitchTraversal, 0, 0, 1, trace::st_arg(true, 1, 0, 0));
  EXPECT_TRUE(c_.summary().clean());
  activate(0, 0);  // a new packet may legally restart the pipeline
  EXPECT_TRUE(c_.summary().clean());
}

TEST_F(CheckerTest, NiInjectionCredits) {
  for (std::uint32_t i = 0; i < p_.vc_depth; ++i)
    emit(Event::NiFlitInject, 0, 0, 1, i);
  EXPECT_TRUE(c_.summary().clean());
  emit(Event::NiFlitInject, 0, 0, 1, 9);
  EXPECT_EQ(c_.summary().credit_violations, 1u);
  emit(Event::NiCreditRecv, 0, 0, 0, 0);
  emit(Event::NiCreditRecv, 0, 0, 0, 0);
  emit(Event::NiCreditRecv, 0, 0, 0, 0);  // pool back at depth: overflow
  EXPECT_EQ(c_.summary().credit_violations, 2u);
}

TEST_F(CheckerTest, ShadowLifetime) {
  emit(Event::CompStart, 0, 0, 10, 0);
  emit(Event::CompStart, 0, 0, 11, 0);  // double-arm
  EXPECT_EQ(c_.summary().shadow_violations, 1u);
  emit(Event::CompAbort, 0, 0, 11, 0);
  emit(Event::ShadowRetire, 0, 0, 11, 0);
  EXPECT_EQ(c_.summary().shadow_violations, 1u);  // legal after the rearm

  emit(Event::DecompStart, 1, 0, 20, 0);
  emit(Event::ShadowRetire, 1, 0, 20, 0);  // retire before abort-or-commit
  EXPECT_EQ(c_.summary().shadow_violations, 2u);

  emit(Event::CompAbort, 2, 0, 30, 0);  // decide without an armed shadow
  EXPECT_EQ(c_.summary().shadow_violations, 3u);

  emit(Event::CompStart, 3, 0, 40, 0);
  emit(Event::CompFinish, 3, 0, 40, -4);
  emit(Event::CompFinish, 3, 0, 40, -4);  // double decide
  EXPECT_EQ(c_.summary().shadow_violations, 4u);
}

TEST_F(CheckerTest, ConfidenceBounds) {
  // In-range: Eq.1 max is num_vcs*depth + gamma*ports*num_vcs = 4 + 10.
  emit(Event::ConfidenceComp, 0, 0, 1, static_cast<std::int64_t>(14 * 256));
  EXPECT_TRUE(c_.summary().clean());
  emit(Event::ConfidenceComp, 0, 0, 1, static_cast<std::int64_t>(15 * 256));
  EXPECT_EQ(c_.summary().confidence_violations, 1u);
  emit(Event::ConfidenceComp, 0, 0, 1, -256);  // Eq.1 is never negative
  EXPECT_EQ(c_.summary().confidence_violations, 2u);
  // Eq.2 may go as low as -beta * max_hops = -4.
  emit(Event::ConfidenceDecomp, 0, 0, 1, static_cast<std::int64_t>(-4 * 256));
  EXPECT_EQ(c_.summary().confidence_violations, 2u);
  emit(Event::ConfidenceDecomp, 0, 0, 1, static_cast<std::int64_t>(-5 * 256));
  EXPECT_EQ(c_.summary().confidence_violations, 3u);
}

TEST_F(CheckerTest, DuplicateEjection) {
  emit(Event::NiFlitEject, 4, 0, 7, 3);
  emit(Event::NiFlitEject, 4, 0, 7, 4);
  EXPECT_TRUE(c_.summary().clean());
  emit(Event::NiFlitEject, 4, 0, 7, 3);  // same packet, same seq
  EXPECT_EQ(c_.summary().eject_violations, 1u);
  emit(Event::NiReassembled, 4, 0, 7, 2);
  emit(Event::NiFlitEject, 4, 0, 7, 3);  // new lifetime for pkt 7: legal
  EXPECT_EQ(c_.summary().eject_violations, 1u);
}

TEST_F(CheckerTest, L2FillStoredSizePlausibility) {
  emit(Event::L2Fill, 0, 0, 0x1000, 1);
  emit(Event::L2Fill, 0, 0, 0x1040, kBlockBytes);
  emit(Event::L2Fill, 0, 0, 0x1080, kBlockBytes + 1);  // +1 for the tag flit
  EXPECT_TRUE(c_.summary().clean());
  emit(Event::L2Fill, 0, 0, 0x10c0, 0);
  EXPECT_EQ(c_.summary().cache_violations, 1u);
  emit(Event::L2Fill, 0, 0, 0x1100, kBlockBytes + 2);
  EXPECT_EQ(c_.summary().cache_violations, 2u);
}

TEST_F(CheckerTest, FlitConservationReconciliation) {
  emit(Event::NiFlitInject, 0, 0, 1, 0);
  c_.end_of_cycle(cycle_, 1);  // one flit in flight: balanced
  EXPECT_TRUE(c_.summary().clean());
  c_.end_of_cycle(cycle_, 0);  // modeled 1, structural 0: a flit vanished
  EXPECT_EQ(c_.summary().conservation_violations, 1u);
  EXPECT_NE(c_.summary().first_violation.find("flit conservation broken"),
            std::string::npos);
  emit(Event::Rebuild, 0, 0, 1, -1);  // compression shrank it away
  c_.end_of_cycle(cycle_, 0);
  EXPECT_EQ(c_.summary().conservation_violations, 1u);
}

TEST_F(CheckerTest, FlitDropLeavesTheNetwork) {
  emit(Event::NiFlitInject, 0, 0, 1, 0);
  activate(1, 0);
  emit(Event::FlitDrop, 1, 0, 1, 1);  // lost at ST: no link push, no credit
  c_.end_of_cycle(cycle_, 0);
  EXPECT_TRUE(c_.summary().clean()) << c_.summary().first_violation;
  emit(Event::FlitDrop, 2, 0, 1, 2);  // from a VC that holds no packet
  EXPECT_EQ(c_.summary().vc_state_violations, 1u);
}

TEST_F(CheckerTest, RebuildDeltaBeyondPacketSpan) {
  emit(Event::Rebuild, 0, 0, 1,
       static_cast<std::int64_t>(p_.block_flits) + 1);
  EXPECT_EQ(c_.summary().conservation_violations, 1u);
}

// --- system-level closure ---

TEST(TraceSystem, GoldenScenariosCheckClean) {
  for (const auto& s : sim::golden_scenarios()) {
    const auto run = sim::run_golden_scenario(s.name);
    EXPECT_TRUE(run.invariants.clean())
        << s.name << ": " << run.invariants.first_violation;
    EXPECT_GT(run.invariants.events_checked, 0u) << s.name;
    EXPECT_FALSE(run.trace.empty()) << s.name;
  }
  EXPECT_THROW((void)sim::run_golden_scenario("nope"), std::invalid_argument);
}

TEST(TraceSystem, SeededFlitDropsBalanceConservation) {
  SystemConfig cfg;
  cfg.noc.mesh_cols = 2;
  cfg.noc.mesh_rows = 2;
  cfg.l2.total_size_bytes = 256ULL * 1024;
  cfg.trace.check_invariants = true;
  cfg.fault.enabled = true;
  cfg.fault.flit_drop_rate = 0.01;

  workload::BenchmarkProfile profile = workload::parsec_profiles().front();
  profile.footprint_blocks = 1 << 10;

  sim::RunOptions opt;
  opt.warmup_ops_per_core = 2000;
  opt.warmup_cycles = 500;
  opt.measure_cycles = 4000;

  const auto r = sim::run_cell(cfg, profile, opt);
  EXPECT_TRUE(r.invariants.enabled);
  EXPECT_GT(r.fault.flit_drops, 0u);
  // Each drop is traced and leaves the conservation equation as a destroyed
  // flit, so a run with drops checks clean; a flit lost without its event
  // still breaks the balance (CheckerTest.FlitConservationReconciliation).
  EXPECT_TRUE(r.invariants.clean()) << r.invariants.first_violation;
  EXPECT_GT(r.invariants.cycles_checked, 0u);
}

}  // namespace
}  // namespace disco
