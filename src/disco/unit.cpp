#include "disco/unit.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "noc/snapshot.h"

namespace disco::core {

using noc::VcId;
using noc::VirtualChannel;

namespace {

/// Confidence values travel in trace events as llround(c * 256) fixed-point.
std::int64_t conf_fixed(double c) { return std::llround(c * 256.0); }

}  // namespace

DiscoUnit::DiscoUnit(noc::Router& router, const DiscoConfig& cfg,
                     const compress::Algorithm& algo,
                     compress::LatencyModel latency, noc::NocStats& stats,
                     fault::FaultInjector* fi)
    : router_(router), cfg_(cfg), algo_(algo), latency_(latency), stats_(stats),
      fi_(fi) {
  engines_.resize(std::max<std::uint32_t>(cfg_.engines_per_router, 1));
  cc_th_ = cfg_.cc_threshold;
  cd_th_ = cfg_.cd_threshold;
  next_adapt_ = cfg_.adapt_window_cycles;
}

bool DiscoUnit::engine_available() const {
  return std::any_of(engines_.begin(), engines_.end(),
                     [](const Engine& e) { return !e.busy && !e.quarantined; });
}

std::size_t DiscoUnit::busy_engines() const {
  return static_cast<std::size_t>(
      std::count_if(engines_.begin(), engines_.end(),
                    [](const Engine& e) { return e.busy; }));
}

std::size_t DiscoUnit::quarantined_engines() const {
  return static_cast<std::size_t>(
      std::count_if(engines_.begin(), engines_.end(),
                    [](const Engine& e) { return e.quarantined; }));
}

double DiscoUnit::compression_confidence(const VcId& v) const {
  const VirtualChannel& ch = router_.vc(v);
  const double remote = router_.downstream_occupancy(ch.out_port);
  const double local = router_.competing_vcs(ch.out_port, v);
  return remote + cfg_.gamma * local;  // Eq. 1
}

double DiscoUnit::decompression_confidence(const VcId& v) const {
  const VirtualChannel& ch = router_.vc(v);
  const noc::PacketPtr pkt = ch.head_packet();
  const double remote = router_.downstream_occupancy(ch.out_port);
  const double local = router_.competing_vcs(ch.out_port, v);
  const double hops = pkt ? router_.hops_to(pkt->dst) : 0.0;
  return remote + cfg_.alpha * local - cfg_.beta * hops;  // Eq. 2
}

void DiscoUnit::after_allocation(Cycle now, const std::vector<VcId>& losers) {
  if (!engine_available() || losers.empty()) return;

  // Packet filter + confidence counter (Fig. 3).
  std::vector<Candidate> candidates;
  for (const VcId& v : losers) {
    VirtualChannel& ch = router_.vc(v);
    const noc::PacketPtr pkt = ch.head_packet();
    if (!pkt || !pkt->has_data || ch.engine_busy || ch.sent_flits != 0) continue;

    if (pkt->compressible && !pkt->compressed() && !pkt->comp_failed &&
        !pkt->decompressed_in_network) {
      // Compressing a block that is about to be consumed raw would only
      // re-expose decompression latency at the NI (packet-filter rule).
      if (pkt->dst_unit != UnitKind::L2Bank && router_.hops_to(pkt->dst) <= 1)
        continue;
      // Whole-packet residency is required unless separate-flit compression
      // (section 3.3A) is enabled; at least the head group must be here.
      const bool resident = ch.whole_packet_resident();
      if (!resident && !(cfg_.separate_flit_compression &&
                         ch.buffered_flits_of_head() >= 2)) {
        continue;
      }
      const double c = compression_confidence(v);
      if (auto* t = router_.tracer())
        t->emit(now, router_.id(), trace::Event::ConfidenceComp,
                static_cast<std::uint8_t>(v.port), v.vc, pkt->id,
                conf_fixed(c));
      if (c > cc_th_) {
        candidates.push_back({v, /*decompress=*/false, c});
      } else {
        ++window_rejections_;
      }
    } else if (pkt->compressed() && pkt->dst_unit != UnitKind::L2Bank) {
      // Decompress only blocks heading to a raw consumer (core L1 / DRAM);
      // bank-bound blocks are stored compressed, so early decompression
      // would only waste bandwidth (the RC_Hop rationale of Eq. 2).
      if (!ch.whole_packet_resident()) continue;
      const double c = decompression_confidence(v);
      if (auto* t = router_.tracer())
        t->emit(now, router_.id(), trace::Event::ConfidenceDecomp,
                static_cast<std::uint8_t>(v.port), v.vc, pkt->id,
                conf_fixed(c));
      if (c > cd_th_) {
        candidates.push_back({v, /*decompress=*/true, c});
      } else {
        ++window_rejections_;
      }
    }
  }
  if (candidates.empty()) return;

  // Dispatch the top-k losers, one per free engine. Each candidate is a
  // distinct VC (engine_busy VCs were filtered above), so winners never
  // contend for the same packet. stable_sort keeps the losers order on
  // confidence ties, which keeps the dispatch deterministic.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.confidence > b.confidence;
                   });
  std::size_t next = 0;
  for (Engine& eng : engines_) {
    if (next >= candidates.size()) break;
    if (!eng.busy && !eng.quarantined) start(eng, candidates[next++], now);
  }
}

void DiscoUnit::start(Engine& eng, const Candidate& cand, Cycle now) {
  VirtualChannel& ch = router_.vc(cand.vc);
  noc::PacketPtr pkt = ch.head_packet();
  assert(pkt);

  eng.busy = true;
  eng.decompress = cand.decompress;
  eng.vc = cand.vc;
  eng.pkt = pkt;
  eng.old_flit_count = pkt->flit_count();
  eng.awaiting_residency = !ch.whole_packet_resident();
  eng.done_at =
      now + (cand.decompress ? latency_.decomp_cycles : latency_.comp_cycles);
  if (fault_mode() && fi_->should_stall_engine()) {
    // Transient engine hang (clock-gating glitch model): the operation
    // completes late, which widens the abort window.
    eng.done_at += fi_->config().engine_stall_cycles;
  }

  if (!cand.decompress) {
    eng.result = algo_.compress(pkt->data);
    if (cfg_.separate_flit_compression && eng.awaiting_residency) {
      // Separately compressed flit groups carry concatenation tags so the
      // bubble between groups can be merged away (section 3.3A); model the
      // tag overhead as two extra bytes of framing. They occupy wire space
      // but are not part of the decodable stream, so they must not be
      // appended to `bytes` (decoders reject length-altered streams).
      eng.result.overhead_bytes += 2;
    }
    if (eng.result.size() >= kBlockBytes) {
      // Incompressible: the attempt still occupies the engine, and the
      // packet is marked so the arbitrator does not retry it every cycle.
      pkt->comp_failed = true;
    } else if (fault_mode()) {
      // Silent datapath fault in the compressor output; travels undetected
      // until the ejecting NI's end-to-end verification.
      fi_->corrupt_engine_output(eng.result.bytes);
    }
  }

  ch.engine_busy = true;
  ch.sa_inhibit = !cfg_.non_blocking;
  ++stats_.engine_starts;
  if (auto* t = router_.tracer())
    t->emit(now, router_.id(),
            cand.decompress ? trace::Event::DecompStart
                            : trace::Event::CompStart,
            static_cast<std::uint8_t>(cand.vc.port), cand.vc.vc, pkt->id,
            conf_fixed(cand.confidence));
}

void DiscoUnit::on_shadow_departed(Cycle now, const VcId& v) {
  for (Engine& eng : engines_) {
    if (!eng.busy || !(eng.vc == v)) continue;
    // Mis-predicted stall: the port freed up and the scheduler sent the
    // shadow packet; invalidate the flits under process (non-blocking op).
    ++(eng.decompress ? stats_.decompression_aborts : stats_.compression_aborts);
    ++window_aborts_;
    if (auto* t = router_.tracer())
      t->emit(now, router_.id(),
              eng.decompress ? trace::Event::DecompAbort
                             : trace::Event::CompAbort,
              static_cast<std::uint8_t>(eng.vc.port), eng.vc.vc, eng.pkt->id,
              0);
    release(eng, now);
    return;
  }
}

void DiscoUnit::on_hard_fault(Cycle now) {
  for (Engine& eng : engines_) {
    if (eng.busy) {
      ++(eng.decompress ? stats_.decompression_aborts
                        : stats_.compression_aborts);
      ++window_aborts_;
      if (auto* t = router_.tracer())
        t->emit(now, router_.id(),
                eng.decompress ? trace::Event::DecompAbort
                               : trace::Event::CompAbort,
                static_cast<std::uint8_t>(eng.vc.port), eng.vc.vc,
                eng.pkt->id, 0);
      release(eng, now);
    }
    eng.quarantined = true;
  }
}

void DiscoUnit::tick(Cycle now) {
  if (cfg_.adaptive_thresholds && now >= next_adapt_) adapt_thresholds(now);
  for (Engine& eng : engines_) {
    if (!eng.busy || eng.done_at > now) continue;
    VirtualChannel& ch = router_.vc(eng.vc);
    if (ch.head_packet() != eng.pkt || ch.sent_flits != 0) {
      // The shadow left between allocation and completion; treat as abort.
      ++(eng.decompress ? stats_.decompression_aborts : stats_.compression_aborts);
      ++window_aborts_;
      if (auto* t = router_.tracer())
        t->emit(now, router_.id(),
                eng.decompress ? trace::Event::DecompAbort
                               : trace::Event::CompAbort,
                static_cast<std::uint8_t>(eng.vc.port), eng.vc.vc,
                eng.pkt->id, 0);
      release(eng, now);
      continue;
    }
    if (eng.awaiting_residency && !ch.whole_packet_resident()) {
      // Separate-flit mode: earlier groups are done, wait for the tail.
      eng.done_at = now + 1;
      continue;
    }
    complete(eng, now);
  }
}

void DiscoUnit::complete(Engine& eng, Cycle now) {
  noc::PacketPtr pkt = eng.pkt;
  const std::uint32_t old_count = pkt->flit_count();

  if (eng.decompress) {
    if (fault_mode()) {
      // Hardened decode path: a corrupted stream must not crash the engine.
      // On failure the packet continues compressed (the ejecting NI detects
      // and recovers) and the engine books an error towards quarantine.
      const FaultConfig& fc = fi_->config();
      const std::optional<BlockBytes> dec = algo_.try_decompress(
          std::span<const std::uint8_t>(pkt->encoded->bytes));
      bool valid = dec.has_value();
      if (valid && pkt->crc_valid &&
          fault::checksum(std::span<const std::uint8_t>(*dec), fc.crc) !=
              pkt->payload_crc) {
        valid = false;
      }
      if (!valid) {
        ++stats_.engine_decode_errors;
        ++eng.errors;
        if (!eng.quarantined && eng.errors >= fc.engine_quarantine_threshold) {
          eng.quarantined = true;
          ++stats_.engines_quarantined;
        }
        ++window_completions_;
        if (auto* t = router_.tracer())
          t->emit(now, router_.id(), trace::Event::DecompFinish,
                  static_cast<std::uint8_t>(eng.vc.port), eng.vc.vc, pkt->id,
                  0);
        release(eng, now);
        return;
      }
      if (*dec != pkt->data) ++stats_.silent_corruptions;  // oracle only
      pkt->encoded.reset();
    } else {
      pkt->apply_decompression(algo_);
    }
    pkt->decompressed_in_network = true;
    const bool ok = router_.rebuild_head_packet(eng.vc, old_count, now);
    assert(ok && "decompression rebuild must succeed for a resident shadow");
    (void)ok;
    ++stats_.inflight_decompressions;
  } else if (eng.result.size() < kBlockBytes) {
    pkt->apply_compression(std::move(eng.result));
    const bool ok = router_.rebuild_head_packet(eng.vc, old_count, now);
    assert(ok && "compression rebuild must succeed for a resident shadow");
    (void)ok;
    ++stats_.inflight_compressions;
  }
  // else: incompressible attempt, nothing to apply.
  ++window_completions_;
  if (auto* t = router_.tracer())
    t->emit(now, router_.id(),
            eng.decompress ? trace::Event::DecompFinish
                           : trace::Event::CompFinish,
            static_cast<std::uint8_t>(eng.vc.port), eng.vc.vc, pkt->id,
            static_cast<std::int64_t>(pkt->flit_count()) -
                static_cast<std::int64_t>(old_count));
  release(eng, now);
}

void DiscoUnit::adapt_thresholds(Cycle now) {
  // Advance along the fixed window grid rather than re-basing on `now`:
  // idle elision may skip this unit across one or more window boundaries,
  // and re-basing would drift every later boundary by the slept time. The
  // skipped boundaries themselves need no catch-up evaluation — a sleeping
  // unit accumulated no window events, so those adaptations are no-ops.
  const Cycle window = std::max<Cycle>(cfg_.adapt_window_cycles, 1);
  while (next_adapt_ <= now) next_adapt_ += window;
  const std::uint64_t decided = window_aborts_ + window_completions_;
  if (decided >= 8) {
    const double abort_rate =
        static_cast<double>(window_aborts_) / static_cast<double>(decided);
    if (abort_rate > cfg_.adapt_target_abort_rate * 1.25) {
      // Hasty decisions: demand more evidence of a long stall.
      cc_th_ = std::min(cc_th_ * 1.5, 64.0);
      cd_th_ = std::min(cd_th_ * 1.5, 64.0);
    } else if (abort_rate < cfg_.adapt_target_abort_rate * 0.5 &&
               window_rejections_ > decided) {
      // Engines starved while candidates were rejected: loosen.
      cc_th_ = std::max(cc_th_ * 0.75, 0.25);
      cd_th_ = std::max(cd_th_ * 0.75, 0.25);
    }
  } else if (window_rejections_ > 32) {
    // No operations at all but plenty of rejected candidates: loosen.
    cc_th_ = std::max(cc_th_ * 0.75, 0.25);
    cd_th_ = std::max(cd_th_ * 0.75, 0.25);
  }
  window_aborts_ = window_completions_ = window_rejections_ = 0;
}

void DiscoUnit::release(Engine& eng, Cycle now) {
  VirtualChannel& ch = router_.vc(eng.vc);
  ch.engine_busy = false;
  ch.sa_inhibit = false;
  if (auto* t = router_.tracer())
    t->emit(now, router_.id(), trace::Event::ShadowRetire,
            static_cast<std::uint8_t>(eng.vc.port), eng.vc.vc,
            eng.pkt != nullptr ? eng.pkt->id : 0, 0);
  const std::uint32_t errors = eng.errors;
  const bool quarantined = eng.quarantined;
  eng = Engine{};
  eng.errors = errors;
  eng.quarantined = quarantined;
}

template <class Ar>
void DiscoUnit::fields(Ar& ar) {
  ar.each(engines_, "DISCO engine-count");
  ar(cc_th_, cd_th_, window_aborts_, window_completions_, window_rejections_,
     next_adapt_);
}

void DiscoUnit::visit(snap::Writer& w) { fields(w); }
void DiscoUnit::visit(snap::Reader& r) { fields(r); }

}  // namespace disco::core
