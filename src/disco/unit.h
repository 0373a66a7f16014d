// The DISCO in-router machinery (paper section 3.2): a per-router
// arbitrator + compressor engine set attached to the generic VC router
// through the RouterExtension hooks.
//
// Step 1 — candidate selection: the router reports every VC that requested
//   but lost VC/switch allocation this cycle (the idling packets).
// Step 2 — confidence counting: for each candidate the arbitrator combines
//   remote pressure (credit_in of the packet's RC output), local pressure
//   (competing VCs, the credit_out proxy) and, for decompression, the
//   remaining hop count (RC_Hop), per Eq. 1 / Eq. 2:
//     C_comp   = credit_in + gamma * credit_out                > CCth
//     C_decomp = credit_in + alpha * credit_out - beta * hops  > CDth
// Step 3 — engine operation: the winning packet is copied into a free
//   engine; its flits stay in the VC as a schedulable shadow packet. If the
//   shadow departs first (non-blocking mode), the operation aborts; if the
//   engine finishes first, the shadow flits are replaced in place and the
//   freed buffer space is returned upstream as bonus credits.
#pragma once

#include <vector>

#include "common/config.h"
#include "compress/algorithm.h"
#include "fault/fault.h"
#include "noc/router.h"

namespace disco::core {

class DiscoUnit final : public noc::RouterExtension {
 public:
  /// `latency` is usually algo.latency(); experiments may override it.
  /// With a fault injector the engines can stall, produce corrupted output,
  /// and self-quarantine after repeated decode errors.
  DiscoUnit(noc::Router& router, const DiscoConfig& cfg,
            const compress::Algorithm& algo, compress::LatencyModel latency,
            noc::NocStats& stats, fault::FaultInjector* fi = nullptr);

  void after_allocation(Cycle now, const std::vector<noc::VcId>& losers) override;
  void on_shadow_departed(Cycle now, const noc::VcId& vc) override;
  void tick(Cycle now) override;
  /// Permanent engine-array failure: abort everything in flight and
  /// quarantine every engine forever (the NI flips to uncompressed bypass).
  void on_hard_fault(Cycle now) override;
  /// Idle elision: sleeping is safe once no engine is mid-operation. The
  /// adaptive-threshold window survives skipped cycles because
  /// adapt_thresholds() re-aligns to the fixed window grid on wake.
  bool idle() const override { return busy_engines() == 0; }

  /// Snapshot of engine and adaptive-threshold state.
  void visit(snap::Writer& w) override;
  void visit(snap::Reader& r) override;

  /// Confidence values (exposed for unit tests and threshold sweeps).
  double compression_confidence(const noc::VcId& v) const;
  double decompression_confidence(const noc::VcId& v) const;

  std::size_t busy_engines() const;
  std::size_t quarantined_engines() const;

  /// Current (possibly adapted) thresholds.
  double cc_threshold() const { return cc_th_; }
  double cd_threshold() const { return cd_th_; }

 private:
  struct Engine {
    bool busy = false;
    bool decompress = false;
    bool awaiting_residency = false;  ///< separate-flit mode: tail not yet here
    noc::VcId vc{};
    noc::PacketPtr pkt;
    Cycle done_at = 0;
    std::uint32_t old_flit_count = 0;
    compress::Encoded result;  ///< compression output, computed at start
    // Lifetime fault state: survives release(), see DiscoUnit::release.
    std::uint32_t errors = 0;  ///< decode/CRC failures observed by this engine
    bool quarantined = false;  ///< permanently taken out of service

    template <class Ar>
    void visit(Ar& ar) {
      ar(busy, decompress, awaiting_residency, vc, pkt, done_at,
         old_flit_count, result, errors, quarantined);
    }
  };

  struct Candidate {
    noc::VcId vc{};
    bool decompress = false;
    double confidence = 0.0;
  };

  bool engine_available() const;
  bool fault_mode() const { return fi_ != nullptr && fi_->enabled(); }
  void start(Engine& eng, const Candidate& cand, Cycle now);
  void complete(Engine& eng, Cycle now);
  void release(Engine& eng, Cycle now);
  void adapt_thresholds(Cycle now);
  template <class Ar>
  void fields(Ar& ar);

  noc::Router& router_;
  DiscoConfig cfg_;
  const compress::Algorithm& algo_;
  compress::LatencyModel latency_;
  noc::NocStats& stats_;
  fault::FaultInjector* fi_ = nullptr;
  std::vector<Engine> engines_;

  // Adaptive-threshold state (extension; see DiscoConfig).
  double cc_th_ = 0;
  double cd_th_ = 0;
  std::uint64_t window_aborts_ = 0;
  std::uint64_t window_completions_ = 0;
  std::uint64_t window_rejections_ = 0;  ///< candidates below threshold
  Cycle next_adapt_ = 0;
};

}  // namespace disco::core
