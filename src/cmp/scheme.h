// Per-scheme wiring: where de/compression hardware sits and which
// latencies it exposes. This is the single place the five evaluated
// deployments (Baseline / CC / CNC / DISCO / Ideal) are defined; the table
// in DESIGN.md section 3 is implemented here.
#pragma once

#include "cache/l2_bank.h"
#include "common/config.h"
#include "compress/algorithm.h"
#include "noc/ni.h"

namespace disco::cmp {

struct SchemeSetup {
  noc::NiPolicy ni;
  cache::L2BankPolicy bank;
  bool use_disco_units = false;
  /// Whether the scheme schedules compressible-but-uncompressed packets at
  /// low priority (section 3.3B). The rule exists to create compression
  /// opportunities, so it is part of DISCO's policy, not the baselines'.
  /// The router reads NocConfig::deprioritize_compressible: a system applies
  /// this with `&=`, so a config that turns the rule off keeps it off.
  bool deprioritize_compressible = false;
};

inline SchemeSetup make_scheme_setup(Scheme scheme,
                                     const compress::Algorithm& algo) {
  const compress::LatencyModel lat = algo.latency();
  SchemeSetup s;
  switch (scheme) {
    case Scheme::Baseline:
      break;
    case Scheme::CC:
      // Compressor at every bank: reads pay decompression before the NI,
      // inserts compress off the critical path; packets travel raw.
      s.bank = {true, lat.decomp_cycles, false, lat.comp_cycles};
      break;
    case Scheme::CNC:
      // CC plus a de/compressor in every NI (two-level compression).
      s.bank = {true, lat.decomp_cycles, false, lat.comp_cycles};
      s.ni.algo = &algo;
      s.ni.compress_on_inject = true;
      s.ni.decompress_on_eject_all = true;
      s.ni.comp_cycles = lat.comp_cycles;
      s.ni.decomp_cycles = lat.decomp_cycles;
      break;
    case Scheme::DISCO:
      // Banks inject stored compressed form; routers de/compress during
      // queuing; consumers pay decompression only when it was not hidden.
      s.bank = {true, 0, true, lat.comp_cycles};
      s.ni.algo = &algo;
      s.ni.decompress_for_raw_consumers = true;
      s.ni.compress_when_source_queued = true;
      s.ni.comp_cycles = lat.comp_cycles;
      s.ni.decomp_cycles = lat.decomp_cycles;
      s.use_disco_units = true;
      s.deprioritize_compressible = true;
      break;
    case Scheme::Ideal:
      // Compression everywhere at zero latency: the normalization basis.
      s.bank = {true, 0, true, 0};
      s.ni.algo = &algo;
      s.ni.compress_on_inject = true;
      s.ni.decompress_for_raw_consumers = true;
      s.ni.comp_cycles = 0;
      s.ni.decomp_cycles = 0;
      break;
  }
  return s;
}

}  // namespace disco::cmp
