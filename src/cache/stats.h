// Cache-hierarchy statistics shared by all L1s, L2 banks and the memory
// controller of one simulated system.
#pragma once

#include <cstdint>

#include "common/stats.h"

namespace disco::cache {

struct CacheStats {
  // The paper's performance metric (Fig. 5/6/8): latency of L1-miss
  // NUCA data accesses — "NoC delay and cache bank access delay" — i.e.
  // requests served on-chip, from request creation at the L1 to data
  // delivery at the L1, including any exposed de/compression latency.
  // Requests that had to go to DRAM are tracked separately.
  Accumulator nuca_latency;
  Histogram nuca_latency_hist;
  Accumulator dram_latency;

  /// All L1 misses combined (NUCA + DRAM-served).
  Accumulator miss_latency;
  Histogram miss_latency_hist;

  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l1_evictions = 0;
  std::uint64_t l1_writebacks = 0;

  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t l2_evictions = 0;
  std::uint64_t l2_fills = 0;

  std::uint64_t bank_compressions = 0;    ///< insert/update-time encodings
  std::uint64_t bank_decompressions = 0;  ///< read-path decodings (CC/CNC)

  std::uint64_t invalidations_sent = 0;
  std::uint64_t recalls_sent = 0;

  std::uint64_t dram_reads = 0;
  std::uint64_t dram_writes = 0;

  // Energy accounting events.
  std::uint64_t l1_array_reads = 0;
  std::uint64_t l1_array_writes = 0;
  std::uint64_t l2_array_reads = 0;
  std::uint64_t l2_array_writes = 0;

  /// Stored footprint (bytes) of L2 lines, sampled at insert/update time;
  /// effective compression ratio = kBlockBytes / stored_line_bytes.mean().
  Accumulator stored_line_bytes;

  double l2_miss_rate() const {
    const auto total = l2_hits + l2_misses;
    return total ? static_cast<double>(l2_misses) / static_cast<double>(total) : 0.0;
  }
  double l1_miss_rate() const {
    const auto total = l1_hits + l1_misses;
    return total ? static_cast<double>(l1_misses) / static_cast<double>(total) : 0.0;
  }

  /// The one field list: the cell JSON and the wire codec
  /// (sim/experiment.h) use the labels as keys; snap::Writer skips them.
  template <class V>
  void visit(V& v) {
    v("nuca_latency", nuca_latency);
    v("nuca_latency_hist", nuca_latency_hist);
    v("dram_latency", dram_latency);
    v("miss_latency", miss_latency);
    v("miss_latency_hist", miss_latency_hist);
    v("l1_hits", l1_hits);
    v("l1_misses", l1_misses);
    v("l1_evictions", l1_evictions);
    v("l1_writebacks", l1_writebacks);
    v("l2_hits", l2_hits);
    v("l2_misses", l2_misses);
    v("l2_evictions", l2_evictions);
    v("l2_fills", l2_fills);
    v("bank_compressions", bank_compressions);
    v("bank_decompressions", bank_decompressions);
    v("invalidations_sent", invalidations_sent);
    v("recalls_sent", recalls_sent);
    v("dram_reads", dram_reads);
    v("dram_writes", dram_writes);
    v("l1_array_reads", l1_array_reads);
    v("l1_array_writes", l1_array_writes);
    v("l2_array_reads", l2_array_reads);
    v("l2_array_writes", l2_array_writes);
    v("stored_line_bytes", stored_line_bytes);
  }
};

}  // namespace disco::cache
