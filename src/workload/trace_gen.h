// Per-core memory-reference generator: hot/cold working sets, sequential
// runs, private + shared regions, geometric compute gaps. A generator is an
// infinite deterministic stream — cores pull the next reference when the
// previous gap has elapsed.
#pragma once

#include "common/rng.h"
#include "common/types.h"
#include "workload/profile.h"

namespace disco::workload {

struct TraceOp {
  Addr addr = 0;
  bool is_store = false;
  std::uint32_t gap = 0;  ///< compute cycles before this reference issues
};

/// OS-style page-frame scattering: generators produce virtual addresses
/// (per-core heaps at large aligned bases, which would alias every core
/// onto the same cache sets); the page allocator maps each 4KB virtual page
/// to a pseudo-random frame in the 4GB physical space, exactly like a real
/// kernel's free-list does. Deterministic, identical for all cores (shared
/// pages land on shared frames).
inline Addr virtual_to_physical(Addr vaddr) {
  constexpr Addr kPageMask = 4096 - 1;
  constexpr std::uint64_t kFrames = 1ULL << 20;  // 4GB of 4KB frames
  const Addr vpage = vaddr >> 12;
  const Addr frame = splitmix64(vpage ^ 0xD15C0FA6E5ULL) % kFrames;
  return (frame << 12) | (vaddr & kPageMask);
}

class TraceGenerator {
 public:
  TraceGenerator(const BenchmarkProfile& profile, NodeId core,
                 std::uint64_t seed);

  TraceOp next();

  /// Base of the shared region (tests and address-map sanity checks).
  static Addr shared_base() { return Addr{1} << 42; }

 private:
  Addr pick_block();

  const BenchmarkProfile& profile_;
  Rng rng_;
  Addr private_base_;
  Addr seq_addr_ = 0;
  std::uint32_t seq_left_ = 0;
  Addr seq_region_base_ = 0;
  std::uint64_t seq_region_span_ = 1;
};

}  // namespace disco::workload
