// Cache storage structures.
//
// L1Array: conventional set-associative array with true-LRU replacement,
// holding uncompressed lines with MESI states.
//
// SegmentedArray: the compressed NUCA L2 bank organization — a decoupled
// tag/data design: each set has ways*tag_factor tag entries but only
// ways*64B of data space, carved into 8-byte segments. A compressed line
// occupies ceil(size/8) segments, so good compression lets a set hold up to
// tag_factor times more lines (the cache-utility benefit the paper's
// schemes share). Directory state lives next to the tags.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "compress/algorithm.h"

namespace disco::cache {

// ---------------------------------------------------------------------------
// L1

enum class L1State : std::uint8_t { I, S, E, M };

struct L1Line {
  Addr addr = 0;
  L1State state = L1State::I;
  BlockBytes data{};
  Cycle lru = 0;

  bool valid() const { return state != L1State::I; }
};

class L1Array {
 public:
  L1Array(std::uint32_t size_bytes, std::uint32_t ways);

  L1Line* lookup(Addr addr);
  /// The replacement policy: the first free way of addr's set, else its
  /// first least-recently-used way (still valid: the caller evicts it).
  L1Line& fill_way(Addr addr);
  /// fill_way's way if it is valid (the eviction candidate), or nullptr if
  /// the set has a free way.
  L1Line* victim_for(Addr addr);
  /// Install into a free way of addr's set (victim must be gone already);
  /// throws std::logic_error if the set is full.
  L1Line& install(Addr addr, const BlockBytes& data, L1State state, Cycle now);

  std::uint32_t sets() const { return sets_; }
  std::uint32_t ways() const { return ways_; }
  /// Every way of every set, set-major (valid or not).
  std::span<const L1Line> lines() const { return lines_; }
  /// sets_ is a power of two (asserted at construction), so the modulo is
  /// a mask: a runtime `%` on a 64-bit value compiles to a divide.
  std::size_t set_of(Addr addr) const { return (addr / kBlockBytes) & (sets_ - 1); }

 private:
  std::uint32_t sets_;
  std::uint32_t ways_;
  std::vector<L1Line> lines_;  // sets_ x ways_
};

// ---------------------------------------------------------------------------
// L2 (compressed, decoupled tag/data)

/// Directory record for an inclusive shared L2: which L1s hold the block.
struct DirInfo {
  enum class Kind : std::uint8_t { Uncached, Shared, Excl };
  Kind kind = Kind::Uncached;
  std::uint64_t sharers = 0;  ///< bitmask over nodes (mesh <= 64 nodes)
  NodeId owner = kInvalidNode;

  void add_sharer(NodeId n) { sharers |= (1ULL << n); }
  void remove_sharer(NodeId n) { sharers &= ~(1ULL << n); }
  bool is_sharer(NodeId n) const { return (sharers >> n) & 1ULL; }
  std::uint32_t sharer_count() const { return static_cast<std::uint32_t>(__builtin_popcountll(sharers)); }
};

struct L2Line {
  Addr addr = 0;
  bool valid = false;
  bool dirty = false;
  bool busy = false;  ///< owned by an in-flight transaction (not evictable)
  std::uint32_t segments = 0;
  Cycle lru = 0;
  BlockBytes data{};
  /// Compressed image when the bank stores compressed (absent => raw).
  std::optional<compress::Encoded> stored;
  DirInfo dir;
};

class SegmentedArray {
 public:
  /// tag_factor == 1 with segment capacity ways*8 reproduces a conventional
  /// uncompressed bank (the Baseline scheme). `index_shift` discards the
  /// low block-address bits used for NUCA bank interleaving, so every set
  /// of the bank is reachable (all blocks mapping to one bank share those
  /// low bits).
  SegmentedArray(std::uint64_t size_bytes, std::uint32_t ways,
                 std::uint32_t tag_factor, std::uint32_t index_shift = 0);

  L2Line* lookup(Addr addr);
  const L2Line* lookup(Addr addr) const;

  /// Free 8B data segments in addr's set.
  std::uint32_t free_segments(Addr addr) const;
  /// True if the set has a free tag entry.
  bool has_free_tag(Addr addr) const;
  std::uint32_t segment_capacity() const { return ways_ * (kBlockBytes / kFlitBytes); }

  /// Whether a line of `segments` size can be installed right now (assumes
  /// no line with this addr present).
  bool fits(Addr addr, std::uint32_t segments) const;

  /// LRU non-busy valid line in addr's set, excluding `exclude`; nullptr if
  /// every line is busy (caller must retry later).
  L2Line* lru_victim(Addr addr, Addr exclude);

  /// Install into the first free tag slot of addr's set; throws
  /// std::logic_error if there is none (evict first).
  L2Line& install(Addr addr, std::uint32_t segments, Cycle now);
  void erase(Addr addr);

  /// Change the data-segment footprint of an existing line. Caller must
  /// have verified the delta fits via free_segments().
  void resize(L2Line& line, std::uint32_t new_segments);

  std::uint32_t sets() const { return sets_; }
  /// XOR-folded set index (standard hashed indexing): decorrelates the
  /// large-power-of-two strides real address spaces are full of — e.g.
  /// per-thread heaps at GB-aligned bases, which would otherwise alias
  /// every core onto the same few sets.
  std::size_t set_of(Addr addr) const {
    std::uint64_t idx = (addr / kBlockBytes) >> index_shift_;
    idx ^= (idx >> set_bits_) ^ (idx >> (2 * set_bits_));
    return idx & (sets_ - 1);  // power-of-two sets: no divide
  }

  /// Occupancy diagnostics: valid lines and used segments over the array.
  std::uint64_t valid_lines() const;
  std::uint64_t used_segments() const;
  /// Line planes allocated so far (at most ways * tag_factor).
  std::size_t planes_allocated() const;

  /// Calls f(line) for every valid line, set by set, each set in slot order.
  template <class F>
  void for_each_line(F&& f) const {
    for (std::size_t set = 0; set < sets_; ++set) {
      const std::uint16_t* fps = fps_of(set);
      for (std::size_t i = 0; i < slots_per_set_; ++i)
        if (fps[i] != 0) f(static_cast<const L2Line&>(planes_[i][set]));
    }
  }

  static std::uint32_t segments_for(std::size_t bytes) {
    return static_cast<std::uint32_t>((bytes + kFlitBytes - 1) / kFlitBytes);
  }

  /// 16-bit tag fingerprint of a block address, never 0 (0 marks an empty
  /// slot). Distinct addresses may share one; a hit is confirmed against
  /// the line's addr.
  static std::uint16_t fingerprint(Addr addr) {
    const auto h = static_cast<std::uint16_t>((addr * 0x9E3779B97F4A7C15ULL) >> 48);
    return h != 0 ? h : 1;
  }

 private:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  /// Slot holding addr in `set`, or kNoSlot.
  std::size_t slot_of(std::size_t set, Addr addr) const;
  std::uint16_t* fps_of(std::size_t set) { return fps_.data() + set * slots_per_set_; }
  const std::uint16_t* fps_of(std::size_t set) const { return fps_.data() + set * slots_per_set_; }
  /// Line `slot` of `set`, allocating its plane on first use.
  L2Line& line_at(std::size_t slot, std::size_t set);

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint32_t tag_factor_;
  std::uint32_t index_shift_;
  std::uint32_t set_bits_ = 1;
  std::size_t slots_per_set_ = 0;  ///< ways_ * tag_factor_
  /// Slot-major line storage: planes_[slot][set]. A plane is allocated by
  /// the first install into its slot and never moves or shrinks, so line
  /// references stay valid for the line's life. install takes the first
  /// free slot, so a bank holds only as many planes as its fullest set
  /// has needed.
  std::vector<std::unique_ptr<L2Line[]>> planes_;
  /// fps_[set * slots_per_set_ + slot] is the fingerprint of the line in
  /// that slot, 0 when the slot is empty. A probe scans a set's
  /// fingerprints (32 slots = 64 bytes) and reads a line only on a
  /// fingerprint match. Kept in sync by install/erase, the only places a
  /// line's identity changes.
  std::vector<std::uint16_t> fps_;
  std::vector<std::uint32_t> used_segments_;  // per set
};

}  // namespace disco::cache
