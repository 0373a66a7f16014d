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
#include <optional>
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

  /// Only a valid line carries content; an invalid slot restores to the
  /// default line.
  template <class Ar>
  void visit(Ar& ar) {
    bool present = valid();
    ar(present);
    if (!present) {
      if constexpr (Ar::kLoading) *this = L1Line{};
      return;
    }
    ar(addr, state, data, lru);
  }
};

class L1Array {
 public:
  L1Array(std::uint32_t size_bytes, std::uint32_t ways);

  L1Line* lookup(Addr addr);
  /// Least-recently-used valid line of addr's set (eviction candidate), or
  /// nullptr if the set has a free way.
  L1Line* victim_for(Addr addr);
  /// Install into a free way of addr's set (victim must be gone already).
  L1Line& install(Addr addr, const BlockBytes& data, L1State state, Cycle now);

  std::uint32_t sets() const { return sets_; }
  std::uint32_t ways() const { return ways_; }
  std::size_t set_of(Addr addr) const { return (addr / kBlockBytes) % sets_; }

  /// Snapshot: geometry-checked, then every line.
  template <class Ar>
  void visit(Ar& ar) {
    ar.expect(sets_, "L1 array geometry");
    ar.expect(ways_, "L1 array geometry");
    ar.each(lines_);
  }

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

  template <class Ar>
  void visit(Ar& ar) { ar(kind, sharers, owner); }
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

  /// Only a valid line carries content; an invalid slot restores to the
  /// default line.
  template <class Ar>
  void visit(Ar& ar) {
    ar(valid);
    if (!valid) {
      if constexpr (Ar::kLoading) *this = L2Line{};
      return;
    }
    ar(addr, dirty, busy, segments, lru, data, stored, dir);
  }
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
    return idx % sets_;
  }

  /// Occupancy diagnostics: valid lines and used segments over the array.
  std::uint64_t valid_lines() const;
  std::uint64_t used_segments() const;

  static std::uint32_t segments_for(std::size_t bytes) {
    return static_cast<std::uint32_t>((bytes + kFlitBytes - 1) / kFlitBytes);
  }

  /// Snapshot: geometry-checked; tag-slot positions are preserved (install
  /// picks the first free way, so slot order is architectural).
  template <class Ar>
  void visit(Ar& ar);

 private:
  std::vector<L2Line>& set_lines(std::size_t set) { return sets_storage_[set]; }

  /// Sentinel for an empty tag slot. Real tags are block-aligned addresses,
  /// so all-ones can never collide with a valid line.
  static constexpr Addr kNoTag = ~Addr{0};

  std::uint32_t sets_;
  std::uint32_t ways_;
  std::uint32_t tag_factor_;
  std::uint32_t index_shift_;
  std::uint32_t set_bits_ = 1;
  std::vector<std::vector<L2Line>> sets_storage_;
  /// Compact tag store mirroring sets_storage_: tags_[set * slots + i] is
  /// line i's addr when valid, kNoTag otherwise. lookup() probes this flat
  /// array instead of striding over the fat L2Line objects (data blocks,
  /// directory state, optional compressed images), which dominated the
  /// cache-side profile. Kept in sync by install/erase/restore — the only
  /// places a line's identity ever changes.
  std::vector<Addr> tags_;
  std::size_t slots_per_set_ = 0;  ///< ways_ * tag_factor_
  std::vector<std::uint32_t> used_segments_;  // per set
};

}  // namespace disco::cache
