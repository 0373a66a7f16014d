#include "cache/arrays.h"

#include <algorithm>
#include <span>

#include "common/snapshot.h"

namespace disco::cache {

// ---------------------------------------------------------------------------
// L1Array

L1Array::L1Array(std::uint32_t size_bytes, std::uint32_t ways)
    : sets_(size_bytes / (ways * kBlockBytes)), ways_(ways) {
  assert(sets_ > 0 && (sets_ & (sets_ - 1)) == 0 && "set count must be a power of two");
  lines_.resize(static_cast<std::size_t>(sets_) * ways_);
}

L1Line* L1Array::lookup(Addr addr) {
  const std::size_t base = set_of(addr) * ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    L1Line& line = lines_[base + w];
    if (line.valid() && line.addr == addr) return &line;
  }
  return nullptr;
}

L1Line* L1Array::victim_for(Addr addr) {
  const std::size_t base = set_of(addr) * ways_;
  L1Line* lru = nullptr;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    L1Line& line = lines_[base + w];
    if (!line.valid()) return nullptr;  // free way available
    if (lru == nullptr || line.lru < lru->lru) lru = &line;
  }
  return lru;
}

L1Line& L1Array::install(Addr addr, const BlockBytes& data, L1State state, Cycle now) {
  const std::size_t base = set_of(addr) * ways_;
  for (std::uint32_t w = 0; w < ways_; ++w) {
    L1Line& line = lines_[base + w];
    if (!line.valid()) {
      line.addr = addr;
      line.state = state;
      line.data = data;
      line.lru = now;
      return line;
    }
  }
  assert(false && "install without a free way (evict first)");
  return lines_[base];
}

// ---------------------------------------------------------------------------
// SegmentedArray

SegmentedArray::SegmentedArray(std::uint64_t size_bytes, std::uint32_t ways,
                               std::uint32_t tag_factor, std::uint32_t index_shift)
    : sets_(static_cast<std::uint32_t>(size_bytes / (static_cast<std::uint64_t>(ways) * kBlockBytes))),
      ways_(ways),
      tag_factor_(std::max(1u, tag_factor)),
      index_shift_(index_shift) {
  assert(sets_ > 0 && (sets_ & (sets_ - 1)) == 0 && "set count must be a power of two");
  set_bits_ = 1;
  while ((1u << set_bits_) < sets_) ++set_bits_;
  sets_storage_.resize(sets_);
  for (auto& s : sets_storage_) s.resize(static_cast<std::size_t>(ways_) * tag_factor_);
  used_segments_.assign(sets_, 0);
  slots_per_set_ = static_cast<std::size_t>(ways_) * tag_factor_;
  tags_.assign(static_cast<std::size_t>(sets_) * slots_per_set_, kNoTag);
}

L2Line* SegmentedArray::lookup(Addr addr) {
  const std::size_t set = set_of(addr);
  const Addr* tags = tags_.data() + set * slots_per_set_;
  for (std::size_t i = 0; i < slots_per_set_; ++i) {
    if (tags[i] == addr) {
      L2Line& line = sets_storage_[set][i];
      assert(line.valid && line.addr == addr && "tag store out of sync");
      return &line;
    }
  }
  return nullptr;
}

const L2Line* SegmentedArray::lookup(Addr addr) const {
  const std::size_t set = set_of(addr);
  const Addr* tags = tags_.data() + set * slots_per_set_;
  for (std::size_t i = 0; i < slots_per_set_; ++i) {
    if (tags[i] == addr) {
      const L2Line& line = sets_storage_[set][i];
      assert(line.valid && line.addr == addr && "tag store out of sync");
      return &line;
    }
  }
  return nullptr;
}

std::uint32_t SegmentedArray::free_segments(Addr addr) const {
  return segment_capacity() - used_segments_[set_of(addr)];
}

bool SegmentedArray::has_free_tag(Addr addr) const {
  const Addr* tags = tags_.data() + set_of(addr) * slots_per_set_;
  for (std::size_t i = 0; i < slots_per_set_; ++i) {
    if (tags[i] == kNoTag) return true;
  }
  return false;
}

bool SegmentedArray::fits(Addr addr, std::uint32_t segments) const {
  return has_free_tag(addr) && free_segments(addr) >= segments;
}

L2Line* SegmentedArray::lru_victim(Addr addr, Addr exclude) {
  // Inclusion-victim protection: evicting a line with live L1 copies
  // invalidates hot L1 data (L1 hits do not refresh L2 recency), so prefer
  // LRU among lines with no L1 presence; fall back to any non-busy line.
  L2Line* lru_uncached = nullptr;
  L2Line* lru_any = nullptr;
  for (L2Line& line : sets_storage_[set_of(addr)]) {
    if (!line.valid || line.busy) continue;
    if (line.addr == exclude) continue;
    if (lru_any == nullptr || line.lru < lru_any->lru) lru_any = &line;
    if (line.dir.kind == DirInfo::Kind::Uncached &&
        (lru_uncached == nullptr || line.lru < lru_uncached->lru)) {
      lru_uncached = &line;
    }
  }
  return lru_uncached != nullptr ? lru_uncached : lru_any;
}

L2Line& SegmentedArray::install(Addr addr, std::uint32_t segments, Cycle now) {
  assert(lookup(addr) == nullptr && "double install");
  const std::size_t set = set_of(addr);
  assert(used_segments_[set] + segments <= segment_capacity());
  for (std::size_t i = 0; i < slots_per_set_; ++i) {
    L2Line& line = sets_storage_[set][i];
    if (line.valid) continue;
    line = L2Line{};
    line.addr = addr;
    line.valid = true;
    line.segments = segments;
    line.lru = now;
    used_segments_[set] += segments;
    tags_[set * slots_per_set_ + i] = addr;
    return line;
  }
  assert(false && "install without a free tag (evict first)");
  return sets_storage_[set].front();
}

void SegmentedArray::erase(Addr addr) {
  const std::size_t set = set_of(addr);
  for (std::size_t i = 0; i < slots_per_set_; ++i) {
    L2Line& line = sets_storage_[set][i];
    if (line.valid && line.addr == addr) {
      assert(used_segments_[set] >= line.segments);
      used_segments_[set] -= line.segments;
      line = L2Line{};
      tags_[set * slots_per_set_ + i] = kNoTag;
      return;
    }
  }
  assert(false && "erase of absent line");
}

void SegmentedArray::resize(L2Line& line, std::uint32_t new_segments) {
  const std::size_t set = set_of(line.addr);
  assert(used_segments_[set] - line.segments + new_segments <= segment_capacity());
  used_segments_[set] = used_segments_[set] - line.segments + new_segments;
  line.segments = new_segments;
}

std::uint64_t SegmentedArray::valid_lines() const {
  std::uint64_t n = 0;
  for (const auto& set : sets_storage_)
    for (const auto& line : set) n += line.valid ? 1 : 0;
  return n;
}

std::uint64_t SegmentedArray::used_segments() const {
  std::uint64_t n = 0;
  for (const std::uint32_t u : used_segments_) n += u;
  return n;
}

template <class Ar>
void SegmentedArray::visit(Ar& ar) {
  ar.expect(sets_, "L2 array geometry");
  ar.expect(ways_, "L2 array geometry");
  ar.expect(tag_factor_, "L2 array geometry");
  for (auto& set : sets_storage_) ar.each(set);
  ar.each(used_segments_);
  if constexpr (Ar::kLoading) {
    // Rebuild the compact tag store from the restored lines.
    for (std::size_t set = 0; set < sets_; ++set) {
      for (std::size_t i = 0; i < slots_per_set_; ++i) {
        const L2Line& line = sets_storage_[set][i];
        tags_[set * slots_per_set_ + i] = line.valid ? line.addr : kNoTag;
      }
    }
  }
}
template void SegmentedArray::visit(snap::Writer&);
template void SegmentedArray::visit(snap::Reader&);

}  // namespace disco::cache
