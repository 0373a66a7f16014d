#include "cache/arrays.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

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
  throw std::logic_error("L1Array::install without a free way (evict first)");
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
  slots_per_set_ = static_cast<std::size_t>(ways_) * tag_factor_;
  planes_.resize(slots_per_set_);
  fps_.assign(static_cast<std::size_t>(sets_) * slots_per_set_, 0);
  used_segments_.assign(sets_, 0);
}

std::size_t SegmentedArray::slot_of(std::size_t set, Addr addr) const {
  const std::uint16_t fp = fingerprint(addr);
  const std::uint16_t* fps = fps_of(set);
  for (std::size_t i = 0; i < slots_per_set_; ++i) {
    if (fps[i] != fp) continue;
    const L2Line& line = planes_[i][set];
    assert(line.valid && fingerprint(line.addr) == fp && "tag store out of sync");
    if (line.addr == addr) return i;
  }
  return kNoSlot;
}

L2Line& SegmentedArray::line_at(std::size_t slot, std::size_t set) {
  if (!planes_[slot]) planes_[slot] = std::make_unique<L2Line[]>(sets_);
  return planes_[slot][set];
}

L2Line* SegmentedArray::lookup(Addr addr) {
  const std::size_t set = set_of(addr);
  const std::size_t i = slot_of(set, addr);
  return i == kNoSlot ? nullptr : &planes_[i][set];
}

const L2Line* SegmentedArray::lookup(Addr addr) const {
  return const_cast<SegmentedArray*>(this)->lookup(addr);
}

std::uint32_t SegmentedArray::free_segments(Addr addr) const {
  return segment_capacity() - used_segments_[set_of(addr)];
}

bool SegmentedArray::has_free_tag(Addr addr) const {
  const std::uint16_t* fps = fps_of(set_of(addr));
  return std::find(fps, fps + slots_per_set_, 0) != fps + slots_per_set_;
}

bool SegmentedArray::fits(Addr addr, std::uint32_t segments) const {
  return has_free_tag(addr) && free_segments(addr) >= segments;
}

L2Line* SegmentedArray::lru_victim(Addr addr, Addr exclude) {
  // Inclusion-victim protection: evicting a line with live L1 copies
  // invalidates hot L1 data (L1 hits do not refresh L2 recency), so prefer
  // LRU among lines with no L1 presence; fall back to any non-busy line.
  // Slots are walked in order, so ties go to the lowest slot.
  const std::size_t set = set_of(addr);
  const std::uint16_t* fps = fps_of(set);
  L2Line* lru_uncached = nullptr;
  L2Line* lru_any = nullptr;
  for (std::size_t i = 0; i < slots_per_set_; ++i) {
    if (fps[i] == 0) continue;
    L2Line& line = planes_[i][set];
    assert(line.valid && fingerprint(line.addr) == fps[i] && "tag store out of sync");
    if (line.busy || line.addr == exclude) continue;
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
  std::uint16_t* fps = fps_of(set);
  const std::size_t i = static_cast<std::size_t>(std::find(fps, fps + slots_per_set_, 0) - fps);
  if (i == slots_per_set_)
    throw std::logic_error("SegmentedArray::install without a free tag (evict first)");
  L2Line& line = line_at(i, set);
  line = L2Line{};
  line.addr = addr;
  line.valid = true;
  line.segments = segments;
  line.lru = now;
  used_segments_[set] += segments;
  fps[i] = fingerprint(addr);
  return line;
}

void SegmentedArray::erase(Addr addr) {
  const std::size_t set = set_of(addr);
  const std::size_t i = slot_of(set, addr);
  assert(i != kNoSlot && "erase of absent line");
  if (i == kNoSlot) return;
  L2Line& line = planes_[i][set];
  assert(used_segments_[set] >= line.segments);
  used_segments_[set] -= line.segments;
  line = L2Line{};
  fps_of(set)[i] = 0;
}

void SegmentedArray::resize(L2Line& line, std::uint32_t new_segments) {
  const std::size_t set = set_of(line.addr);
  assert(used_segments_[set] - line.segments + new_segments <= segment_capacity());
  used_segments_[set] = used_segments_[set] - line.segments + new_segments;
  line.segments = new_segments;
}

std::uint64_t SegmentedArray::valid_lines() const {
  return static_cast<std::uint64_t>(
      fps_.size() - static_cast<std::size_t>(std::count(fps_.begin(), fps_.end(), 0)));
}

std::uint64_t SegmentedArray::used_segments() const {
  std::uint64_t n = 0;
  for (const std::uint32_t u : used_segments_) n += u;
  return n;
}

std::size_t SegmentedArray::planes_allocated() const {
  return static_cast<std::size_t>(
      std::count_if(planes_.begin(), planes_.end(), [](const auto& p) { return p != nullptr; }));
}

}  // namespace disco::cache
