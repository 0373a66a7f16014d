#include "noc/snapshot.h"

#include <cassert>

#include "noc/packet_pool.h"

namespace disco::noc {

std::uint32_t PacketTable::intern(const PacketPtr& p) {
  if (p == nullptr) return 0;
  const auto it = index_.find(p.get());
  if (it != index_.end()) return it->second;
  pkts_.push_back(p);
  const auto idx = static_cast<std::uint32_t>(pkts_.size());  // 1-based
  index_.emplace(p.get(), idx);
  return idx;
}

void PacketTable::save_table(snap::Writer& w) {
  // Writing a packet may intern another one through nack_ref, growing the
  // worklist; the count is therefore only known after the bodies are done.
  snap::Writer bodies;
  bodies.packets = this;
  for (std::size_t i = 0; i < pkts_.size(); ++i) bodies(*pkts_[i]);
  w.u32(static_cast<std::uint32_t>(pkts_.size()));
  w.append(bodies);
}

void PacketTable::load_table(snap::Reader& r) {
  const std::uint32_t n = r.u32();
  pkts_.clear();
  pkts_.reserve(n);
  // Allocate first so forward/recursive references resolve while filling.
  for (std::uint32_t i = 0; i < n; ++i)
    pkts_.push_back(make_packet());
  r.packets = this;
  for (std::uint32_t i = 0; i < n; ++i) r(*pkts_[i]);
}

PacketPtr PacketTable::resolve(std::uint32_t ref) const {
  if (ref == 0) return nullptr;
  if (ref > pkts_.size())
    throw snap::SnapshotError("snapshot: packet reference out of range");
  return pkts_[ref - 1];
}

void visit(snap::Writer& w, PacketPtr& p) {
  assert(w.packets != nullptr);
  w.u32(w.packets->intern(p));
}

void visit(snap::Reader& r, PacketPtr& p) {
  assert(r.packets != nullptr);
  p = r.packets->resolve(r.u32());
}

void visit(snap::Writer& w, PacketHandle& h) {
  PacketPtr p = packet_pool().resolve(h);
  visit(w, p);
}

void visit(snap::Reader& r, PacketHandle& h) {
  PacketPtr p;
  visit(r, p);
  h = p != nullptr ? packet_pool().handle_of(p.get()) : PacketHandle{};
}

}  // namespace disco::noc
