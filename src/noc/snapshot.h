// NoC-layer snapshot support: packet-graph interning for the snapshot
// archives (common/snapshot.h).
//
// Packets are a shared object graph: one PacketPtr may be referenced from a
// VC buffer, a link, a DISCO engine and an NI recovery table at once, and a
// NACK packet holds a recursive nack_ref to the packet it covers. The
// PacketTable interns each distinct Packet* once; references serialize as a
// u32 index (0 = null). On restore the table allocates every packet first
// and then fills fields, so recursive references resolve in one pass and
// shared ownership is reconstructed exactly.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/snapshot.h"
#include "noc/packet.h"

namespace disco::noc {

class PacketTable {
 public:
  // --- save side ---
  /// Intern `p` (registering it for the table); returns its reference.
  std::uint32_t intern(const PacketPtr& p);
  /// Serialize the table itself. Call after every component body has been
  /// written (interning is closed under nack_ref via a worklist).
  void save_table(snap::Writer& w);

  // --- restore side ---
  /// Deserialize the table: allocate-then-fill, so recursive references
  /// resolve. Call before restoring any component body; `r` resolves its
  /// packet references against this table from then on.
  void load_table(snap::Reader& r);
  /// Resolve a reference against the loaded table.
  PacketPtr resolve(std::uint32_t ref) const;

 private:
  std::unordered_map<const Packet*, std::uint32_t> index_;
  std::vector<PacketPtr> pkts_;
};

// Packet references as archive fields (found by argument-dependent lookup).
void visit(snap::Writer& w, PacketPtr& p);
void visit(snap::Reader& r, PacketPtr& p);
/// A non-owning handle travels as a reference to the packet it resolves to
/// (a stale handle as null).
void visit(snap::Writer& w, PacketHandle& h);
void visit(snap::Reader& r, PacketHandle& h);

}  // namespace disco::noc
