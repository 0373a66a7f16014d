#include "trace/trace.h"

#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/snapshot.h"
#include "trace/invariants.h"

namespace disco::trace {

Category category_of(Event e) {
  switch (e) {
    case Event::BufferWrite:
    case Event::RouteCompute:
    case Event::VcAllocGrant:
    case Event::SwitchTraversal:
      return Category::Noc;
    case Event::CreditSend:
    case Event::CreditRecv:
    case Event::Rebuild:
      return Category::Credit;
    case Event::NiInject:
    case Event::NiFlitInject:
    case Event::NiCreditRecv:
    case Event::NiFlitEject:
    case Event::NiReassembled:
    case Event::NiDeliver:
      return Category::Ni;
    case Event::ConfidenceComp:
    case Event::ConfidenceDecomp:
    case Event::CompStart:
    case Event::DecompStart:
    case Event::CompAbort:
    case Event::DecompAbort:
    case Event::CompFinish:
    case Event::DecompFinish:
    case Event::ShadowRetire:
      return Category::Disco;
    case Event::L2Fill:
    case Event::L2Evict:
      return Category::Cache;
    case Event::TopoKill:
    case Event::TopoVcReset:
    case Event::TopoFlitsKilled:
    case Event::TopoReroute:
    case Event::TopoUnreachable:
    case Event::TopoBypass:
      return Category::Topo;
  }
  return Category::Noc;
}

const char* to_string(Event e) {
  switch (e) {
    case Event::BufferWrite: return "BW";
    case Event::RouteCompute: return "RC";
    case Event::VcAllocGrant: return "VA";
    case Event::SwitchTraversal: return "ST";
    case Event::CreditSend: return "CRS";
    case Event::CreditRecv: return "CRR";
    case Event::Rebuild: return "REB";
    case Event::NiInject: return "NIQ";
    case Event::NiFlitInject: return "NIF";
    case Event::NiCreditRecv: return "NIC";
    case Event::NiFlitEject: return "NIE";
    case Event::NiReassembled: return "NIR";
    case Event::NiDeliver: return "NID";
    case Event::ConfidenceComp: return "CCF";
    case Event::ConfidenceDecomp: return "DCF";
    case Event::CompStart: return "CST";
    case Event::DecompStart: return "DST";
    case Event::CompAbort: return "CAB";
    case Event::DecompAbort: return "DAB";
    case Event::CompFinish: return "CFN";
    case Event::DecompFinish: return "DFN";
    case Event::ShadowRetire: return "SRT";
    case Event::L2Fill: return "L2F";
    case Event::L2Evict: return "L2E";
    case Event::TopoKill: return "TKL";
    case Event::TopoVcReset: return "TVR";
    case Event::TopoFlitsKilled: return "TFK";
    case Event::TopoReroute: return "TRR";
    case Event::TopoUnreachable: return "TUN";
    case Event::TopoBypass: return "TBY";
  }
  return "?";
}

const char* to_string(Category c) {
  switch (c) {
    case Category::Noc: return "noc";
    case Category::Credit: return "credit";
    case Category::Ni: return "ni";
    case Category::Disco: return "disco";
    case Category::Cache: return "cache";
    case Category::Topo: return "topo";
  }
  return "?";
}

std::array<bool, kNumCategories> category_mask(const std::string& filter) {
  std::array<bool, kNumCategories> mask{};
  if (filter.empty()) {
    mask.fill(true);
    return mask;
  }
  std::size_t pos = 0;
  while (pos <= filter.size()) {
    const std::size_t comma = filter.find(',', pos);
    const std::string name =
        filter.substr(pos, comma == std::string::npos ? std::string::npos
                                                      : comma - pos);
    bool known = false;
    for (std::size_t c = 0; c < kNumCategories; ++c) {
      if (name == to_string(static_cast<Category>(c))) {
        mask[c] = true;
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::invalid_argument(
          "unknown trace category '" + name +
          "' (valid: noc, credit, ni, disco, cache, topo)");
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return mask;
}

Tracer::Tracer(const TraceConfig& cfg) {
  if (cfg.enabled) {
    const auto mask = category_mask(cfg.filter);
    for (std::size_t e = 0; e < kNumEvents; ++e) {
      const auto cat =
          static_cast<std::size_t>(category_of(static_cast<Event>(e)));
      capture_[e] = mask[cat];
    }
    capacity_ = static_cast<std::size_t>(
        cfg.ring_capacity > 0 ? cfg.ring_capacity : 1);
    ring_.reserve(std::min<std::size_t>(capacity_, 4096));
  }
}

void Tracer::emit(Cycle cycle, NodeId node, Event e, std::uint8_t port,
                  std::uint8_t vc, std::uint64_t pkt, std::int64_t arg) {
  const TraceEvent ev{cycle, node, e, port, vc, pkt, arg};
  if (checker_ != nullptr) checker_->on_event(ev);
  if (!capture_[static_cast<std::size_t>(e)]) return;
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
    return;
  }
  // Full: overwrite the oldest slot (head_ walks the ring).
  ring_[head_] = ev;
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_ || head_ == 0) {
    out = ring_;
  } else {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(head_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(head_));
  }
  return out;
}

std::string canonical_line(const TraceEvent& e) {
  std::ostringstream os;
  os << e.cycle << ' ' << e.node << ' ' << to_string(e.event) << ' '
     << static_cast<unsigned>(e.port) << ' ' << static_cast<unsigned>(e.vc)
     << ' ' << e.pkt << ' ' << e.arg;
  return os.str();
}

void Tracer::write_canonical(std::ostream& os) const {
  if (dropped_events() > 0)
    os << "# " << dropped_events() << " oldest events dropped (ring wrap)\n";
  for (const TraceEvent& e : snapshot()) os << canonical_line(e) << '\n';
}

void Tracer::write_canonical_tail(std::ostream& os,
                                  std::size_t max_events) const {
  const std::vector<TraceEvent> all = snapshot();
  const std::size_t skip = all.size() > max_events ? all.size() - max_events : 0;
  if (dropped_events() + skip > 0)
    os << "# tail: last " << (all.size() - skip) << " of " << total_events()
       << " captured events\n";
  for (std::size_t i = skip; i < all.size(); ++i)
    os << canonical_line(all[i]) << '\n';
}

void Tracer::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  for (const TraceEvent& e : snapshot()) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"" << to_string(e.event) << "\",\"cat\":\""
       << to_string(category_of(e.event)) << "\",\"ph\":\"i\",\"s\":\"t\""
       << ",\"ts\":" << e.cycle << ",\"pid\":" << e.node
       << ",\"tid\":" << static_cast<unsigned>(e.port)
       << ",\"args\":{\"vc\":" << static_cast<unsigned>(e.vc)
       << ",\"pkt\":" << e.pkt << ",\"arg\":" << e.arg << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

template <class Ar>
void Tracer::visit(Ar& ar) {
  ar.expect(capacity_, "tracer capacity");
  ar(ring_);
  if (ring_.size() > capacity_)
    throw snap::SnapshotError("snapshot: tracer ring overflow");
  ar(head_, total_);
}
template void Tracer::visit(snap::Writer&);
template void Tracer::visit(snap::Reader&);

}  // namespace disco::trace
