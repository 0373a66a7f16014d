#include "fault/fault.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace disco::fault {

std::uint8_t fold8(std::span<const std::uint8_t> bytes) {
  std::uint8_t f = 0;
  for (const std::uint8_t b : bytes) f ^= b;
  return f;
}

std::uint32_t checksum(std::span<const std::uint8_t> bytes, CrcMode mode) {
  return mode == CrcMode::Crc32 ? crc32(bytes)
                                : static_cast<std::uint32_t>(fold8(bytes));
}

DecodeCheck checked_decode(const compress::Algorithm& algo,
                           std::span<const std::uint8_t> wire,
                           const BlockBytes& truth,
                           std::optional<std::uint32_t> crc, CrcMode mode) {
  const std::optional<BlockBytes> dec = algo.try_decompress(wire);
  if (!dec) return DecodeCheck::Rejected;
  if (crc && checksum(std::span<const std::uint8_t>(*dec), mode) != *crc)
    return DecodeCheck::Rejected;
  return *dec == truth ? DecodeCheck::Ok : DecodeCheck::SilentlyWrong;
}

namespace {

[[noreturn]] void spec_error(const std::string& token, const std::string& why) {
  throw std::invalid_argument("bad hard-fault token '" + token + "': " + why +
                              " (expected kind@cycle:node[:dir], kinds "
                              "link|router|engine|llc, dir N|S|E|W)");
}

std::uint64_t parse_u64(const std::string& token, const std::string& field,
                        const std::string& text) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos)
    spec_error(token, field + " must be a non-negative integer, got '" + text + "'");
  return std::stoull(text);
}

std::uint8_t parse_dir(const std::string& token, const std::string& text) {
  if (text == "N") return 0;
  if (text == "S") return 1;
  if (text == "E") return 2;
  if (text == "W") return 3;
  spec_error(token, "unknown direction '" + text + "'");
}

/// Canonical sort: by fire cycle, then kind, node, dir — stable under any
/// construction order, so explicit and rate-drawn events merge
/// deterministically.
bool event_less(const HardFaultEvent& a, const HardFaultEvent& b) {
  if (a.at != b.at) return a.at < b.at;
  if (a.kind != b.kind) return a.kind < b.kind;
  if (a.node != b.node) return a.node < b.node;
  return a.dir < b.dir;
}

}  // namespace

std::vector<HardFaultEvent> parse_hard_fault_spec(const std::string& spec) {
  std::vector<HardFaultEvent> events;
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token.empty()) continue;
    const std::size_t at_pos = token.find('@');
    if (at_pos == std::string::npos) spec_error(token, "missing '@'");
    const std::string kind_s = token.substr(0, at_pos);

    HardFaultEvent e;
    if (kind_s == "link") e.kind = HardFaultKind::Link;
    else if (kind_s == "router") e.kind = HardFaultKind::Router;
    else if (kind_s == "engine") e.kind = HardFaultKind::DiscoEngine;
    else if (kind_s == "llc") e.kind = HardFaultKind::LlcBank;
    else spec_error(token, "unknown kind '" + kind_s + "'");

    const std::string rest = token.substr(at_pos + 1);
    const std::size_t c1 = rest.find(':');
    if (c1 == std::string::npos) spec_error(token, "missing ':node'");
    e.at = parse_u64(token, "cycle", rest.substr(0, c1));
    const std::size_t c2 = rest.find(':', c1 + 1);
    const std::string node_s =
        rest.substr(c1 + 1, c2 == std::string::npos ? std::string::npos
                                                    : c2 - c1 - 1);
    e.node = static_cast<std::uint32_t>(parse_u64(token, "node", node_s));
    if (c2 != std::string::npos) {
      if (e.kind != HardFaultKind::Link)
        spec_error(token, "only link faults take a direction");
      e.dir = parse_dir(token, rest.substr(c2 + 1));
    } else if (e.kind == HardFaultKind::Link) {
      spec_error(token, "link faults need a ':dir' (N|S|E|W)");
    }
    events.push_back(e);
  }
  std::sort(events.begin(), events.end(), event_less);
  return events;
}

std::string format_hard_fault_spec(const std::vector<HardFaultEvent>& events) {
  static constexpr const char* kDirs = "NSEW";
  std::ostringstream os;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const HardFaultEvent& e = events[i];
    if (i > 0) os << ',';
    os << to_string(e.kind) << '@' << e.at << ':' << e.node;
    if (e.kind == HardFaultKind::Link) os << ':' << kDirs[e.dir & 3];
  }
  return os.str();
}

std::vector<HardFaultEvent> build_hard_fault_schedule(
    const FaultConfig& cfg, std::uint64_t seed, std::uint32_t mesh_cols,
    std::uint32_t mesh_rows, std::uint64_t horizon) {
  std::vector<HardFaultEvent> events;
  for (const HardFaultEvent& e : cfg.hard_faults)
    if (e.at <= horizon) events.push_back(e);

  if (cfg.hard_fault_rate > 0.0) {
    // One independent draw per component from its own splitmix64-derived
    // stream: the failure time is a pure function of (seed, component id),
    // never of visit order, so the schedule replays bit-exactly.
    const std::uint32_t n = mesh_cols * mesh_rows;
    std::uint64_t component = 0;
    const auto draw = [&](HardFaultKind kind, std::uint32_t node,
                          std::uint8_t dir) {
      Rng rng(splitmix64(seed, 0x4A12DFA07ULL + component++));
      // Exponential failure time at `rate` failures/cycle; the 1-u guard
      // keeps log() away from 0.
      const double u = rng.next_double();
      const double t = -std::log(1.0 - u) / cfg.hard_fault_rate;
      if (!(t >= 0.0) || t > static_cast<double>(horizon)) return;
      const std::uint64_t at =
          std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(t)));
      if (at > horizon) return;
      events.push_back({kind, at, node, dir});
    };
    for (std::uint32_t node = 0; node < n; ++node) {
      draw(HardFaultKind::Router, node, 0);
      draw(HardFaultKind::DiscoEngine, node, 0);
      draw(HardFaultKind::LlcBank, node, 0);
      // Each undirected link once, from the sender side: South and East
      // cover every internal edge exactly once.
      const std::uint32_t x = node % mesh_cols, y = node / mesh_cols;
      if (y + 1 < mesh_rows) draw(HardFaultKind::Link, node, 1);  // S
      if (x + 1 < mesh_cols) draw(HardFaultKind::Link, node, 2);  // E
    }
  }

  std::sort(events.begin(), events.end(), event_less);
  return events;
}

}  // namespace disco::fault
