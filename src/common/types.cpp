#include "common/types.h"

#include <algorithm>
#include <cctype>

namespace disco {

const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::Baseline: return "Baseline";
    case Scheme::CC: return "CC";
    case Scheme::CNC: return "CNC";
    case Scheme::DISCO: return "DISCO";
    case Scheme::Ideal: return "Ideal";
  }
  return "?";
}

std::optional<Scheme> scheme_from_name(std::string_view name) {
  for (const Scheme s : {Scheme::Baseline, Scheme::CC, Scheme::CNC,
                         Scheme::DISCO, Scheme::Ideal}) {
    const std::string_view known = to_string(s);
    if (std::equal(name.begin(), name.end(), known.begin(), known.end(),
                   [](char a, char b) {
                     return std::tolower(static_cast<unsigned char>(a)) ==
                            std::tolower(static_cast<unsigned char>(b));
                   }))
      return s;
  }
  return std::nullopt;
}

const char* to_string(UnitKind k) {
  switch (k) {
    case UnitKind::Core: return "Core";
    case UnitKind::L2Bank: return "L2Bank";
    case UnitKind::MemCtrl: return "MemCtrl";
  }
  return "?";
}

const char* to_string(VNet v) {
  switch (v) {
    case VNet::Request: return "Request";
    case VNet::Response: return "Response";
    case VNet::Coherence: return "Coherence";
  }
  return "?";
}

}  // namespace disco
