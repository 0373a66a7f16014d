#include "common/snapshot.h"

#include <array>

namespace disco::snap {
namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k)
      c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
    table[n] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFU;
  for (const std::uint8_t b : bytes) c = table[(c ^ b) & 0xFFU] ^ (c >> 8);
  return c ^ 0xFFFFFFFFU;
}

}  // namespace disco::snap
