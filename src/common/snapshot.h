// Byte images of labeled stats lists, and the CRC-32 that fingerprints them.
//
// A stats block declares its fields once, as a labeled list
// (`v("name", field)`, see noc::NocStats::visit); the cell JSON and the wire
// codec walk that list by key. snap::Writer walks the same list into a
// compact byte image that tests digest to pin a run's statistics exactly:
//   - labels are skipped;
//   - integers are written little-endian at their own width, bools and
//     enums as one byte, doubles as their IEEE-754 bit image;
//   - C arrays element by element, class types through their own `visit`.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

namespace disco::snap {

/// IEEE CRC-32 (reflected, poly 0xEDB88320) over raw bytes.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// Append-only byte sink over labeled field lists.
class Writer {
 public:
  template <class... Ts>
  void operator()(Ts&... fields) { (io(fields), ...); }

  const std::vector<std::uint8_t>& data() const { return buf_; }

 private:
  template <class T>
  void io(T& v) {
    using U = std::remove_cv_t<T>;
    if constexpr (std::is_array_v<U> &&
                  std::is_same_v<std::remove_cv_t<std::remove_extent_t<U>>, char>) {
      // A label.
    } else if constexpr (std::is_same_v<U, bool>) {
      le(v ? 1 : 0, 1);
    } else if constexpr (std::is_enum_v<U>) {
      le(static_cast<std::uint8_t>(v), 1);
    } else if constexpr (std::is_integral_v<U>) {
      le(static_cast<std::uint64_t>(v), sizeof(U));
    } else if constexpr (std::is_same_v<U, double>) {
      le(std::bit_cast<std::uint64_t>(v), 8);
    } else if constexpr (std::is_array_v<U>) {
      for (auto& e : v) io(e);
    } else {
      v.visit(*this);
    }
  }

  void le(std::uint64_t v, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::vector<std::uint8_t> buf_;
};

}  // namespace disco::snap
