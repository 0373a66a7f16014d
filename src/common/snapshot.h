// Versioned, checksummed binary snapshot primitives for full-system
// checkpoint/restore. The byte-level idiom matches src/sim/wire.{h,cpp}:
// every value is serialized as a lossless bit pattern (doubles travel as
// their IEEE-754 bit images, never as decimal text), so save -> restore ->
// save reproduces identical bytes and a resumed simulation replays
// bit-exactly.
//
// File envelope (little-endian):
//   magic   "DSNP"  (4 bytes)
//   version u32     (kSnapshotVersion; mismatches are rejected)
//   length  u64     (payload byte count)
//   crc     u32     (IEEE CRC-32 of the payload)
//   payload ...
//
// Writes are atomic: payload goes to <path>.tmp, is fsync'ed, then renamed
// over <path>, so a crash or SIGINT mid-write leaves only the previous good
// snapshot visible. Every malformed input (truncated file, bit flip, bad
// magic/version/length) is reported as a structured SnapshotError — never
// undefined behaviour.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace disco::noc {
class PacketTable;
}

namespace disco::snap {

inline constexpr std::uint32_t kSnapshotVersion = 1;

/// Structured snapshot failure: corrupt/truncated/mismatched input or an
/// I/O error. Callers fall back to a from-zero run on catch.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// IEEE CRC-32 (reflected, poly 0xEDB88320) over raw bytes.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

// --- The archive concept ----------------------------------------------------
//
// Writer and Reader are the two archives of one concept, so every stateful
// type declares its fields once and that list runs in both directions:
//
//   template <class Ar> void visit(Ar& ar) { ar(count_, total_, lines_); }
//
// `ar(fields...)` saves or restores each field by its type:
//   - integers at their own width, bools as one 0/1 byte, every enum as one
//     byte, doubles as their IEEE-754 bit image;
//   - strings and length-prefixed sequences (vector, deque, Ring): u64 count
//     + elements; a byte vector is its raw bytes;
//   - std::array / C arrays: the elements, no count (byte arrays raw);
//   - optional: presence bool + value;
//   - sets and maps: u64 count + entries in sorted key order, so unordered
//     containers save byte-deterministically;
//   - class types through their own `visit` member, or a free
//     `visit(archive, value)` found by argument-dependent lookup (the packet
//     references of noc/snapshot.h go through `packets`);
//   - a string literal labels the next field and is skipped, so a named
//     field list (see fault::FaultCounters) can double as a snapshot list.
// `ar.each(c)` visits the elements of a container sized by the
// configuration (no count); `ar.each(c, what)` writes the count first and
// restore rejects a different one. `ar.expect(v, what)` saves a value that
// restore only checks. Every failed check throws SnapshotError.
//
// Writers never modify what they visit; visit is non-const only so the one
// list can serve the Reader.

namespace detail {

template <class T>
inline constexpr bool kIsLabel =
    std::is_array_v<T> && std::is_same_v<std::remove_cv_t<std::remove_extent_t<T>>, char>;

template <class T>
struct IsStdArray : std::false_type {};
template <class T, std::size_t N>
struct IsStdArray<std::array<T, N>> : std::true_type {};

template <class T>
struct IsOptional : std::false_type {};
template <class T>
struct IsOptional<std::optional<T>> : std::true_type {};

template <class T>
concept Map = requires { typename T::key_type; typename T::mapped_type; };
template <class T>
concept Set = !Map<T> && requires { typename T::key_type; };
template <class T>
concept Sequence = requires(T& c, typename T::value_type v) {
  c.size();
  c.clear();
  c.push_back(std::move(v));
};

template <class A>
constexpr bool kIsByteArray =
    std::is_same_v<std::remove_cvref_t<decltype(std::declval<A&>()[0])>, std::uint8_t>;

/// Owned components (vector<unique_ptr<X>>) are visited in place.
template <class T>
T& deref(T& v) { return v; }
template <class T>
T& deref(std::unique_ptr<T>& p) { return *p; }

/// Entries of a set or map, ordered by key.
template <class C>
auto sorted_entries(C& c) {
  std::vector<decltype(&*c.begin())> out;
  out.reserve(c.size());
  for (auto& e : c) out.push_back(&e);
  std::sort(out.begin(), out.end(), [](const auto* a, const auto* b) {
    if constexpr (Map<C>) return a->first < b->first;
    else return *a < *b;
  });
  return out;
}

}  // namespace detail

/// Append-only byte sink with fixed-width little-endian primitives.
class Writer {
 public:
  static constexpr bool kLoading = false;
  /// Interns packet references (noc/snapshot.h); null outside NoC state.
  noc::PacketTable* packets = nullptr;

  template <class... Ts>
  void operator()(Ts&... fields) { (io(fields), ...); }

  template <class C>
  void each(C& c) {
    if constexpr (std::is_same_v<C, std::vector<bool>>) {
      for (const bool v : c) b(v);
    } else {
      for (auto& e : c) io(detail::deref(e));
    }
  }
  template <class C>
  void each(C& c, const char* /*what*/) {
    u64(c.size());
    each(c);
  }
  template <class T>
  void expect(const T& v, const char* /*what*/) {
    T copy = v;
    io(copy);
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i64(std::int64_t v) { le(static_cast<std::uint64_t>(v), 8); }
  void b(bool v) { u8(v ? 1 : 0); }
  /// Lossless bit-pattern double (the wire.cpp idiom).
  void f64(double v);
  /// Length-prefixed raw bytes.
  void bytes(std::span<const std::uint8_t> v) {
    u64(v.size());
    buf_.insert(buf_.end(), v.begin(), v.end());
  }
  void str(const std::string& s) {
    bytes(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }
  /// Fixed-size raw bytes (no length prefix; reader knows the size).
  void raw(std::span<const std::uint8_t> v) {
    buf_.insert(buf_.end(), v.begin(), v.end());
  }
  void append(const Writer& other) {
    buf_.insert(buf_.end(), other.buf_.begin(), other.buf_.end());
  }

  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::size_t size() const { return buf_.size(); }

 private:
  template <class T>
  void io(T& v) {
    using U = std::remove_const_t<T>;
    if constexpr (detail::kIsLabel<T>) {
    } else if constexpr (std::is_same_v<U, bool>) {
      b(v);
    } else if constexpr (std::is_enum_v<U>) {
      u8(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_integral_v<U>) {
      le(static_cast<std::uint64_t>(v), sizeof(U));
    } else if constexpr (std::is_same_v<U, double>) {
      f64(v);
    } else if constexpr (std::is_same_v<U, std::string>) {
      str(v);
    } else if constexpr (std::is_same_v<U, std::vector<std::uint8_t>>) {
      bytes(v);
    } else if constexpr (detail::IsStdArray<U>::value || std::is_array_v<U>) {
      if constexpr (detail::kIsByteArray<U>)
        raw(std::span<const std::uint8_t>(v));
      else
        for (auto& e : v) io(e);
    } else if constexpr (detail::IsOptional<U>::value) {
      b(v.has_value());
      if (v.has_value()) io(*v);
    } else if constexpr (detail::Map<U>) {
      u64(v.size());
      for (auto* e : detail::sorted_entries(v)) (*this)(e->first, e->second);
    } else if constexpr (detail::Set<U>) {
      u64(v.size());
      for (auto* e : detail::sorted_entries(v)) io(*e);
    } else if constexpr (detail::Sequence<U>) {
      u64(v.size());
      for (auto& e : v) io(e);
    } else if constexpr (requires { v.visit(*this); }) {
      v.visit(*this);
    } else {
      visit(*this, v);
    }
  }

  void le(std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked reader over a snapshot payload. Every read that would run
/// past the end throws SnapshotError, so truncated or bit-flipped payloads
/// can never index out of bounds.
class Reader {
 public:
  static constexpr bool kLoading = true;
  /// Resolves packet references (noc/snapshot.h); null outside NoC state.
  noc::PacketTable* packets = nullptr;

  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  template <class... Ts>
  void operator()(Ts&... fields) { (io(fields), ...); }

  template <class C>
  void each(C& c) {
    if constexpr (std::is_same_v<C, std::vector<bool>>) {
      for (std::size_t i = 0; i < c.size(); ++i) c[i] = b();
    } else {
      for (auto& e : c) io(detail::deref(e));
    }
  }
  template <class C>
  void each(C& c, const char* what) {
    expect(static_cast<std::uint64_t>(c.size()), what);
    each(c);
  }
  /// Read a value the restoring object already holds; a different one
  /// means the snapshot belongs to another configuration.
  template <class T>
  void expect(const T& v, const char* what) {
    T got{};
    io(got);
    if (got != v) throw SnapshotError(std::string("snapshot: ") + what + " mismatch");
  }

  std::uint8_t u8() { return take(1)[0]; }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(le(8)); }
  bool b();
  double f64();
  std::vector<std::uint8_t> bytes();
  std::string str();
  /// Fixed-size raw bytes into `out`.
  void raw(std::span<std::uint8_t> out);

  std::size_t remaining() const { return data_.size() - pos_; }
  /// Assert the payload was consumed exactly (trailing garbage => corrupt).
  void expect_end() const;

 private:
  template <class T>
  void io(T& v) {
    using U = std::remove_const_t<T>;
    if constexpr (detail::kIsLabel<T>) {
    } else if constexpr (std::is_same_v<U, bool>) {
      v = b();
    } else if constexpr (std::is_enum_v<U>) {
      v = static_cast<U>(u8());
    } else if constexpr (std::is_integral_v<U>) {
      v = static_cast<U>(le(sizeof(U)));
    } else if constexpr (std::is_same_v<U, double>) {
      v = f64();
    } else if constexpr (std::is_same_v<U, std::string>) {
      v = str();
    } else if constexpr (std::is_same_v<U, std::vector<std::uint8_t>>) {
      v = bytes();
    } else if constexpr (detail::IsStdArray<U>::value || std::is_array_v<U>) {
      if constexpr (detail::kIsByteArray<U>)
        raw(std::span<std::uint8_t>(v));
      else
        for (auto& e : v) io(e);
    } else if constexpr (detail::IsOptional<U>::value) {
      v.reset();
      if (b()) io(v.emplace());
    } else if constexpr (detail::Map<U>) {
      v.clear();
      for (std::uint64_t i = 0, n = count(); i < n; ++i) {
        typename U::key_type key{};
        typename U::mapped_type value{};
        io(key);
        io(value);
        v.emplace(std::move(key), std::move(value));
      }
    } else if constexpr (detail::Set<U>) {
      v.clear();
      for (std::uint64_t i = 0, n = count(); i < n; ++i) {
        typename U::key_type key{};
        io(key);
        v.insert(std::move(key));
      }
    } else if constexpr (detail::Sequence<U>) {
      v.clear();
      for (std::uint64_t i = 0, n = count(); i < n; ++i) {
        typename U::value_type e{};
        io(e);
        v.push_back(std::move(e));
      }
    } else if constexpr (requires { v.visit(*this); }) {
      v.visit(*this);
    } else {
      visit(*this, v);
    }
  }
  /// Element count of a container; every element takes at least one byte,
  /// so a count past the end of the payload is corrupt.
  std::uint64_t count();

  std::span<const std::uint8_t> take(std::size_t n);
  std::uint64_t le(int n);
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Atomically write `payload` to `path` inside the versioned, checksummed
/// envelope: <path>.tmp + fsync + rename. Throws SnapshotError on I/O error
/// (the previous snapshot at `path`, if any, is left untouched).
void write_snapshot_file(const std::string& path,
                         std::span<const std::uint8_t> payload);

/// Read and validate a snapshot file: magic, version, length and CRC must
/// all match or SnapshotError is thrown. Returns the payload bytes.
std::vector<std::uint8_t> read_snapshot_file(const std::string& path);

}  // namespace disco::snap
