#include "common/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>

namespace disco::snap {

namespace {

constexpr std::array<char, 4> kMagic = {'D', 'S', 'N', 'P'};

[[noreturn]] void fail(const std::string& what) { throw SnapshotError(what); }

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : bytes) {
    crc ^= byte;
    for (int i = 0; i < 8; ++i)
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  }
  return crc ^ 0xFFFFFFFFu;
}

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

bool Reader::b() {
  const std::uint8_t v = u8();
  if (v > 1) fail("snapshot: bool byte out of range");
  return v != 0;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::vector<std::uint8_t> Reader::bytes() {
  const std::uint64_t n = u64();
  if (n > remaining()) fail("snapshot: byte-array length past end of payload");
  const auto s = take(static_cast<std::size_t>(n));
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::uint64_t Reader::count() {
  const std::uint64_t n = u64();
  if (n > remaining()) fail("snapshot: element count past end of payload");
  return n;
}

std::string Reader::str() {
  const std::uint64_t n = u64();
  if (n > remaining()) fail("snapshot: string length past end of payload");
  const auto s = take(static_cast<std::size_t>(n));
  return std::string(reinterpret_cast<const char*>(s.data()), s.size());
}

void Reader::raw(std::span<std::uint8_t> out) {
  const auto s = take(out.size());
  std::memcpy(out.data(), s.data(), s.size());
}

void Reader::expect_end() const {
  if (pos_ != data_.size()) fail("snapshot: trailing bytes after payload");
}

std::span<const std::uint8_t> Reader::take(std::size_t n) {
  if (n > remaining()) fail("snapshot: truncated payload");
  const auto s = data_.subspan(pos_, n);
  pos_ += n;
  return s;
}

std::uint64_t Reader::le(int n) {
  const auto s = take(static_cast<std::size_t>(n));
  std::uint64_t v = 0;
  for (int i = n - 1; i >= 0; --i) v = (v << 8) | s[static_cast<std::size_t>(i)];
  return v;
}

void write_snapshot_file(const std::string& path,
                         std::span<const std::uint8_t> payload) {
  Writer head;
  head.raw(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(kMagic.data()), kMagic.size()));
  head.u32(kSnapshotVersion);
  head.u64(payload.size());
  head.u32(crc32(payload));

  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("snapshot: cannot open " + tmp + ": " + std::strerror(errno));
  auto write_all = [&](const std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      const ssize_t w = ::write(fd, p, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        const int e = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        fail("snapshot: write to " + tmp + " failed: " + std::strerror(e));
      }
      p += w;
      n -= static_cast<std::size_t>(w);
    }
  };
  write_all(head.data().data(), head.size());
  write_all(payload.data(), payload.size());
  if (::fsync(fd) != 0) {
    const int e = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    fail("snapshot: fsync of " + tmp + " failed: " + std::strerror(e));
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int e = errno;
    ::unlink(tmp.c_str());
    fail("snapshot: rename to " + path + " failed: " + std::strerror(e));
  }
}

std::vector<std::uint8_t> read_snapshot_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("snapshot: cannot open " + path + ": " + std::strerror(errno));
  std::vector<std::uint8_t> all;
  std::array<std::uint8_t, 1 << 16> chunk;
  for (;;) {
    const ssize_t r = ::read(fd, chunk.data(), chunk.size());
    if (r < 0) {
      if (errno == EINTR) continue;
      const int e = errno;
      ::close(fd);
      fail("snapshot: read of " + path + " failed: " + std::strerror(e));
    }
    if (r == 0) break;
    all.insert(all.end(), chunk.begin(), chunk.begin() + r);
  }
  ::close(fd);

  Reader r(all);
  std::array<std::uint8_t, 4> magic{};
  if (all.size() < 20) fail("snapshot: file too short for envelope");
  r.raw(magic);
  if (std::memcmp(magic.data(), kMagic.data(), 4) != 0)
    fail("snapshot: bad magic");
  const std::uint32_t version = r.u32();
  if (version != kSnapshotVersion)
    fail("snapshot: version mismatch (file " + std::to_string(version) +
         ", expected " + std::to_string(kSnapshotVersion) + ")");
  const std::uint64_t len = r.u64();
  const std::uint32_t crc = r.u32();
  if (len != r.remaining()) fail("snapshot: payload length mismatch");
  std::vector<std::uint8_t> payload(all.begin() + 20, all.end());
  if (crc32(payload) != crc) fail("snapshot: payload checksum mismatch");
  return payload;
}

}  // namespace disco::snap
