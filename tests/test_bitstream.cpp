// Boundary tests for the word-at-a-time bit stream. The writer and reader
// are checked against a one-bit-at-a-time reference kept here, on seeded
// random (value, width) streams that cover widths 0 and 64, every word
// straddle and streams far longer than a block. Truncated compressor
// streams are decoded from exact-size heap copies, so a read past the span
// fails under the ASan/UBSan CI job.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/rng.h"
#include "compress/huffman.h"
#include "compress/registry.h"
#include "workload/value_synth.h"

namespace disco::compress {
namespace {

/// One bit per step: the reference the word-at-a-time writer must match.
class RefWriter {
 public:
  void put(std::uint64_t value, unsigned nbits) {
    for (unsigned i = nbits; i-- > 0;) put_bit((value >> i) & 1ULL);
  }
  void put_bit(bool bit) {
    if (bits_ % 8 == 0) bytes_.push_back(0);
    if (bit) bytes_.back() |= static_cast<std::uint8_t>(0x80U >> (bits_ % 8));
    ++bits_;
  }
  std::size_t bit_count() const { return bits_; }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bits_ = 0;
};

class RefReader {
 public:
  explicit RefReader(std::span<const std::uint8_t> data) : data_(data) {}
  bool get_bit() {
    if (pos_ / 8 >= data_.size()) throw DecodeError("bit stream truncated");
    const bool bit = (data_[pos_ / 8] >> (7 - pos_ % 8)) & 1U;
    ++pos_;
    return bit;
  }
  std::uint64_t get(unsigned nbits) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < nbits; ++i) v = (v << 1) | (get_bit() ? 1 : 0);
    return v;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

std::uint64_t low_bits(std::uint64_t v, unsigned nbits) {
  return nbits == 64 ? v : v & ((std::uint64_t{1} << nbits) - 1);
}

struct Field {
  std::uint64_t value;
  unsigned width;
};

std::vector<Field> random_fields(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  std::vector<Field> fields;
  for (std::size_t i = 0; i < n; ++i)
    fields.push_back({rng.next_u64(), static_cast<unsigned>(rng.next_below(65))});
  return fields;
}

TEST(BitstreamReference, WriterMatchesPerBitReferenceOnRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    BitWriter bw;
    RefWriter ref;
    for (const Field& f : random_fields(seed, seed * 7)) {
      bw.put(f.value, f.width);
      ref.put(f.value, f.width);
      ASSERT_EQ(bw.bit_count(), ref.bit_count()) << "seed " << seed;
    }
    EXPECT_EQ(bw.byte_count(), ref.bytes().size());
    EXPECT_EQ(bw.bytes(), ref.bytes()) << "seed " << seed;
  }
}

TEST(BitstreamReference, EveryWordStraddle) {
  // Fill 0..127 bits first, then a 64-bit and a 1-bit field, so each lands
  // across every possible accumulator fill level.
  for (unsigned lead = 0; lead < 128; ++lead) {
    BitWriter bw;
    RefWriter ref;
    bw.put(0x5555555555555555ULL, lead % 65);
    ref.put(0x5555555555555555ULL, lead % 65);
    bw.put(0xFFFFFFFFFFFFFFFFULL, lead / 65 * 63);
    ref.put(0xFFFFFFFFFFFFFFFFULL, lead / 65 * 63);
    bw.put(0xDEADBEEFCAFEBABEULL, 64);
    ref.put(0xDEADBEEFCAFEBABEULL, 64);
    bw.put_bit(true);
    ref.put_bit(true);
    ASSERT_EQ(bw.bytes(), ref.bytes()) << "lead " << lead;

    const auto bytes = bw.bytes();
    BitReader br{std::span<const std::uint8_t>(bytes)};
    EXPECT_EQ(br.get(lead % 65), low_bits(0x5555555555555555ULL, lead % 65));
    EXPECT_EQ(br.get(lead / 65 * 63), low_bits(~0ULL, lead / 65 * 63));
    EXPECT_EQ(br.get(64), 0xDEADBEEFCAFEBABEULL) << "lead " << lead;
    EXPECT_TRUE(br.get_bit());
    EXPECT_NO_THROW(br.expect_no_trailing_bytes());
  }
}

TEST(BitstreamReference, ReaderMatchesPerBitReferenceOnRandomStreams) {
  for (std::uint64_t seed = 100; seed < 140; ++seed) {
    const auto fields = random_fields(seed, 150);  // ~600 bytes per stream
    RefWriter ref;
    for (const Field& f : fields) ref.put(f.value, f.width);
    // Exact-size copy: any read past the end is a heap overflow.
    const std::vector<std::uint8_t> bytes(ref.bytes().begin(), ref.bytes().end());
    BitReader br{std::span<const std::uint8_t>(bytes)};
    RefReader rr{std::span<const std::uint8_t>(bytes)};
    for (const Field& f : fields) {
      const std::uint64_t v = br.get(f.width);
      ASSERT_EQ(v, rr.get(f.width)) << "seed " << seed;
      ASSERT_EQ(v, low_bits(f.value, f.width)) << "seed " << seed;
    }
    EXPECT_NO_THROW(br.expect_no_trailing_bytes());
    // The padding bits are readable; one field past them is not.
    const std::size_t pad = br.bits_left();
    EXPECT_LT(pad, 8u);
    EXPECT_EQ(br.get(static_cast<unsigned>(pad)), 0u);
    EXPECT_THROW(br.get(1), DecodeError);
  }
}

TEST(BitstreamReference, ReadPastTheEndThrowsAtTheSameField) {
  // A stream cut at every byte length: the new reader and the reference
  // throw on the same field.
  const auto fields = random_fields(7, 40);
  RefWriter ref;
  for (const Field& f : fields) ref.put(f.value, f.width);
  for (std::size_t len = 0; len < ref.bytes().size(); ++len) {
    const std::vector<std::uint8_t> cut(ref.bytes().begin(), ref.bytes().begin() + len);
    BitReader br{std::span<const std::uint8_t>(cut)};
    RefReader rr{std::span<const std::uint8_t>(cut)};
    std::size_t new_fail = fields.size(), ref_fail = fields.size();
    for (std::size_t i = 0; i < fields.size() && new_fail == fields.size(); ++i) {
      try { br.get(fields[i].width); } catch (const DecodeError&) { new_fail = i; }
    }
    for (std::size_t i = 0; i < fields.size() && ref_fail == fields.size(); ++i) {
      try { rr.get(fields[i].width); } catch (const DecodeError&) { ref_fail = i; }
    }
    EXPECT_EQ(new_fail, ref_fail) << "cut at " << len << " bytes";
  }
}

TEST(BitstreamReference, TagConstructorAndTakeFrameTheStream) {
  BitWriter bw(0xA5);
  EXPECT_EQ(bw.bit_count(), 8u);
  bw.put(0b101, 3);
  EXPECT_EQ(bw.take(), (std::vector<std::uint8_t>{0xA5, 0xA0}));
  EXPECT_EQ(bw.bit_count(), 0u);
  EXPECT_TRUE(bw.bytes().empty());
}

/// Canonical Huffman decode one bit at a time, by searching the code table.
std::size_t ref_decode(const HuffmanCode& code, RefReader& rr) {
  std::uint8_t max_len = 0;
  for (std::size_t s = 0; s < code.alphabet_size(); ++s)
    max_len = std::max(max_len, code.code(s).length);
  std::uint64_t bits = 0;
  for (std::uint8_t len = 1; len <= max_len; ++len) {
    bits = (bits << 1) | (rr.get_bit() ? 1 : 0);
    for (std::size_t s = 0; s < code.alphabet_size(); ++s)
      if (code.code(s).length == len && code.code(s).bits == bits) return s;
  }
  throw DecodeError("invalid Huffman stream");
}

TEST(BitstreamHuffman, WindowDecodeMatchesPerBitWalkOnArbitraryBytes) {
  // Random bytes through a complete code and through the degenerate
  // one-symbol code (where a 1 bit is invalid): both decoders return the
  // same symbols and fail with the same error at the same symbol.
  for (const auto& freqs : {std::vector<std::uint64_t>{40, 30, 20, 0, 5, 3, 1, 1},
                            std::vector<std::uint64_t>{0, 7, 0}}) {
    const HuffmanCode code = HuffmanCode::build(freqs);
    Rng rng(0x4F7);
    for (int trial = 0; trial < 500; ++trial) {
      std::vector<std::uint8_t> bytes(rng.next_below(24));
      for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_u64());
      BitReader br{std::span<const std::uint8_t>(bytes)};
      RefReader rr{std::span<const std::uint8_t>(bytes)};
      for (;;) {
        std::string got, want;
        std::size_t s_got = 0, s_want = 0;
        try { s_got = code.decode(br); } catch (const DecodeError& e) { got = e.what(); }
        try { s_want = ref_decode(code, rr); } catch (const DecodeError& e) { want = e.what(); }
        ASSERT_EQ(got, want) << "trial " << trial;
        if (!got.empty()) break;
        ASSERT_EQ(s_got, s_want) << "trial " << trial;
      }
    }
  }
}

std::vector<BlockBytes> truncation_corpus() {
  std::vector<BlockBytes> blocks;
  const workload::ValueSynthesizer synth(workload::ValueMix{0.1, 0.3, 0.2, 0.2, 0.1, 0.1}, 31);
  for (Addr a = 0; a < 24 * kBlockBytes; a += kBlockBytes) blocks.push_back(synth.block_for(a));
  return blocks;
}

TEST(BitstreamTruncation, EveryPrefixOfAValidStreamIsRejectedInBounds) {
  for (const char* name : {"fpc", "sc2", "cpack"}) {
    const auto algo = make_algorithm(name);
    for (const BlockBytes& block : truncation_corpus()) {
      const Encoded enc = algo->compress(block);
      for (std::size_t len = 0; len < enc.bytes.size(); ++len) {
        const std::vector<std::uint8_t> prefix(enc.bytes.begin(), enc.bytes.begin() + len);
        EXPECT_FALSE(algo->try_decompress(std::span<const std::uint8_t>(prefix)).has_value())
            << name << ": accepted a " << len << "/" << enc.bytes.size() << "-byte prefix";
      }
    }
  }
}

}  // namespace
}  // namespace disco::compress
