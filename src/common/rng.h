// Deterministic, seedable pseudo-random number generation. All stochastic
// behaviour in the simulator flows through Rng so experiments replay exactly.
#pragma once

#include <cstdint>
#include <limits>

namespace disco {

/// splitmix64 — used to expand seeds and as a stateless hash.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Derive an independent stream seed from (base_seed, index). Used by the
/// sweep engine so every experiment cell gets a deterministic seed that
/// depends only on its position in the sweep, never on execution order.
constexpr std::uint64_t splitmix64(std::uint64_t seed, std::uint64_t index) {
  return splitmix64(splitmix64(seed) ^ splitmix64(index + 0x632BE59BD9B4E019ULL));
}

/// xoshiro256** generator: fast, high quality, deterministic across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5EEDF00DULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : state_) word = x = splitmix64(x);
  }

  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound == 0 returns 0.
  std::uint64_t next_below(std::uint64_t bound) {
    if (bound == 0) return 0;
    // Lemire's multiply-shift rejection-free approximation is fine here; the
    // tiny modulo bias of a 64-bit generator is irrelevant for workloads.
    return next_u64() % bound;
  }

  std::uint32_t next_u32() { return static_cast<std::uint32_t>(next_u64() >> 32); }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Bernoulli trial with probability p.
  bool chance(double p) { return next_double() < p; }

  /// Snapshot of the generator state: a restored Rng continues the exact
  /// stream the saved one would have produced.
  template <class Ar>
  void visit(Ar& ar) { ar(state_); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t state_[4]{};
};

}  // namespace disco
