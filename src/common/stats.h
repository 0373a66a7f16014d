// Lightweight statistics primitives used across the simulator: counters,
// running means, and fixed-bucket histograms. All are plain value types so
// components can embed them without indirection in hot paths.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace disco {

/// Running scalar accumulator: count / sum / min / max / mean.
class Accumulator {
 public:
  void add(double v) {
    count_ += 1;
    sum_ += v;
    min_ = count_ == 1 ? v : std::min(min_, v);
    max_ = count_ == 1 ? v : std::max(max_, v);
  }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  void reset() { *this = Accumulator{}; }

  template <class V>
  void visit(V& v) {
    v("count", count_);
    v("sum", sum_);
    v("min", min_);
    v("max", max_);
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Power-of-two bucketed histogram for latency distributions.
class Histogram {
 public:
  void add(std::uint64_t v) {
    acc_.add(static_cast<double>(v));
    std::size_t bucket = 0;
    while ((1ULL << bucket) <= v && bucket + 1 < kBuckets) ++bucket;
    ++buckets_[bucket];
  }
  const Accumulator& summary() const { return acc_; }
  std::uint64_t bucket(std::size_t i) const { return i < kBuckets ? buckets_[i] : 0; }
  static constexpr std::size_t num_buckets() { return kBuckets; }
  void reset() { *this = Histogram{}; }

  /// Approximate quantile from bucket boundaries. Returns the exclusive
  /// upper bound (2^i) of the bucket holding the sample of rank
  /// ceil(q * count), with q clamped to [0, 1]: q=0 reports the minimum
  /// sample's bucket, q=1 the maximum sample's bucket, and a single-sample
  /// histogram reports that sample's bucket for every q.
  std::uint64_t approx_quantile(double q) const;

  template <class V>
  void visit(V& v) {
    v("buckets", buckets_);
    v("summary", acc_);
  }

 private:
  static constexpr std::size_t kBuckets = 24;
  std::uint64_t buckets_[kBuckets]{};
  Accumulator acc_;
};

/// Named counter bag; cheap to update, used for event bookkeeping that is
/// reported at end of run (not consulted in hot decision paths).
class StatSet {
 public:
  void inc(const std::string& name, std::uint64_t by = 1) { counters_[name] += by; }
  std::uint64_t get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  const std::map<std::string, std::uint64_t>& all() const { return counters_; }
  void reset() { counters_.clear(); }

 private:
  std::map<std::string, std::uint64_t> counters_;
};

}  // namespace disco
