#include "micro.h"

#include <memory>

#include "common/rng.h"
#include "compress/registry.h"
#include "compress/sc2.h"
#include "ledger.h"
#include "summary.h"
#include "workload/trace_gen.h"
#include "workload/value_synth.h"

namespace perfbench {
namespace {

using namespace disco;

constexpr int kRepetitions = 7;
constexpr std::uint64_t kGeneratorCalls = 20000;

/// Timed results are folded into this so the calls cannot be optimized away.
volatile std::uint64_t g_sink = 0;

/// SC2 is trained on the corpus, as CmpSystem retrains it on the workload's
/// own values; the other algorithms come from the registry as configured.
std::unique_ptr<compress::Algorithm> make_codec(const std::string& name,
                                                const std::vector<BlockBytes>& corpus) {
  if (name == "sc2") return std::make_unique<compress::Sc2Algorithm>(corpus);
  return compress::make_algorithm(name);
}

/// Median over repetitions of the mean ns per call of `body(i)`, i < calls.
template <typename F>
double median_ns_per_call(std::uint64_t calls, F&& body) {
  std::vector<double> reps;
  for (int r = 0; r < kRepetitions; ++r) {
    const std::int64_t t0 = cpu_now_ns();
    for (std::uint64_t i = 0; i < calls; ++i) body(i);
    reps.push_back(static_cast<double>(cpu_now_ns() - t0) / static_cast<double>(calls));
  }
  return median(reps);
}

}  // namespace

std::string check_roundtrip(const std::vector<BlockBytes>& corpus) {
  for (const std::string& name : codec_names()) {
    const auto algo = make_codec(name, corpus);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const compress::Encoded enc = algo->compress(corpus[i]);
      const auto dec = algo->try_decompress(enc.bytes);
      if (!dec || *dec != corpus[i])
        return name + ": block " + std::to_string(i) + " does not roundtrip";
    }
  }
  return {};
}

std::vector<CodecTiming> time_codecs(const std::vector<BlockBytes>& corpus) {
  std::vector<CodecTiming> out;
  for (const std::string& name : codec_names()) {
    const auto algo = make_codec(name, corpus);
    std::vector<compress::Encoded> enc(corpus.size());
    CodecTiming t;
    t.algorithm = name;
    t.compress_ns = median_ns_per_call(corpus.size(), [&](std::uint64_t i) {
      enc[i] = algo->compress(corpus[i]);
    });
    std::uint64_t sink = 0;
    t.decompress_ns = median_ns_per_call(corpus.size(), [&](std::uint64_t i) {
      sink += algo->decompress(enc[i].bytes)[i % kBlockBytes];
    });
    g_sink = sink;
    out.push_back(t);
  }
  return out;
}

double trace_op_ns(const std::vector<const workload::BenchmarkProfile*>& profiles,
                   std::uint64_t seed) {
  std::vector<double> per_profile;
  for (const auto* p : profiles) {
    workload::TraceGenerator gen(*p, 0, seed);
    std::uint64_t sink = 0;
    per_profile.push_back(median_ns_per_call(
        kGeneratorCalls, [&](std::uint64_t) { sink += gen.next().addr; }));
    g_sink = sink;
  }
  return mean(per_profile);
}

double block_for_ns(const std::vector<const workload::BenchmarkProfile*>& profiles,
                    std::uint64_t seed) {
  std::vector<double> per_profile;
  for (const auto* p : profiles) {
    const workload::ValueSynthesizer synth(p->values, seed);
    std::uint64_t sink = 0;
    per_profile.push_back(median_ns_per_call(kGeneratorCalls, [&](std::uint64_t i) {
      sink += synth.block_for(splitmix64(seed, i) % (1ULL << 30) * kBlockBytes)[0];
    }));
    g_sink = sink;
  }
  return mean(per_profile);
}

}  // namespace perfbench
