// Table 1 reproduction: per-algorithm compression/decompression latency,
// hardware overhead, and measured compression ratio over the full PARSEC
// value corpus (all 13 workloads' value mixes, uniformly sampled). A second
// table gives each implementation's host cost on that corpus: CPU ns per
// block, which depends on the machine and is not part of the reproduction.
//
// Paper values for reference: FPC -/5cy 8% 1.5 | SFPC -/4cy 8% 1.33 |
// BDI 1/1-5cy 2.3% 1.57 | SC2 6/8-14cy 1.5-3.9% 2.4 | C-Pack -/8cy - -.
#include <time.h>

#include <algorithm>
#include <atomic>

#include "bench_util.h"
#include "compress/registry.h"
#include "compress/sc2.h"
#include "workload/value_synth.h"

using namespace disco;

namespace {

/// CPU time of the calling thread, so algorithms timed on parallel workers
/// do not bill each other.
double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

/// What the timed loops compute lands here, so none of it is optimized away.
std::atomic<std::size_t> g_sink{0};

/// Median over kPasses runs of fn(), in CPU ns per corpus block.
template <typename Fn>
double median_ns_per_block(std::size_t blocks, Fn&& fn) {
  constexpr int kPasses = 3;
  std::array<double, kPasses> ns{};
  for (double& n : ns) {
    const double t0 = thread_cpu_ns();
    const std::size_t result = fn();
    n = (thread_cpu_ns() - t0) / static_cast<double>(blocks);
    g_sink += result;
  }
  std::sort(ns.begin(), ns.end());
  return ns[kPasses / 2];
}

}  // namespace

int main(int argc, char** argv) {
  auto sweep_opt = bench::sweep_options(argc, argv, "table1");
  SystemConfig cfg;
  bench::print_banner("Table 1: compression scheme parameters", cfg);

  // Corpus: blocks drawn from every workload's value population, the
  // per-workload slices synthesized in parallel (pure function of address
  // and seed, so the corpus is identical at any thread count).
  const auto& profiles = bench::workloads();
  constexpr std::size_t kBlocksPerWorkload = 400;
  std::vector<BlockBytes> corpus(profiles.size() * kBlocksPerWorkload);
  sim::run_indexed(
      profiles.size(),
      [&](std::size_t w) {
        workload::ValueSynthesizer synth(profiles[w].values, 7);
        for (std::size_t b = 0; b < kBlocksPerWorkload; ++b)
          corpus[w * kBlocksPerWorkload + b] =
              synth.block_for(static_cast<Addr>(b) * kBlockBytes);
      },
      sweep_opt);

  // One task per algorithm: compress the whole corpus, record the row, then
  // time compress and decompress over the same corpus.
  const auto names = compress::algorithm_names();
  struct Row {
    std::string method, comp, decomp, overhead, ratio, compressible;
    double compress_ns = 0, decompress_ns = 0;
  };
  std::vector<Row> rows(names.size());
  sim::run_indexed(
      names.size(),
      [&](std::size_t i) {
        auto algo = compress::make_algorithm(names[i]);
        if (auto* sc2 = dynamic_cast<compress::Sc2Algorithm*>(algo.get())) {
          sc2->retrain(
              std::span<const BlockBytes>(corpus.data(), corpus.size() / 2));
        }
        double bytes = 0;
        std::size_t compressible = 0;
        std::vector<compress::Encoded> encoded;
        encoded.reserve(corpus.size());
        for (const BlockBytes& b : corpus) {
          encoded.push_back(algo->compress(b));
          const std::size_t size = encoded.back().size();
          bytes += static_cast<double>(size);
          compressible += size < kBlockBytes ? 1 : 0;
        }
        const double ratio = static_cast<double>(kBlockBytes) *
                             static_cast<double>(corpus.size()) / bytes;
        const auto lat = algo->latency();
        rows[i] = {std::string(algo->name()),
                   std::to_string(lat.comp_cycles) + " cycles",
                   std::to_string(lat.decomp_cycles) + " cycles",
                   TablePrinter::pct(algo->hardware_overhead()),
                   TablePrinter::fmt(ratio, 2),
                   TablePrinter::pct(static_cast<double>(compressible) /
                                     static_cast<double>(corpus.size()))};

        rows[i].compress_ns = median_ns_per_block(corpus.size(), [&] {
          std::size_t sum = 0;
          for (const BlockBytes& b : corpus) sum += algo->compress(b).size();
          return sum;
        });
        rows[i].decompress_ns = median_ns_per_block(corpus.size(), [&] {
          std::size_t sum = 0;
          for (const compress::Encoded& e : encoded)
            sum += algo->decompress(e.bytes)[0];
          return sum;
        });
      },
      sweep_opt);

  TablePrinter t({"Method", "Comp. Lat.", "Decomp. Lat.", "HW Overhead",
                  "Comp. Ratio (measured)", "Compressible blocks"});
  for (const Row& r : rows)
    t.add_row({r.method, r.comp, r.decomp, r.overhead, r.ratio, r.compressible});
  t.print(std::cout);
  std::printf("\ncorpus: %zu blocks across 13 PARSEC-like value mixes\n",
              corpus.size());

  std::printf("\nhost cost (CPU ns per 64 B block, median of 3 passes over "
              "the corpus; machine-dependent):\n");
  TablePrinter cost({"Method", "Compress", "Decompress"});
  for (const Row& r : rows)
    cost.add_row({r.method, TablePrinter::fmt(r.compress_ns, 0),
                  TablePrinter::fmt(r.decompress_ns, 0)});
  cost.print(std::cout);
  return bench::exit_code_indexed();
}
