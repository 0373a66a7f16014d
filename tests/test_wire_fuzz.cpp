// Wire-format (pipe payload / manifest line) mutation fuzzing: bit flips,
// truncations and spliced characters in an encoded CellResult must surface
// as a structured error or decode, never crash or corrupt memory.
#include <gtest/gtest.h>

#include <exception>
#include <string>

#include "common/rng.h"
#include "sim/experiment.h"
#include "sim/wire.h"

namespace disco {
namespace {

TEST(WireFuzz, MutatedResultPayloadsNeverCrash) {
  sim::CellResult r;
  r.workload = "canneal";
  r.algorithm = "delta";
  r.scheme = Scheme::DISCO;
  r.measured_cycles = 100000;
  r.avg_nuca_latency = 23.75;
  r.trace_text = "1 2 buffer_write 0 0 99 3\n";
  const std::string valid = sim::wire::encode_result(r);
  ASSERT_NO_THROW(sim::wire::decode_result(sim::wire::parse_object(valid)));

  Rng rng(0xD00F);
  for (int trial = 0; trial < 500; ++trial) {
    std::string s = valid;
    switch (rng.next_below(3)) {
      case 0:  // bit flip
        s[rng.next_below(s.size())] ^=
            static_cast<char>(1u << rng.next_below(8));
        break;
      case 1:  // truncation
        s.resize(rng.next_below(s.size()));
        break;
      default:  // splice a random printable character
        s.insert(rng.next_below(s.size()),
                 1, static_cast<char>(' ' + rng.next_below(95)));
        break;
    }
    // Either parses to an equivalent-shaped object or throws a structured
    // error; it must never crash or corrupt memory.
    try {
      (void)sim::wire::decode_result(sim::wire::parse_object(s));
    } catch (const std::exception&) {
      // structured failure path: fine
    }
  }
}

}  // namespace
}  // namespace disco
