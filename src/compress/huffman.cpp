#include "compress/huffman.h"

#include <algorithm>
#include <cassert>
#include <queue>

namespace disco::compress {
namespace {

struct Node {
  std::uint64_t freq;
  int left = -1;   // node index, or -1 for leaf
  int right = -1;
  std::uint32_t symbol = 0;
};

}  // namespace

HuffmanCode HuffmanCode::build(const std::vector<std::uint64_t>& freqs) {
  HuffmanCode hc;
  hc.codes_.assign(freqs.size(), HuffCode{});

  std::vector<Node> nodes;
  using QElem = std::pair<std::uint64_t, int>;  // (freq, node index)
  std::priority_queue<QElem, std::vector<QElem>, std::greater<>> pq;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] == 0) continue;
    nodes.push_back(Node{freqs[s], -1, -1, static_cast<std::uint32_t>(s)});
    pq.emplace(freqs[s], static_cast<int>(nodes.size()) - 1);
  }
  if (pq.empty()) return hc;
  if (pq.size() == 1) {  // degenerate alphabet: give the symbol a 1-bit code
    hc.codes_[nodes[0].symbol] = HuffCode{0, 1};
    hc.build_decode_tables();
    return hc;
  }
  while (pq.size() > 1) {
    const auto [fa, a] = pq.top(); pq.pop();
    const auto [fb, b] = pq.top(); pq.pop();
    nodes.push_back(Node{fa + fb, a, b, 0});
    pq.emplace(fa + fb, static_cast<int>(nodes.size()) - 1);
  }

  // Depth-first traversal to get code lengths.
  struct Frame { int node; std::uint8_t depth; };
  std::vector<Frame> stack{{pq.top().second, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& n = nodes[static_cast<std::size_t>(f.node)];
    if (n.left < 0) {
      hc.codes_[n.symbol].length = std::max<std::uint8_t>(f.depth, 1);
      continue;
    }
    stack.push_back({n.left, static_cast<std::uint8_t>(f.depth + 1)});
    stack.push_back({n.right, static_cast<std::uint8_t>(f.depth + 1)});
  }

  // Canonical assignment: sort symbols by (length, symbol id).
  std::vector<std::uint32_t> symbols;
  for (std::size_t s = 0; s < freqs.size(); ++s)
    if (hc.codes_[s].length > 0) symbols.push_back(static_cast<std::uint32_t>(s));
  std::sort(symbols.begin(), symbols.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (hc.codes_[a].length != hc.codes_[b].length)
      return hc.codes_[a].length < hc.codes_[b].length;
    return a < b;
  });
  std::uint64_t code = 0;
  std::uint8_t prev_len = 0;
  for (const std::uint32_t s : symbols) {
    const std::uint8_t len = hc.codes_[s].length;
    code <<= (len - prev_len);
    hc.codes_[s].bits = code;
    ++code;
    prev_len = len;
  }
  hc.build_decode_tables();
  return hc;
}

void HuffmanCode::build_decode_tables() {
  max_len_ = 0;
  for (const auto& c : codes_) max_len_ = std::max(max_len_, c.length);
  assert(max_len_ <= 64 && "codes are held in 64 bits");
  rows_.assign(max_len_ + 1, LengthRow{});
  for (const auto& c : codes_)
    if (c.length > 0) ++rows_[c.length].count;

  sorted_symbols_.clear();
  for (std::size_t s = 0; s < codes_.size(); ++s)
    if (codes_[s].length > 0) sorted_symbols_.push_back(static_cast<std::uint32_t>(s));
  std::sort(sorted_symbols_.begin(), sorted_symbols_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (codes_[a].length != codes_[b].length)
                return codes_[a].length < codes_[b].length;
              return a < b;
            });

  std::uint64_t code = 0;
  std::uint32_t index = 0;
  for (std::uint8_t len = 1; len <= max_len_; ++len) {
    LengthRow& row = rows_[len];
    code <<= 1;
    row.first_code = code;
    row.first_index = index;
    code += row.count;
    index += row.count;
  }
}

std::size_t HuffmanCode::decode(BitReader& br) const {
  // Walk the canonical tables on one peeked window. Bits past the end read
  // as zero, so the walk stops at the stream's end: running out before a
  // code matches is a truncation, not an invalid code.
  const std::uint64_t window = br.peek();
  const std::size_t avail = br.bits_left();
  const std::size_t limit = std::min<std::size_t>(max_len_, avail);
  for (std::size_t len = 1; len <= limit; ++len) {
    const LengthRow& row = rows_[len];
    const std::uint64_t offset = (window >> (64 - len)) - row.first_code;
    if (offset < row.count) {
      br.skip(static_cast<unsigned>(len));
      return sorted_symbols_[row.first_index + offset];
    }
  }
  if (max_len_ > avail) throw DecodeError("bit stream truncated");
  throw DecodeError("invalid Huffman stream");
}

}  // namespace disco::compress
