// The field image of a CellResult, independent of any JSON encoding: every
// key of CellResult::visit as its dotted path with a printable bit image of
// its value. The wire round-trip tests compare two images; the fault pins
// hash one.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/experiment.h"

namespace disco::sim::testutil {

/// Walks CellResult::visit recording every key, as its dotted path, with a
/// printable bit image of its value: an integer in decimal, a double as the
/// decimal of its IEEE-754 bit pattern, a gate "on"/"off", a plain object,
/// labeled field list or array nothing.
struct FieldRecorder {
  std::vector<std::pair<std::string, std::string>> fields;
  std::string prefix;

  void record(std::string_view key, std::string value) {
    fields.emplace_back(prefix + std::string(key), std::move(value));
  }
  template <class F>
  void nest(std::string_view key, F&& f) {
    const std::size_t outer = prefix.size();
    prefix.append(key).push_back('.');
    f();
    prefix.resize(outer);
  }
  void operator()(std::string_view key, const std::string& v) { record(key, v); }
  void operator()(std::string_view key, std::uint64_t v) {
    record(key, std::to_string(v));
  }
  void operator()(std::string_view key, double v) {
    record(key, std::to_string(std::bit_cast<std::uint64_t>(v)));
  }
  void operator()(std::string_view key, Scheme v) { record(key, to_string(v)); }
  template <class T>
    requires requires(T& t, FieldRecorder& r) { t.visit(r); }
  void operator()(std::string_view key, T& v) {
    object(key, [&] { v.visit(*this); });
  }
  template <class T, std::size_t N>
  void operator()(std::string_view key, T (&a)[N]) {
    record(key, "");
    nest(key, [&] {
      for (std::size_t i = 0; i < N; ++i) (*this)(std::to_string(i), a[i]);
    });
  }
  template <class F>
  void object(std::string_view key, F&& f) {
    record(key, "");
    nest(key, f);
  }
  template <class F>
  void object(std::string_view key, bool gate, F&& f) {
    record(key, gate ? "on" : "off");
    nest(key, f);
  }
  void computed(std::string_view key, double v) { (*this)(key, v); }
  void transport(std::string_view key, const std::string& v) { (*this)(key, v); }
};

/// The field image of `r`.
inline std::vector<std::pair<std::string, std::string>> field_image(
    const CellResult& r) {
  FieldRecorder rec;
  // The recorder only reads; the field list is non-const to serve decoding.
  const_cast<CellResult&>(r).visit(rec);
  return std::move(rec.fields);
}

}  // namespace disco::sim::testutil
