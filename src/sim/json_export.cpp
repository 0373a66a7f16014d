#include "sim/json_export.h"

#include <ostream>

#include "sim/wire.h"

namespace disco::sim {
namespace {

/// Walks CellResult::visit into one JSON object. Numbers use the stream's
/// formatting; gated objects (fault, hard_fault, invariants) appear only
/// when their gate is set, so plain runs keep the output of older builds.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  void operator()(const char* name, const std::string& v) {
    key(name);
    std::string quoted;
    wire::append_json_string(quoted, v);
    os_ << quoted;
  }
  void operator()(const char* name, std::uint64_t v) {
    key(name);
    os_ << v;
  }
  void operator()(const char* name, double v) {
    key(name);
    os_ << v;
  }
  void operator()(const char* name, Scheme v) {
    key(name);
    os_ << '"' << to_string(v) << '"';
  }
  template <class F>
  void object(const char* name, F&& fields) {
    key(name);
    os_ << '{';
    first_ = true;
    fields();
    os_ << '}';
    first_ = false;
  }
  template <class F>
  void object(const char* name, bool gate, F&& fields) {
    if (gate) object(name, fields);
  }
  void computed(const char* name, double v) { (*this)(name, v); }
  void transport(const char*, const std::string&) {}

 private:
  void key(const char* name) {
    if (!first_) os_ << ',';
    first_ = false;
    os_ << '"' << name << "\":";
  }

  std::ostream& os_;
  bool first_ = true;
};

void write_fields(std::ostream& os, const CellResult& r) {
  os << '{';
  JsonWriter w(os);
  // The writer only reads; the field list is non-const to serve decoding.
  const_cast<CellResult&>(r).visit(w);
  os << '}';
}

}  // namespace

void write_json(std::ostream& os, const CellResult& result) {
  write_fields(os, result);
  os << "\n";
}

void write_json(std::ostream& os, const std::vector<CellResult>& results) {
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << "  ";
    write_fields(os, results[i]);
    if (i + 1 < results.size()) os << ",";
    os << "\n";
  }
  os << "]\n";
}

}  // namespace disco::sim
