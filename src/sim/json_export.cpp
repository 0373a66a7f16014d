#include "sim/json_export.h"

#include <charconv>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "sim/wire.h"

namespace disco::sim {
namespace {

/// Walks CellResult::visit into one JSON object: labeled field lists
/// (NocStats, CacheStats, Accumulator, Histogram) become nested objects and
/// C arrays JSON arrays.
class JsonWriter {
 public:
  JsonWriter(std::string& out, bool transport)
      : out_(out), transport_(transport) {}

  template <class T>
  void operator()(const char* name, T& v) {
    key(name);
    value(v);
  }
  template <class F>
  void object(const char* name, F&& fields) {
    key(name);
    open_object(fields);
  }
  template <class F>
  void object(const char* name, bool gate, F&& fields) {
    if (gate) object(name, fields);
  }
  void computed(const char* name, double v) { (*this)(name, v); }
  void transport(const char* name, const std::string& v) {
    if (transport_) (*this)(name, v);
  }

 private:
  // Keys appear only inside objects, so a member is the first exactly when
  // the object's '{' comes right before it.
  void key(const char* name) {
    if (out_.back() != '{') out_.push_back(',');
    key_ = name;
    wire::append_json_string(out_, name);
    out_.push_back(':');
  }
  void value(const std::string& v) { wire::append_json_string(out_, v); }
  void value(Scheme v) { wire::append_json_string(out_, to_string(v)); }
  void value(std::uint64_t v) { number(v); }
  // The shortest decimal that parses back to the same bits: -0.0, 0.1+0.2
  // and sums past 1e6 survive exactly.
  void value(double v) {
    if (!std::isfinite(v))
      throw std::invalid_argument(std::string("json: non-finite value for ") +
                                  key_);
    number(v);
  }
  template <class T>
  void number(T v) {
    char buf[32];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  }
  template <class T>
    requires requires(T& t, JsonWriter& w) { t.visit(w); }
  void value(T& v) {
    open_object([&] { v.visit(*this); });
  }
  template <class T, std::size_t N>
  void value(T (&a)[N]) {
    out_.push_back('[');
    for (std::size_t i = 0; i < N; ++i) {
      if (i > 0) out_.push_back(',');
      value(a[i]);
    }
    out_.push_back(']');
  }
  template <class F>
  void open_object(F&& fields) {
    out_.push_back('{');
    fields();
    out_.push_back('}');
  }

  std::string& out_;
  const bool transport_;
  const char* key_ = "";
};

}  // namespace

void append_json(std::string& out, const CellResult& result, bool transport) {
  out.push_back('{');
  JsonWriter w(out, transport);
  // The writer only reads; the field list is non-const to serve decoding.
  const_cast<CellResult&>(result).visit(w);
  out.push_back('}');
}

void write_json(std::ostream& os, const CellResult& result) {
  std::string out;
  append_json(out, result, false);
  os << out << "\n";
}

void write_json(std::ostream& os, const std::vector<CellResult>& results) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    out += "  ";
    append_json(out, results[i], false);
    if (i + 1 < results.size()) out += ",";
    out += "\n";
  }
  os << out << "]\n";
}

}  // namespace disco::sim
