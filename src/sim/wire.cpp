#include "sim/wire.h"

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

#include "sim/json_export.h"

namespace disco::sim::wire {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("wire: " + what);
}

// --- scanner ---------------------------------------------------------------

struct Scanner {
  std::string_view s;
  std::size_t pos = 0;

  void skip_ws() {
    while (pos < s.size() &&
           (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' || s[pos] == '\r'))
      ++pos;
  }
  char peek() {
    if (pos >= s.size()) fail("unexpected end of input");
    return s[pos];
  }
  void expect(char c) {
    if (!take(c))
      fail(std::string("expected '") + c + "' at offset " + std::to_string(pos));
  }
  bool take(char c) {
    if (pos >= s.size() || s[pos] != c) return false;
    ++pos;
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= s.size()) fail("unterminated string");
      char c = s[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos >= s.size()) fail("unterminated escape");
      const char e = s[pos++];
      static constexpr std::string_view kEscapes = "\"\\/bfnrt";
      static constexpr std::string_view kChars = "\"\\/\b\f\n\r\t";
      if (const std::size_t k = kEscapes.find(e); k != std::string_view::npos) {
        out.push_back(kChars[k]);
        continue;
      }
      unsigned v = 0;
      const char* hex = s.data() + pos;
      if (e != 'u' || pos + 4 > s.size() ||
          std::from_chars(hex, hex + 4, v, 16).ptr != hex + 4)
        fail(std::string("bad escape \\") + e);
      pos += 4;
      // The encoder only ever emits \u00XX (control bytes); tolerate the
      // full BMP by truncating — nothing we wrote can hit that path.
      out.push_back(static_cast<char>(v & 0xFF));
    }
  }

  // A JSON number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, kept as
  // its token: only the field it lands in knows its type.
  std::string parse_number() {
    const std::size_t start = pos;
    auto digits = [&] {
      const std::size_t from = pos;
      while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') ++pos;
      if (pos == from) fail("expected digit at offset " + std::to_string(pos));
    };
    take('-');
    if (!take('0')) digits();
    if (take('.')) digits();
    if (take('e') || take('E')) {
      if (!take('+')) take('-');
      digits();
    }
    return std::string(s.substr(start, pos - start));
  }

  /// The comma-separated items of an object or array, after its opening
  /// bracket, through `close`.
  template <class F>
  void parse_items(char close, F&& item) {
    skip_ws();
    if (take(close)) return;
    do {
      item();
      skip_ws();
    } while (take(','));
    expect(close);
  }

  Value parse_value(unsigned depth) {
    if (depth > 8) fail("nesting too deep");
    skip_ws();
    Value v;
    if (take('{')) {
      v.kind = Value::Kind::Obj;
      parse_items('}', [&] {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.obj.emplace_back(std::move(key), parse_value(depth + 1));
      });
    } else if (take('[')) {
      v.kind = Value::Kind::Arr;
      parse_items(']', [&] { v.arr.push_back(parse_value(depth + 1)); });
    } else if (peek() == '"') {
      v.kind = Value::Kind::Str;
      v.str = parse_string();
    } else {
      v.str = parse_number();
    }
    return v;
  }
};

/// A number token as a `T`. The whole token must parse: an integer field
/// rejects 1.5, -1 and 1e3, a double field an out-of-range exponent.
template <class T>
T number(const Value& v, const std::string& field) {
  if (v.kind != Value::Kind::Num) fail("wrong kind for field " + field);
  T out{};
  const char* end = v.str.data() + v.str.size();
  const auto [ptr, ec] = std::from_chars(v.str.data(), end, out);
  if (ec != std::errc{} || ptr != end)
    fail("bad number " + v.str + " for field " + field);
  return out;
}

/// Walks CellResult::visit over the nested objects json_export writes. An
/// absent gated object decodes as gate off with default members.
struct Decoder {
  const Value* cur;
  std::string path;  ///< dotted path of the member being read, for errors

  const Value& as(const Value& v, Value::Kind kind) const {
    if (v.kind != kind) fail("wrong kind for field " + path);
    return v;
  }
  const Value& present(const Value* v) const {
    if (v == nullptr) fail("missing field " + path);
    return *v;
  }
  /// Runs `f` on member `name` of the current object (null when absent),
  /// with `path` naming it.
  template <class F>
  void member(std::string_view name, F&& f) {
    const std::size_t outer = path.size();
    path.append(outer > 0 ? "." : "").append(name);
    f(cur->find(name));
    path.resize(outer);
  }
  template <class F>
  void within(const Value& v, F&& fields) {
    const Value* outer = std::exchange(cur, &as(v, Value::Kind::Obj));
    fields();
    cur = outer;
  }

  void read(const Value& v, std::string& out) const {
    out = as(v, Value::Kind::Str).str;
  }
  void read(const Value& v, std::uint64_t& out) const {
    out = number<std::uint64_t>(v, path);
  }
  void read(const Value& v, double& out) const { out = number<double>(v, path); }
  void read(const Value& v, Scheme& out) const {
    const auto s = scheme_from_name(as(v, Value::Kind::Str).str);
    if (!s) fail("unknown scheme in field " + path);
    out = *s;
  }
  template <class T>
    requires requires(T& t, Decoder& d) { t.visit(d); }
  void read(const Value& v, T& out) {
    within(v, [&] { out.visit(*this); });
  }
  template <class T, std::size_t N>
  void read(const Value& v, T (&a)[N]) {
    if (as(v, Value::Kind::Arr).arr.size() != N)
      fail("wrong length for array " + path);
    for (std::size_t i = 0; i < N; ++i) read(v.arr[i], a[i]);
  }

  template <class T>
  void operator()(std::string_view name, T& v) {
    member(name, [&](const Value* m) { read(present(m), v); });
  }
  template <class F>
  void object(std::string_view name, F&& fields) {
    member(name, [&](const Value* m) { within(present(m), fields); });
  }
  template <class F>
  void object(std::string_view name, bool& gate, F&& fields) {
    member(name, [&](const Value* m) {
      gate = m != nullptr;
      if (gate) within(*m, fields);
    });
  }
  void computed(std::string_view, double) const {}
  void transport(std::string_view name, std::string& v) { (*this)(name, v); }
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::Obj) return nullptr;
  for (const auto& [k, v] : obj)
    if (k == key) return &v;
  return nullptr;
}

std::uint64_t Value::num_or(std::string_view key, std::uint64_t dflt) const {
  const Value* v = find(key);
  return v != nullptr && v->kind == Kind::Num
             ? number<std::uint64_t>(*v, std::string(key))
             : dflt;
}

std::string Value::str_or(std::string_view key, std::string_view dflt) const {
  const Value* v = find(key);
  return v != nullptr && v->kind == Kind::Str ? v->str : std::string(dflt);
}

Value parse_object(std::string_view text) {
  Scanner sc{text};
  sc.skip_ws();
  if (sc.peek() != '{') fail("expected an object");
  Value v = sc.parse_value(0);
  sc.skip_ws();
  if (sc.pos != text.size()) fail("trailing garbage after object");
  return v;
}

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string encode_result(const CellResult& r) {
  std::string out;
  append_json(out, r, true);
  return out;
}

CellResult decode_result(const Value& obj) {
  if (obj.kind != Value::Kind::Obj) fail("result is not an object");
  CellResult r;
  Decoder dec{&obj, {}};
  r.visit(dec);
  return r;
}

}  // namespace disco::sim::wire
