#include "sim/wire.h"

#include <bit>
#include <cstdio>
#include <string>
#include <stdexcept>

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
    if (pos >= s.size() || s[pos] != c)
      fail(std::string("expected '") + c + "' at offset " + std::to_string(pos));
    ++pos;
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
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos + 4 > s.size()) fail("truncated \\u escape");
          unsigned v = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s[pos++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The encoder only ever emits \u00XX (control bytes); tolerate the
          // full BMP by truncating — nothing we wrote can hit that path.
          out.push_back(static_cast<char>(v & 0xFF));
          break;
        }
        default: fail(std::string("unknown escape \\") + e);
      }
    }
  }

  std::uint64_t parse_number() {
    if (pos >= s.size() || s[pos] < '0' || s[pos] > '9')
      fail("expected number at offset " + std::to_string(pos));
    std::uint64_t v = 0;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
      const std::uint64_t d = static_cast<std::uint64_t>(s[pos] - '0');
      // A bit-flipped payload can splice digits into a number that no
      // encoder ever produced; reject overflow instead of wrapping quietly.
      if (v > (UINT64_MAX - d) / 10)
        fail("number overflow at offset " + std::to_string(pos));
      v = v * 10 + d;
      ++pos;
    }
    return v;
  }

  Value parse_value(unsigned depth) {
    if (depth > 8) fail("nesting too deep");
    skip_ws();
    Value v;
    const char c = peek();
    if (c == '{') {
      v = parse_obj(depth);
    } else if (c == '"') {
      v.kind = Value::Kind::Str;
      v.str = parse_string();
    } else {
      v.kind = Value::Kind::Num;
      v.num = parse_number();
    }
    return v;
  }

  Value parse_obj(unsigned depth) {
    Value v;
    v.kind = Value::Kind::Obj;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      Value member = parse_value(depth + 1);
      v.obj.emplace_back(std::move(key), std::move(member));
      skip_ws();
      const char t = peek();
      if (t == ',') {
        ++pos;
        continue;
      }
      expect('}');
      return v;
    }
  }
};

// --- CellResult codec ---------------------------------------------------------
//
// Both walk CellResult::visit. Keys of nested objects are flattened to
// "object.key"; a gate travels as "object.enabled"; every member travels
// whatever its gate.

struct Encoder {
  std::string out;
  std::string prefix;

  void key(const char* name) {
    out.push_back(out.empty() ? '{' : ',');
    append_json_string(out, prefix + name);
    out.push_back(':');
  }
  void num(const char* name, std::uint64_t v) {
    key(name);
    out += std::to_string(v);
  }
  void operator()(const char* name, const std::string& v) {
    key(name);
    append_json_string(out, v);
  }
  void operator()(const char* name, std::uint64_t v) { num(name, v); }
  // Bit pattern, not decimal text: exact round trip by construction.
  void operator()(const char* name, double v) {
    num(name, std::bit_cast<std::uint64_t>(v));
  }
  void operator()(const char* name, Scheme v) {
    num(name, static_cast<std::uint64_t>(v));
  }
  template <class F>
  void object(const char* name, F&& fields) {
    prefix = std::string(name) + ".";
    fields();
    prefix.clear();
  }
  template <class F>
  void object(const char* name, bool gate, F&& fields) {
    object(name, [&] {
      num("enabled", gate ? 1 : 0);
      fields();
    });
  }
  void computed(const char*, double) {}
  void transport(const char* name, const std::string& v) { (*this)(name, v); }
};

struct Decoder {
  const Value& obj;
  std::string prefix;

  const Value& get(const char* name, Value::Kind kind) const {
    const std::string key = prefix + name;
    const Value* v = obj.find(key);
    if (v == nullptr) fail("missing field " + key);
    if (v->kind != kind) fail("wrong kind for field " + key);
    return *v;
  }
  std::uint64_t num(const char* name) const {
    return get(name, Value::Kind::Num).num;
  }
  void operator()(const char* name, std::string& v) const {
    v = get(name, Value::Kind::Str).str;
  }
  void operator()(const char* name, std::uint64_t& v) const { v = num(name); }
  void operator()(const char* name, double& v) const {
    v = std::bit_cast<double>(num(name));
  }
  void operator()(const char* name, Scheme& v) const {
    const std::uint64_t n = num(name);
    if (n > static_cast<std::uint64_t>(Scheme::Ideal))
      fail("scheme value out of range");
    v = static_cast<Scheme>(n);
  }
  template <class F>
  void object(const char* name, F&& fields) {
    prefix = std::string(name) + ".";
    fields();
    prefix.clear();
  }
  template <class F>
  void object(const char* name, bool& gate, F&& fields) {
    object(name, [&] {
      gate = num("enabled") != 0;
      fields();
    });
  }
  void computed(const char*, double) const {}
  void transport(const char* name, std::string& v) const { (*this)(name, v); }
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
  return v != nullptr && v->kind == Kind::Num ? v->num : dflt;
}

std::string Value::str_or(std::string_view key, std::string_view dflt) const {
  const Value* v = find(key);
  return v != nullptr && v->kind == Kind::Str ? v->str : std::string(dflt);
}

Value parse_object(std::string_view text) {
  Scanner sc{text};
  sc.skip_ws();
  Value v = sc.parse_obj(0);
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
  Encoder enc;
  // The encoder only reads; the field list is non-const to serve decoding.
  const_cast<CellResult&>(r).visit(enc);
  enc.out.push_back('}');
  return enc.out;
}

CellResult decode_result(const Value& obj) {
  if (obj.kind != Value::Kind::Obj) fail("result is not an object");
  CellResult r;
  Decoder dec{obj, {}};
  r.visit(dec);
  return r;
}

}  // namespace disco::sim::wire
