#pragma once
// A small JSON value for the suite's own files: the tally oracle, the
// records children send back over their pipe, and the --out result file.
// It parses what it writes (objects, arrays, strings, numbers, booleans,
// null); it is not a general-purpose JSON library.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace ffis::suite {

class Json {
 public:
  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() = default;
  Json(bool b) : v_(b) {}
  Json(double d) : v_(d) {}
  Json(int n) : v_(static_cast<double>(n)) {}
  Json(std::uint64_t n) : v_(static_cast<double>(n)) {}
  Json(const char* s) : v_(std::string(s)) {}
  Json(std::string s) : v_(std::move(s)) {}
  Json(Array a) : v_(std::make_shared<Array>(std::move(a))) {}
  Json(Object o) : v_(std::make_shared<Object>(std::move(o))) {}

  [[nodiscard]] double num() const { return get<double>("number"); }
  [[nodiscard]] std::uint64_t count() const { return static_cast<std::uint64_t>(num()); }
  [[nodiscard]] const std::string& str() const { return get<std::string>("string"); }
  [[nodiscard]] const Array& arr() const { return *get<ArrayPtr>("array"); }
  [[nodiscard]] const Object& obj() const { return *get<ObjectPtr>("object"); }

  /// Object member access; throws when absent so a malformed file is named.
  [[nodiscard]] const Json& at(const std::string& key) const {
    const auto& o = obj();
    const auto it = o.find(key);
    if (it == o.end()) throw std::runtime_error("json: missing key '" + key + "'");
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const { return obj().count(key) != 0; }

  [[nodiscard]] std::string dump() const {
    std::string out;
    write(out);
    return out;
  }

  [[nodiscard]] static Json parse(std::string_view text) {
    Parser p{text};
    Json value = p.value();
    p.skip_ws();
    if (p.pos != text.size()) p.fail("trailing characters");
    return value;
  }

 private:
  using ArrayPtr = std::shared_ptr<Array>;
  using ObjectPtr = std::shared_ptr<Object>;

  template <class T>
  const T& get(const char* what) const {
    if (const T* p = std::get_if<T>(&v_)) return *p;
    throw std::runtime_error(std::string("json: value is not a ") + what);
  }

  static void write_string(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        static constexpr char kHex[] = "0123456789abcdef";
        out += "\\u00";
        out += kHex[(c >> 4) & 0xf];
        out += kHex[c & 0xf];
      } else {
        out += c;
      }
    }
    out += '"';
  }

  void write(std::string& out) const {
    if (std::holds_alternative<std::monostate>(v_)) {
      out += "null";
    } else if (const bool* b = std::get_if<bool>(&v_)) {
      out += *b ? "true" : "false";
    } else if (const double* d = std::get_if<double>(&v_)) {
      if (!std::isfinite(*d)) {
        out += "null";  // JSON has no NaN or infinity
        return;
      }
      // Shortest representation that round-trips: every measured digit.
      char buf[64];
      const auto res = std::to_chars(buf, buf + sizeof buf, *d);
      out.append(buf, res.ptr);
    } else if (const std::string* s = std::get_if<std::string>(&v_)) {
      write_string(out, *s);
    } else if (const ArrayPtr* a = std::get_if<ArrayPtr>(&v_)) {
      out += '[';
      for (std::size_t i = 0; i < (*a)->size(); ++i) {
        if (i != 0) out += ',';
        (**a)[i].write(out);
      }
      out += ']';
    } else {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : *std::get<ObjectPtr>(v_)) {
        if (!first) out += ',';
        first = false;
        write_string(out, k);
        out += ':';
        v.write(out);
      }
      out += '}';
    }
  }

  struct Parser {
    std::string_view s;
    std::size_t pos = 0;

    [[noreturn]] void fail(const std::string& why) const {
      throw std::runtime_error("json: " + why + " at offset " + std::to_string(pos));
    }
    void skip_ws() {
      while (pos < s.size() && (s[pos] == ' ' || s[pos] == '\n' || s[pos] == '\r' ||
                                s[pos] == '\t')) {
        ++pos;
      }
    }
    char peek() {
      skip_ws();
      if (pos >= s.size()) fail("unexpected end");
      return s[pos];
    }
    void expect(char c) {
      if (peek() != c) fail(std::string("expected '") + c + "'");
      ++pos;
    }
    bool literal(std::string_view word) {
      if (s.substr(pos, word.size()) != word) return false;
      pos += word.size();
      return true;
    }
    std::string string() {
      expect('"');
      std::string out;
      while (pos < s.size() && s[pos] != '"') {
        char c = s[pos++];
        if (c == '\\') {
          if (pos >= s.size()) fail("bad escape");
          c = s[pos++];
          switch (c) {
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u': {
              if (pos + 4 > s.size()) fail("bad \\u escape");
              unsigned code = 0;
              const auto res = std::from_chars(s.data() + pos, s.data() + pos + 4, code, 16);
              if (res.ptr != s.data() + pos + 4 || code > 0x7f) fail("unsupported \\u escape");
              out += static_cast<char>(code);
              pos += 4;
              break;
            }
            default: out += c;
          }
        } else {
          out += c;
        }
      }
      if (pos >= s.size()) fail("unterminated string");
      ++pos;
      return out;
    }
    Json value() {
      const char c = peek();
      if (c == '{') {
        ++pos;
        Object o;
        if (peek() == '}') {
          ++pos;
          return Json(std::move(o));
        }
        for (;;) {
          std::string key = string();
          expect(':');
          o[std::move(key)] = value();
          if (peek() == ',') {
            ++pos;
            continue;
          }
          expect('}');
          return Json(std::move(o));
        }
      }
      if (c == '[') {
        ++pos;
        Array a;
        if (peek() == ']') {
          ++pos;
          return Json(std::move(a));
        }
        for (;;) {
          a.push_back(value());
          if (peek() == ',') {
            ++pos;
            continue;
          }
          expect(']');
          return Json(std::move(a));
        }
      }
      if (c == '"') return Json(string());
      if (literal("true")) return Json(true);
      if (literal("false")) return Json(false);
      if (literal("null")) return Json();
      double d = 0.0;
      const auto res = std::from_chars(s.data() + pos, s.data() + s.size(), d);
      if (res.ec != std::errc{}) fail("bad value");
      pos = static_cast<std::size_t>(res.ptr - s.data());
      return Json(d);
    }
  };

  std::variant<std::monostate, bool, double, std::string, ArrayPtr, ObjectPtr> v_;
};

}  // namespace ffis::suite
