#include "common/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

namespace stormtune {

bool Json::as_bool() const {
  STORMTUNE_REQUIRE(is_bool(), "Json: not a bool");
  return std::get<bool>(value_);
}

double Json::as_number() const {
  STORMTUNE_REQUIRE(is_number(), "Json: not a number");
  return std::get<double>(value_);
}

std::int64_t Json::as_int() const {
  const double d = as_number();
  // Magnitude guard before llround: llround outside long long's range is
  // undefined behavior.
  STORMTUNE_REQUIRE(std::abs(d) < 9.2e18, "Json: number is not integral");
  const double r = static_cast<double>(std::llround(d));
  STORMTUNE_REQUIRE(std::abs(d - r) < 1e-9, "Json: number is not integral");
  return static_cast<std::int64_t>(r);
}

const std::string& Json::as_string() const {
  STORMTUNE_REQUIRE(is_string(), "Json: not a string");
  return std::get<std::string>(value_);
}

const JsonArray& Json::as_array() const {
  STORMTUNE_REQUIRE(is_array(), "Json: not an array");
  return std::get<JsonArray>(value_);
}

JsonArray& Json::as_array() {
  STORMTUNE_REQUIRE(is_array(), "Json: not an array");
  return std::get<JsonArray>(value_);
}

const JsonObject& Json::as_object() const {
  STORMTUNE_REQUIRE(is_object(), "Json: not an object");
  return std::get<JsonObject>(value_);
}

JsonObject& Json::as_object() {
  STORMTUNE_REQUIRE(is_object(), "Json: not an object");
  return std::get<JsonObject>(value_);
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  STORMTUNE_REQUIRE(it != obj.end(), "Json: missing key '" + key + "'");
  return it->second;
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = JsonObject{};
  return as_object()[key];
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

const Json& Json::at(std::size_t index) const {
  const auto& arr = as_array();
  STORMTUNE_REQUIRE(index < arr.size(), "Json: array index out of range");
  return arr[index];
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  STORMTUNE_REQUIRE(false, "Json: size() on non-container");
  return 0;
}

namespace {

void escape_to(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void number_to(std::string& out, double d) {
  out += Json::number_to_string(d);
}

}  // namespace

std::string Json::number_to_string(double d) {
  STORMTUNE_REQUIRE(std::isfinite(d), "Json: cannot serialize non-finite");
  // Negative zero must keep its sign bit through a round trip; the integer
  // fast path below would collapse it to "0".
  if (d == 0.0 && std::signbit(d)) return "-0";
  // Range check BEFORE llround: llround of a value outside long long's
  // range is undefined behavior, so the magnitude guard must short-circuit
  // first. 1e15 < 2^53, so every integer that passes is exact in double.
  if (std::abs(d) < 1e15 && d == static_cast<double>(std::llround(d))) {
    return std::to_string(std::llround(d));
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  return buf;
}

std::string Json::dump(int indent) const {
  std::string out;
  // Recursive lambda over the variant.
  auto rec = [&](auto&& self, const Json& j, int depth) -> void {
    const std::string nl = indent > 0 ? "\n" : "";
    const std::string pad =
        indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ')
                   : "";
    const std::string pad_close =
        indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ')
                   : "";
    if (j.is_null()) {
      out += "null";
    } else if (j.is_bool()) {
      out += j.as_bool() ? "true" : "false";
    } else if (j.is_number()) {
      number_to(out, j.as_number());
    } else if (j.is_string()) {
      escape_to(out, j.as_string());
    } else if (j.is_array()) {
      const auto& arr = j.as_array();
      if (arr.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        out += (i ? "," + nl : nl) + pad;
        self(self, arr[i], depth + 1);
      }
      out += nl + pad_close + ']';
    } else {
      const auto& obj = j.as_object();
      if (obj.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj) {
        out += (first ? nl : "," + nl) + pad;
        first = false;
        escape_to(out, k);
        out += indent > 0 ? ": " : ":";
        self(self, v, depth + 1);
      }
      out += nl + pad_close + '}';
    }
  };
  rec(rec, *this, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse_document() {
    Json j = parse_value();
    skip_ws();
    STORMTUNE_REQUIRE(pos_ == text_.size(), "Json: trailing characters");
    return j;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    STORMTUNE_REQUIRE(pos_ < text_.size(), "Json: unexpected end of input");
    return text_[pos_];
  }

  char get() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    STORMTUNE_REQUIRE(get() == c,
                      std::string("Json: expected '") + c + "'");
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n]) ++n;
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json parse_value() {
    // Guard the recursive descent: pathological nesting would otherwise
    // overflow the stack long before exhausting memory.
    STORMTUNE_REQUIRE(depth_ < kMaxDepth, "Json: nesting too deep");
    ++depth_;
    const Json v = parse_value_inner();
    --depth_;
    return v;
  }

  Json parse_value_inner() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        STORMTUNE_REQUIRE(consume_literal("true"), "Json: bad literal");
        return Json(true);
      case 'f':
        STORMTUNE_REQUIRE(consume_literal("false"), "Json: bad literal");
        return Json(false);
      case 'n':
        STORMTUNE_REQUIRE(consume_literal("null"), "Json: bad literal");
        return Json(nullptr);
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      get();
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      // A repeated key would silently keep only its last value.
      STORMTUNE_REQUIRE(!obj.contains(key),
                        "Json: duplicate key '" + key + "' in object");
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = get();
      if (c == '}') break;
      STORMTUNE_REQUIRE(c == ',', "Json: expected ',' or '}' in object");
    }
    return Json(std::move(obj));
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      get();
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = get();
      if (c == ']') break;
      STORMTUNE_REQUIRE(c == ',', "Json: expected ',' or ']' in array");
    }
    return Json(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string s;
    while (true) {
      const char c = get();
      if (c == '"') break;
      if (c == '\\') {
        const char e = get();
        switch (e) {
          case '"': s += '"'; break;
          case '\\': s += '\\'; break;
          case '/': s += '/'; break;
          case 'n': s += '\n'; break;
          case 'r': s += '\r'; break;
          case 't': s += '\t'; break;
          case 'b': s += '\b'; break;
          case 'f': s += '\f'; break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = get();
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else STORMTUNE_REQUIRE(false, "Json: bad \\u escape");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported —
            // optimizer state never contains them).
            if (code < 0x80) {
              s += static_cast<char>(code);
            } else if (code < 0x800) {
              s += static_cast<char>(0xC0 | (code >> 6));
              s += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              s += static_cast<char>(0xE0 | (code >> 12));
              s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              s += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: STORMTUNE_REQUIRE(false, "Json: bad escape");
        }
      } else {
        s += c;
      }
    }
    return s;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') get();
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    STORMTUNE_REQUIRE(pos_ > start, "Json: invalid number");
    const std::string tok = text_.substr(start, pos_ - start);
    // strtod instead of stod: stod throws out_of_range on ERANGE, which
    // glibc also reports for subnormal results — but denormals are valid
    // doubles and must round-trip (Json::number_to_string emits them).
    // Only genuine overflow (a non-finite result) is rejected.
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    STORMTUNE_REQUIRE(end == tok.c_str() + tok.size() && !tok.empty(),
                      "Json: invalid number '" + tok + "'");
    STORMTUNE_REQUIRE(std::isfinite(d),
                      "Json: number out of range '" + tok + "'");
    return Json(d);
  }

  static constexpr std::size_t kMaxDepth = 256;

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) {
  return Parser(text).parse_document();
}

}  // namespace stormtune
