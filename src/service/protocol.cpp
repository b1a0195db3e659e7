#include "service/protocol.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace prvm {

const JsonValue* JsonValue::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

// One value as the scanner saw it. A string views the text, or the caller's
// buffer when it held escapes; a container reports only its kind.
struct JsonToken {
  JsonValue::Kind kind = JsonValue::Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string_view string;
};

// Recursive-descent JSON parser, the codec's one JSON grammar. Depth-capped
// so hostile input cannot blow the stack; numbers are parsed as double
// (protocol integers are small). Every value goes through value():
// parse_json() builds a DOM with it, and parse_request() scans the top-level
// members with it, keeping views into the line and storing nothing else.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    JsonValue value;
    if (!build(0, value) || !at_end()) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    return value;
  }

  /// Walks a whole document. The members of a top-level object go one by
  /// one to on_member(key, depth), which must consume the value with
  /// value() or skip(); any other document is validated into `top`.
  template <typename OnMember>
  bool scan(JsonToken& top, OnMember&& on_member) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '{') {
      top.kind = JsonValue::Kind::kObject;
      if (!members(0, on_member)) return false;
    } else if (!value(0, top, nullptr, nullptr)) {
      return false;
    }
    return at_end();
  }

  /// Walks one value. A scalar lands in `token`; an escaped string is
  /// decoded into `unescaped` (or only validated without one). A container
  /// is validated, and built into `dom` when one is given.
  bool value(int depth, JsonToken& token, std::string* unescaped, JsonValue* dom) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case 'n':
        token.kind = JsonValue::Kind::kNull;
        return literal("null");
      case 't':
        token.kind = JsonValue::Kind::kBool;
        token.boolean = true;
        return literal("true");
      case 'f':
        token.kind = JsonValue::Kind::kBool;
        token.boolean = false;
        return literal("false");
      case '"':
        token.kind = JsonValue::Kind::kString;
        return string(token.string, unescaped);
      case '{':
        token.kind = JsonValue::Kind::kObject;
        return members(depth, [&](std::string_view key, int child) {
          if (dom == nullptr) return skip(child);
          dom->object.emplace_back(std::string(key), JsonValue{});
          return build(child, dom->object.back().second);
        });
      case '[':
        token.kind = JsonValue::Kind::kArray;
        return elements(depth, [&](int child) {
          if (dom == nullptr) return skip(child);
          dom->array.emplace_back();
          return build(child, dom->array.back());
        });
      default: {
        if (c == '-' || (c >= '0' && c <= '9')) {
          const auto [ptr, ec] =
              std::from_chars(text_.data() + pos_, text_.data() + text_.size(), token.number);
          if (ec != std::errc{} || !std::isfinite(token.number)) return fail("invalid number");
          pos_ = static_cast<std::size_t>(ptr - text_.data());
          token.kind = JsonValue::Kind::kNumber;
          return true;
        }
        return fail("unexpected character");
      }
    }
  }

  const std::string& error() const { return error_; }

  /// Validates one value and keeps nothing of it.
  bool skip(int depth) {
    JsonToken ignored;
    return value(depth, ignored, nullptr, nullptr);
  }

 private:
  static constexpr int kMaxDepth = 16;

  bool build(int depth, JsonValue& out) {
    JsonToken token;
    if (!value(depth, token, &out.string, &out)) return false;
    out.kind = token.kind;
    out.boolean = token.boolean;
    out.number = token.number;
    // An escaped string was decoded into out.string already (never to an
    // empty one: every escape yields a byte); a plain one still views the text.
    if (token.kind == JsonValue::Kind::kString && out.string.empty()) {
      out.string.assign(token.string);
    }
    return true;
  }

  // At '{': hands every member to on_member(key, depth + 1). The key views
  // the text, or key_ when it held escapes.
  template <typename OnMember>
  bool members(int depth, OnMember&& on_member) {
    ++pos_;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string_view key;
      if (pos_ >= text_.size() || text_[pos_] != '"' || !string(key, &key_)) {
        return fail("expected object key");
      }
      if (!consume(':')) return false;
      if (!on_member(key, depth + 1)) return false;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return consume('}');
    }
  }

  // At '[': hands every element to on_element(depth + 1).
  template <typename OnElement>
  bool elements(int depth, OnElement&& on_element) {
    ++pos_;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      if (!on_element(depth + 1)) return false;
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return consume(']');
    }
  }

  bool at_end() {
    skip_ws();
    return pos_ == text_.size() || fail("trailing characters after JSON document");
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\r' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool fail(std::string_view message) {
    if (error_.empty()) error_ = message;
    return false;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return fail("invalid literal");
  }

  // At the opening quote. Without escapes `out` views the text; otherwise
  // the string is decoded into `unescaped` and `out` views that (with no
  // buffer it is only validated).
  bool string(std::string_view& out, std::string* unescaped) {
    const std::size_t begin = ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        out = text_.substr(begin, pos_++ - begin);
        return true;
      }
      if (c == '\\') break;
      ++pos_;
      if (static_cast<unsigned char>(c) < 0x20) return fail("control character in string");
    }
    if (unescaped != nullptr) unescaped->assign(text_.substr(begin, pos_ - begin));
    const auto put = [unescaped](char c) {
      if (unescaped != nullptr) unescaped->push_back(c);
    };
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        if (unescaped != nullptr) out = *unescaped;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return fail("control character in string");
      if (c != '\\') {
        put(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': put('"'); break;
        case '\\': put('\\'); break;
        case '/': put('/'); break;
        case 'b': put('\b'); break;
        case 'f': put('\f'); break;
        case 'n': put('\n'); break;
        case 'r': put('\r'); break;
        case 't': put('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("invalid \\u escape");
            }
          }
          // Encode as UTF-8 (surrogate pairs are not reassembled; protocol
          // identifiers are ASCII, this just keeps arbitrary input lossless
          // enough to echo back).
          if (code < 0x80) {
            put(static_cast<char>(code));
          } else if (code < 0x800) {
            put(static_cast<char>(0xC0 | (code >> 6)));
            put(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            put(static_cast<char>(0xE0 | (code >> 12)));
            put(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            put(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::string error_;
  std::string key_;  ///< the last escaped object key, decoded
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  return JsonParser(text).parse(error);
}

namespace {

// Appends `s` JSON-quoted: the quotes, the two-character escapes, \u00XX
// for the other control bytes, everything else verbatim.
void append_quoted(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  std::size_t run = 0;  // start of the bytes not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out.push_back('"');
}

template <typename Int>
void append_int(std::string& out, Int value) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, end);
}

}  // namespace

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  append_quoted(out, s);
  return out;
}

namespace {

constexpr std::uint16_t key_bit(RequestKey key) {
  return static_cast<std::uint16_t>(1u << static_cast<int>(key));
}
constexpr std::uint16_t kVm = key_bit(RequestKey::kVm), kType = key_bit(RequestKey::kType),
                        kGroup = key_bit(RequestKey::kGroup), kPm = key_bit(RequestKey::kPm),
                        kCpu = key_bit(RequestKey::kCpu), kCell = key_bit(RequestKey::kCell),
                        kSeq = key_bit(RequestKey::kSeq), kData = key_bit(RequestKey::kData),
                        kOffset = key_bit(RequestKey::kOffset), kEof = key_bit(RequestKey::kEof),
                        kAction = key_bit(RequestKey::kAction);

// One row per RequestOp, in enum order. PRVB1 codes are frozen: append
// only, never renumber — remote cells and routers may run different builds.
// 9-11 were the retired cross-cell group ops; they decode as unknown and are
// never reassigned.
constexpr RequestSchema kSchemas[] = {
    {RequestOp::kPlace, "place", 1, kVm | kType | kGroup, kVm | kType},
    {RequestOp::kRelease, "release", 2, kVm, kVm},
    {RequestOp::kMigrate, "migrate", 3, kVm, kVm},
    {RequestOp::kLookup, "lookup", 4, kVm, kVm},
    {RequestOp::kStats, "stats", 5, 0, 0},
    {RequestOp::kHealth, "health", 6, 0, 0},
    {RequestOp::kMetrics, "metrics", 7, 0, 0},
    {RequestOp::kDrain, "drain", 8, 0, 0},
    {RequestOp::kReplHello, "repl_hello", 12, kSeq, kSeq},
    {RequestOp::kReplSnapshot, "repl_snap", 13, kSeq | kData | kOffset | kEof,
     kSeq | kData | kOffset},
    {RequestOp::kReplFrames, "repl_frames", 14, kSeq | kData, kSeq | kData},
    {RequestOp::kPromote, "promote", 15, kSeq, 0},
    // Exactly one of vm or pm: validate_request checks the pair itself.
    {RequestOp::kUtil, "util", 16, kVm | kPm | kCpu | kCell, kCpu},
    {RequestOp::kRebalance, "rebalance", 17, kAction, 0},
    // An in-process handoff from the planner to the worker
    // (Request::scan_sink), never a wire op: no code, so no wire name.
    {RequestOp::kRebalanceScan, "rebalance_scan", 0, 0, 0},
};

constexpr bool rows_in_enum_order() {
  for (std::size_t i = 0; i < std::size(kSchemas); ++i) {
    if (kSchemas[i].op != static_cast<RequestOp>(i)) return false;
  }
  return true;
}
static_assert(rows_in_enum_order(), "kSchemas is indexed by RequestOp");

constexpr std::string_view kKeyNames[kRequestKeyCount] = {
    "vm", "type", "group", "pm", "cpu", "cell", "seq", "data", "offset", "eof", "action"};

// The RequestKey named `key`, or kRequestKeyCount + 1 for any other member.
std::size_t key_named(std::string_view key) {
  for (std::size_t k = 0; k < kRequestKeyCount; ++k) {
    if (key == kKeyNames[k]) return k;
  }
  return kRequestKeyCount + 1;
}

// A JSON number that a u64 carries exactly (protocol integers stay below
// 1e18, where doubles are still exact enough to tell).
std::optional<std::uint64_t> exact_u64(double number) {
  if (number < 0 || number != std::floor(number) || number > 1e18) return std::nullopt;
  return static_cast<std::uint64_t>(number);
}

std::optional<std::uint64_t> as_u64(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kNumber) return std::nullopt;
  return exact_u64(v.number);
}

// PRVB1's integers as they are, JSON's numbers when exact.
std::optional<std::uint64_t> as_u64(const RequestValue& v) {
  if (v.kind == RequestValue::Kind::kUnsigned) return v.integer;
  if (v.kind != RequestValue::Kind::kNumber) return std::nullopt;
  return exact_u64(v.number);
}

const char* store_u64(const RequestValue& v, std::optional<std::uint64_t>& out,
                      const char* bad) {
  out = as_u64(v);
  return out.has_value() ? nullptr : bad;
}

const char* store_string(const RequestValue& v, std::string& out, const char* bad) {
  if (v.kind != RequestValue::Kind::kString) return bad;
  out = v.string;
  return nullptr;
}

// Stores one present member into `request`; the bad_field message when the
// value has the wrong shape.
const char* store(RequestKey key, const RequestValue& v, Request& request) {
  switch (key) {
    case RequestKey::kVm: {
      const auto id = as_u64(v);
      if (!id.has_value() || *id > 0xFFFFFFFFull) return "\"vm\" must be a 32-bit unsigned integer";
      request.vm_id = *id;
      return nullptr;
    }
    case RequestKey::kType:
      if (v.kind == RequestValue::Kind::kString) {
        request.vm_type_name = v.string;
        return nullptr;
      }
      // An index beyond u32 has no PRVB1 form: wrapped, it would name another type.
      request.vm_type_index = as_u64(v);
      if (!request.vm_type_index.has_value() || *request.vm_type_index > 0xFFFFFFFFull) {
        return "\"type\" must be a type name or catalog index";
      }
      return nullptr;
    case RequestKey::kGroup: return store_string(v, request.group, "\"group\" must be a string");
    case RequestKey::kPm: return store_u64(v, request.pm, "\"pm\" must be an unsigned integer");
    case RequestKey::kCpu:
      if (v.kind != RequestValue::Kind::kNumber || !(v.number >= 0.0) || v.number > 2.0) {
        return "\"cpu\" must be a number in [0, 2]";
      }
      request.cpu = v.number;
      return nullptr;
    case RequestKey::kCell:
      return store_u64(v, request.cell, "\"cell\" must be an unsigned integer");
    case RequestKey::kSeq: return store_u64(v, request.seq, "\"seq\" must be an unsigned integer");
    case RequestKey::kData: return store_string(v, request.data, "\"data\" must be a string");
    case RequestKey::kOffset:
      return store_u64(v, request.offset, "\"offset\" must be an unsigned integer");
    case RequestKey::kEof:
      if (v.kind != RequestValue::Kind::kBool) return "\"eof\" must be a boolean";
      request.eof = v.boolean;
      return nullptr;
    case RequestKey::kAction:
      if (v.kind != RequestValue::Kind::kString) return "\"action\" must be a string";
      if (v.string != "status" && v.string != "trigger" && v.string != "pause" &&
          v.string != "resume") {
        return "\"action\" must be status, trigger, pause or resume";
      }
      request.action = v.string;
      return nullptr;
  }
  return nullptr;
}

// A scanned JSON value as a raw request member.
RequestValue raw_value(const JsonToken& token) {
  RequestValue v{};
  v.boolean = token.boolean;
  v.number = token.number;
  v.string = token.string;
  switch (token.kind) {
    case JsonValue::Kind::kBool: v.kind = RequestValue::Kind::kBool; break;
    case JsonValue::Kind::kNumber: v.kind = RequestValue::Kind::kNumber; break;
    case JsonValue::Kind::kString: v.kind = RequestValue::Kind::kString; break;
    default: v.kind = RequestValue::Kind::kOther;
  }
  return v;
}

}  // namespace

const RequestSchema& request_schema(RequestOp op) {
  return kSchemas[static_cast<std::size_t>(op)];
}

const RequestSchema* wire_op_named(std::string_view name) {
  for (const RequestSchema& row : kSchemas) {
    if (row.code != 0 && name == row.name) return &row;
  }
  return nullptr;
}

const RequestSchema* wire_op_of_code(std::uint8_t code) {
  for (const RequestSchema& row : kSchemas) {
    if (row.code != 0 && row.code == code) return &row;
  }
  return nullptr;
}

const char* to_string(RequestOp op) { return request_schema(op).name; }

const RequestValue* RequestFields::find(RequestKey key) const {
  if (!has(key)) return nullptr;
  const RequestValue& v = values[static_cast<std::size_t>(key)];
  if (v.kind == RequestValue::Kind::kString && v.string.empty()) return nullptr;
  return &v;
}

std::variant<Request, ProtocolError> validate_request(RequestOp op, const RequestFields& fields) {
  const RequestSchema& schema = request_schema(op);
  Request request;
  request.op = op;
  if (op == RequestOp::kUtil) {
    const bool vm = fields.find(RequestKey::kVm) != nullptr;
    const bool pm = fields.find(RequestKey::kPm) != nullptr;
    if (!vm && !pm) return ProtocolError{"missing_field", "util needs \"vm\" or \"pm\""};
    if (vm && pm) return ProtocolError{"bad_field", "util takes exactly one of \"vm\" or \"pm\""};
  }
  // The keys the op reads, in RequestKey order.
  for (unsigned bits = schema.read_keys; bits != 0; bits &= bits - 1) {
    const auto k = static_cast<std::size_t>(std::countr_zero(bits));
    const auto key = static_cast<RequestKey>(k);
    const RequestValue* value = fields.find(key);
    if (value == nullptr) {
      if (!schema.needs(key)) continue;
      return ProtocolError{"missing_field", "missing \"" + std::string(kKeyNames[k]) + "\""};
    }
    if (const char* bad = store(key, *value, request)) return ProtocolError{"bad_field", bad};
  }
  return request;
}

std::variant<Request, ProtocolError> parse_request(std::string_view line) {
  // The transport's LineBuffer enforces the per-connection frame policy
  // (kMaxFrameBytes for client servers, kMaxReplFrameBytes for followers);
  // this is just the absolute backstop.
  if (line.size() > kMaxReplFrameBytes) {
    return ProtocolError{"oversized_frame", "request exceeds frame size limit"};
  }
  // One pass: validate the whole line, keep the first value of each request
  // key (slot kRequestKeyCount is "op"), skip everything else. Strings view
  // the line, or `unescaped` when they held escapes.
  constexpr std::size_t kOpSlot = kRequestKeyCount;
  RequestFields fields;
  JsonToken op;
  bool has_op = false;
  std::string unescaped[kOpSlot + 1];
  JsonParser parser(line);
  JsonToken top;
  const bool parsed = parser.scan(top, [&](std::string_view key, int depth) {
    const std::size_t k = key == "op" ? kOpSlot : key_named(key);
    if (k > kOpSlot || (k == kOpSlot ? has_op : fields.has(static_cast<RequestKey>(k)))) {
      return parser.skip(depth);
    }
    JsonToken token;
    if (!parser.value(depth, token, &unescaped[k], nullptr)) return false;
    if (k == kOpSlot) {
      has_op = true;
      op = token;
    } else {
      fields.set(static_cast<RequestKey>(k)) = raw_value(token);
    }
    return true;
  });
  if (!parsed) return ProtocolError{"bad_json", parser.error()};
  if (top.kind != JsonValue::Kind::kObject) {
    return ProtocolError{"bad_json", "request must be a JSON object"};
  }
  if (!has_op) return ProtocolError{"missing_field", "missing \"op\""};
  if (op.kind != JsonValue::Kind::kString) {
    return ProtocolError{"bad_field", "\"op\" must be a string"};
  }
  const RequestSchema* schema = wire_op_named(op.string);
  if (schema == nullptr) {
    return ProtocolError{"unknown_op", "unknown op \"" + std::string(op.string) + "\""};
  }
  return validate_request(schema->op, fields);
}

std::string encode_request(const Request& request) {
  std::string out;
  out.reserve(64);
  encode_request_into(request, out);
  return out;
}

void encode_request_into(const Request& request, std::string& out) {
  const RequestSchema& schema = request_schema(request.op);
  const auto put_int = [&](RequestKey key, std::uint64_t v) {
    out += ",\"";
    out += kKeyNames[static_cast<std::size_t>(key)];
    out += "\":";
    append_int(out, v);
  };
  const auto put_string = [&](RequestKey key, std::string_view s) {
    if (s.empty() || !schema.reads(key)) return;
    out += ",\"";
    out += kKeyNames[static_cast<std::size_t>(key)];
    out += "\":";
    append_quoted(out, s);
  };
  const auto put_optional = [&](RequestKey key, const std::optional<std::uint64_t>& v) {
    if (v.has_value() && schema.reads(key)) put_int(key, *v);
  };
  out += "{\"op\":";
  append_quoted(out, schema.name);
  // A util names its PM when it has one, its VM otherwise.
  const bool by_pm = schema.reads(RequestKey::kPm) && request.pm.has_value();
  if (schema.reads(RequestKey::kVm) && !by_pm) put_int(RequestKey::kVm, request.vm_id);
  put_optional(RequestKey::kPm, request.pm);
  if (schema.reads(RequestKey::kCpu)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", request.cpu);
    out += ",\"cpu\":";
    out += buf;
  }
  put_string(RequestKey::kAction, request.action);
  if (request.vm_type_name.empty()) {
    put_optional(RequestKey::kType, request.vm_type_index);
  } else {
    put_string(RequestKey::kType, request.vm_type_name);
  }
  put_string(RequestKey::kGroup, request.group);
  put_optional(RequestKey::kCell, request.cell);
  put_optional(RequestKey::kSeq, request.seq);
  put_optional(RequestKey::kOffset, request.offset);
  if (request.eof && schema.reads(RequestKey::kEof)) out += ",\"eof\":true";
  put_string(RequestKey::kData, request.data);
  out += "}\n";
}

std::string encode_response(const Response& response) {
  std::string out;
  out.reserve(96);
  encode_response_into(response, out);
  return out;
}

void encode_response_into(const Response& response, std::string& out) {
  out += response.ok ? "{\"ok\":true" : "{\"ok\":false";
  if (!response.op.empty()) {
    out += ",\"op\":";
    append_quoted(out, response.op);
  }
  if (response.vm.has_value()) {
    out += ",\"vm\":";
    append_int(out, *response.vm);
  }
  if (response.pm.has_value()) {
    out += ",\"pm\":";
    append_int(out, *response.pm);
  }
  if (!response.error.empty()) {
    out += ",\"error\":";
    append_quoted(out, response.error);
  }
  if (!response.message.empty()) {
    out += ",\"message\":";
    append_quoted(out, response.message);
  }
  if (response.retry_after_ms.has_value()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", *response.retry_after_ms);
    out += ",\"retry_after_ms\":";
    out += buf;
  }
  for (const auto& [key, encoded] : response.extra) {
    out += ',';
    append_quoted(out, key);
    out += ':';
    out += encoded;
  }
  out += "}\n";
}

namespace {

void encode_json_into(const JsonValue& value, std::string& out) {
  switch (value.kind) {
    case JsonValue::Kind::kNull: out += "null"; break;
    case JsonValue::Kind::kBool: out += value.boolean ? "true" : "false"; break;
    case JsonValue::Kind::kNumber: {
      // Integers (the common case on this protocol) round-trip without an
      // exponent; anything else takes the shortest %g form.
      if (value.number == std::floor(value.number) && std::abs(value.number) < 1e15) {
        append_int(out, static_cast<long long>(value.number));
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", value.number);
        out += buf;
      }
      break;
    }
    case JsonValue::Kind::kString: append_quoted(out, value.string); break;
    case JsonValue::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : value.object) {
        if (!first) out.push_back(',');
        first = false;
        append_quoted(out, k);
        out.push_back(':');
        encode_json_into(v, out);
      }
      out.push_back('}');
      break;
    }
    case JsonValue::Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const JsonValue& v : value.array) {
        if (!first) out.push_back(',');
        first = false;
        encode_json_into(v, out);
      }
      out.push_back(']');
      break;
    }
  }
}

}  // namespace

std::string encode_json(const JsonValue& value) {
  std::string out;
  encode_json_into(value, out);
  return out;
}

std::optional<Response> parse_response(std::string_view line, std::string* error) {
  const std::optional<JsonValue> doc = parse_json(line, error);
  if (!doc.has_value()) return std::nullopt;
  if (doc->kind != JsonValue::Kind::kObject) {
    if (error != nullptr) *error = "response must be a JSON object";
    return std::nullopt;
  }
  Response response;
  bool saw_ok = false;
  for (const auto& [key, value] : doc->object) {
    if (key == "ok" && value.kind == JsonValue::Kind::kBool) {
      response.ok = value.boolean;
      saw_ok = true;
    } else if (key == "op" && value.kind == JsonValue::Kind::kString) {
      response.op = value.string;
    } else if (key == "vm" && as_u64(value).has_value()) {
      response.vm = as_u64(value);
    } else if (key == "pm" && as_u64(value).has_value()) {
      response.pm = as_u64(value);
    } else if (key == "error" && value.kind == JsonValue::Kind::kString) {
      response.error = value.string;
    } else if (key == "message" && value.kind == JsonValue::Kind::kString) {
      response.message = value.string;
    } else if (key == "retry_after_ms" && value.kind == JsonValue::Kind::kNumber) {
      response.retry_after_ms = value.number;
    } else {
      response.extra.emplace_back(key, encode_json(value));
    }
  }
  if (!saw_ok) {
    if (error != nullptr) *error = "response missing \"ok\"";
    return std::nullopt;
  }
  return response;
}

std::optional<std::variant<Request, ProtocolError>> next_request(LineBuffer& lines) {
  while (const auto frame = lines.next()) {
    if (frame->oversized) {
      return ProtocolError{"oversized_frame", "request exceeds frame size limit"};
    }
    if (!frame->line.empty()) return parse_request(frame->line);
  }
  return std::nullopt;
}

Response protocol_error_response(const ProtocolError& error) {
  Response response;
  response.ok = false;
  response.error = error.code;
  response.message = error.message;
  return response;
}

void LineBuffer::feed(std::string_view bytes) {
  // Drop the consumed prefix: all of it when nothing is pending, otherwise
  // once it dominates the buffer. Frames handed out before stay valid until
  // here, so this is the only place bytes move.
  if (start_ == buffer_.size() || (start_ > 4096 && start_ > buffer_.size() / 2)) {
    buffer_.erase(0, start_);
    scanned_ -= start_;
    start_ = 0;
  }
  buffer_.append(bytes);
}

std::optional<LineBuffer::Frame> LineBuffer::next() {
  while (true) {
    const std::size_t nl = buffer_.find('\n', scanned_);
    if (nl == std::string::npos) {
      scanned_ = buffer_.size();
      if (discarding_) {
        // Keep dropping oversized-frame bytes so the buffer stays bounded.
        start_ = scanned_;
        return std::nullopt;
      }
      if (buffer_.size() - start_ > max_frame_) {
        // Frame already too large and still no newline: report the
        // oversized frame immediately (the peer gets its error in bounded
        // time) and swallow the rest of it until the next newline.
        start_ = scanned_;
        discarding_ = true;
        return Frame{true, {}};
      }
      return std::nullopt;
    }

    const std::string_view line(buffer_.data() + start_, nl - start_);
    start_ = scanned_ = nl + 1;
    if (discarding_) {
      // This newline terminates the already-reported oversized frame.
      discarding_ = false;
      continue;
    }
    if (line.size() > max_frame_) return Frame{true, {}};
    return Frame{false, line};
  }
}

}  // namespace prvm
