#include "service/protocol.hpp"

#include <algorithm>
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

const char* to_string(RequestOp op) {
  switch (op) {
    case RequestOp::kPlace: return "place";
    case RequestOp::kRelease: return "release";
    case RequestOp::kMigrate: return "migrate";
    case RequestOp::kLookup: return "lookup";
    case RequestOp::kStats: return "stats";
    case RequestOp::kHealth: return "health";
    case RequestOp::kMetrics: return "metrics";
    case RequestOp::kDrain: return "drain";
    case RequestOp::kReplHello: return "repl_hello";
    case RequestOp::kReplSnapshot: return "repl_snap";
    case RequestOp::kReplFrames: return "repl_frames";
    case RequestOp::kPromote: return "promote";
    case RequestOp::kUtil: return "util";
    case RequestOp::kRebalance: return "rebalance";
    case RequestOp::kRebalanceScan: return "rebalance_scan";
  }
  return "?";
}

namespace {

// A JsonValue or a JsonToken holding a non-negative integer a u64 carries
// exactly.
template <typename Json>
std::optional<std::uint64_t> as_u64(const Json& v) {
  if (v.kind != JsonValue::Kind::kNumber) return std::nullopt;
  if (v.number < 0 || v.number != std::floor(v.number) || v.number > 1e18) return std::nullopt;
  return static_cast<std::uint64_t>(v.number);
}

// The top-level members parse_request reads.
enum RequestKey { kOpKey, kVmKey, kTypeKey, kGroupKey, kCellKey, kSeqKey, kOffsetKey,
                  kEofKey, kDataKey, kPmKey, kCpuKey, kActionKey, kRequestKeys };

int request_key(std::string_view key) {
  static constexpr std::string_view kNames[kRequestKeys] = {
      "op", "vm", "type", "group", "cell", "seq", "offset", "eof", "data", "pm", "cpu", "action"};
  for (int k = 0; k < kRequestKeys; ++k) {
    if (key == kNames[k]) return k;
  }
  return -1;
}

// The first value of each request key (JsonValue::find's pick), as the
// scanner left it: strings view the line unless they held escapes.
struct RequestMembers {
  struct Member {
    bool present = false;
    JsonToken token;
    std::string unescaped;
  };
  Member members[kRequestKeys];

  const JsonToken* find(RequestKey key) const {
    return members[key].present ? &members[key].token : nullptr;
  }
};

}  // namespace

std::variant<Request, ProtocolError> parse_request(std::string_view line) {
  // The transport's LineBuffer enforces the per-connection frame policy
  // (kMaxFrameBytes for client servers, kMaxReplFrameBytes for followers);
  // this is just the absolute backstop.
  if (line.size() > kMaxReplFrameBytes) {
    return ProtocolError{"oversized_frame", "request exceeds frame size limit"};
  }
  // One pass: validate the whole line, keep the first value of each request
  // key, skip everything else.
  RequestMembers doc;
  JsonParser parser(line);
  JsonToken top;
  const bool parsed = parser.scan(top, [&](std::string_view key, int depth) {
    const int k = request_key(key);
    if (k < 0 || doc.members[k].present) return parser.skip(depth);
    RequestMembers::Member& member = doc.members[k];
    member.present = true;
    return parser.value(depth, member.token, &member.unescaped, nullptr);
  });
  if (!parsed) return ProtocolError{"bad_json", parser.error()};
  if (top.kind != JsonValue::Kind::kObject) {
    return ProtocolError{"bad_json", "request must be a JSON object"};
  }

  const JsonToken* op = doc.find(kOpKey);
  if (op == nullptr) return ProtocolError{"missing_field", "missing \"op\""};
  if (op->kind != JsonValue::Kind::kString) {
    return ProtocolError{"bad_field", "\"op\" must be a string"};
  }

  // kRebalanceScan is deliberately absent: it is an in-process handoff
  // between the planner and the worker, not a wire op.
  static constexpr std::pair<std::string_view, RequestOp> kWireOps[] = {
      {"place", RequestOp::kPlace},          {"release", RequestOp::kRelease},
      {"migrate", RequestOp::kMigrate},      {"lookup", RequestOp::kLookup},
      {"stats", RequestOp::kStats},          {"health", RequestOp::kHealth},
      {"metrics", RequestOp::kMetrics},      {"drain", RequestOp::kDrain},
      {"repl_hello", RequestOp::kReplHello}, {"repl_snap", RequestOp::kReplSnapshot},
      {"repl_frames", RequestOp::kReplFrames}, {"promote", RequestOp::kPromote},
      {"util", RequestOp::kUtil},            {"rebalance", RequestOp::kRebalance},
  };
  const auto* wire_op = std::find_if(std::begin(kWireOps), std::end(kWireOps),
                                     [&](const auto& entry) { return entry.first == op->string; });
  if (wire_op == std::end(kWireOps)) {
    return ProtocolError{"unknown_op", "unknown op \"" + std::string(op->string) + "\""};
  }
  Request request;
  request.op = wire_op->second;

  const bool needs_vm = request.op == RequestOp::kPlace || request.op == RequestOp::kRelease ||
                        request.op == RequestOp::kMigrate || request.op == RequestOp::kLookup;
  if (needs_vm) {
    const JsonToken* vm = doc.find(kVmKey);
    if (vm == nullptr) return ProtocolError{"missing_field", "missing \"vm\""};
    const auto id = as_u64(*vm);
    if (!id.has_value() || *id > 0xFFFFFFFFull) {
      return ProtocolError{"bad_field", "\"vm\" must be a 32-bit unsigned integer"};
    }
    request.vm_id = *id;
  }

  if (request.op == RequestOp::kPlace) {
    const JsonToken* type = doc.find(kTypeKey);
    if (type == nullptr) return ProtocolError{"missing_field", "missing \"type\""};
    if (type->kind == JsonValue::Kind::kString) {
      request.vm_type_name = type->string;
    } else if (const auto index = as_u64(*type); index.has_value()) {
      request.vm_type_index = index;
    } else {
      return ProtocolError{"bad_field", "\"type\" must be a type name or catalog index"};
    }
    if (const JsonToken* group = doc.find(kGroupKey); group != nullptr) {
      if (group->kind != JsonValue::Kind::kString) {
        return ProtocolError{"bad_field", "\"group\" must be a string"};
      }
      request.group = group->string;
    }
  }

  const bool is_repl_op = request.op == RequestOp::kReplHello ||
                          request.op == RequestOp::kReplSnapshot ||
                          request.op == RequestOp::kReplFrames;
  if (is_repl_op || request.op == RequestOp::kPromote) {
    const JsonToken* seq = doc.find(kSeqKey);
    if (seq != nullptr) {
      const auto value = as_u64(*seq);
      if (!value.has_value()) {
        return ProtocolError{"bad_field", "\"seq\" must be an unsigned integer"};
      }
      request.seq = value;
    } else if (is_repl_op) {
      return ProtocolError{"missing_field", "missing \"seq\""};
    }
  }
  if (request.op == RequestOp::kReplSnapshot || request.op == RequestOp::kReplFrames) {
    const JsonToken* data = doc.find(kDataKey);
    if (data == nullptr) return ProtocolError{"missing_field", "missing \"data\""};
    if (data->kind != JsonValue::Kind::kString) {
      return ProtocolError{"bad_field", "\"data\" must be a string"};
    }
    request.data = data->string;
  }
  if (request.op == RequestOp::kReplSnapshot) {
    const JsonToken* offset = doc.find(kOffsetKey);
    if (offset == nullptr) return ProtocolError{"missing_field", "missing \"offset\""};
    const auto value = as_u64(*offset);
    if (!value.has_value()) {
      return ProtocolError{"bad_field", "\"offset\" must be an unsigned integer"};
    }
    request.offset = value;
    if (const JsonToken* eof = doc.find(kEofKey); eof != nullptr) {
      if (eof->kind != JsonValue::Kind::kBool) {
        return ProtocolError{"bad_field", "\"eof\" must be a boolean"};
      }
      request.eof = eof->boolean;
    }
  }
  if (request.op == RequestOp::kUtil) {
    const JsonToken* vm = doc.find(kVmKey);
    const JsonToken* pm = doc.find(kPmKey);
    if (vm == nullptr && pm == nullptr) {
      return ProtocolError{"missing_field", "util needs \"vm\" or \"pm\""};
    }
    if (vm != nullptr && pm != nullptr) {
      return ProtocolError{"bad_field", "util takes exactly one of \"vm\" or \"pm\""};
    }
    if (vm != nullptr) {
      const auto id = as_u64(*vm);
      if (!id.has_value() || *id > 0xFFFFFFFFull) {
        return ProtocolError{"bad_field", "\"vm\" must be a 32-bit unsigned integer"};
      }
      request.vm_id = *id;
    } else {
      const auto id = as_u64(*pm);
      if (!id.has_value()) {
        return ProtocolError{"bad_field", "\"pm\" must be an unsigned integer"};
      }
      request.pm = id;
    }
    const JsonToken* cpu = doc.find(kCpuKey);
    if (cpu == nullptr) return ProtocolError{"missing_field", "missing \"cpu\""};
    if (cpu->kind != JsonValue::Kind::kNumber || !(cpu->number >= 0.0) || cpu->number > 2.0) {
      return ProtocolError{"bad_field", "\"cpu\" must be a number in [0, 2]"};
    }
    request.cpu = cpu->number;
    // An explicit cell lets pm-keyed samples traverse the router (vm-keyed
    // ones route through the vm->cell map).
    if (const JsonToken* cell = doc.find(kCellKey); cell != nullptr) {
      const auto id = as_u64(*cell);
      if (!id.has_value()) {
        return ProtocolError{"bad_field", "\"cell\" must be an unsigned integer"};
      }
      request.cell = id;
    }
  }
  if (request.op == RequestOp::kRebalance) {
    if (const JsonToken* action = doc.find(kActionKey); action != nullptr) {
      if (action->kind != JsonValue::Kind::kString) {
        return ProtocolError{"bad_field", "\"action\" must be a string"};
      }
      if (action->string != "status" && action->string != "trigger" &&
          action->string != "pause" && action->string != "resume") {
        return ProtocolError{"bad_field",
                             "\"action\" must be status, trigger, pause or resume"};
      }
      request.action = action->string;
    }
  }
  return request;
}

std::string encode_request(const Request& request) {
  std::string out;
  out.reserve(64);
  encode_request_into(request, out);
  return out;
}

void encode_request_into(const Request& request, std::string& out) {
  out += "{\"op\":";
  append_quoted(out, to_string(request.op));
  switch (request.op) {
    case RequestOp::kStats:
    case RequestOp::kHealth:
    case RequestOp::kMetrics:
    case RequestOp::kDrain:
    case RequestOp::kReplHello:
    case RequestOp::kReplSnapshot:
    case RequestOp::kReplFrames:
    case RequestOp::kPromote:
    case RequestOp::kRebalance:
    case RequestOp::kRebalanceScan:
      break;
    case RequestOp::kUtil:
      // Exactly one key: the PM when present, the VM otherwise.
      if (!request.pm.has_value()) {
        out += ",\"vm\":";
        append_int(out, request.vm_id);
      }
      break;
    default:
      out += ",\"vm\":";
      append_int(out, request.vm_id);
      break;
  }
  if (request.op == RequestOp::kUtil) {
    if (request.pm.has_value()) {
      out += ",\"pm\":";
      append_int(out, *request.pm);
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", request.cpu);
    out += ",\"cpu\":";
    out += buf;
  }
  if (!request.action.empty()) {
    out += ",\"action\":";
    append_quoted(out, request.action);
  }
  if (request.op == RequestOp::kPlace) {
    out += ",\"type\":";
    if (!request.vm_type_name.empty()) {
      append_quoted(out, request.vm_type_name);
    } else {
      append_int(out, request.vm_type_index.value_or(0));
    }
  }
  if (!request.group.empty()) {
    out += ",\"group\":";
    append_quoted(out, request.group);
  }
  if (request.cell.has_value()) {
    out += ",\"cell\":";
    append_int(out, *request.cell);
  }
  if (request.seq.has_value()) {
    out += ",\"seq\":";
    append_int(out, *request.seq);
  }
  if (request.offset.has_value()) {
    out += ",\"offset\":";
    append_int(out, *request.offset);
  }
  if (request.eof) out += ",\"eof\":true";
  if (!request.data.empty()) {
    out += ",\"data\":";
    append_quoted(out, request.data);
  }
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
