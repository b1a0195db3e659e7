#include "service/protocol.hpp"

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

// Recursive-descent JSON parser. Depth-capped so hostile input cannot blow
// the stack; numbers are parsed as double (protocol integers are small).
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> parse(std::string* error) {
    std::optional<JsonValue> value = parse_value(0);
    if (!value.has_value()) {
      if (error != nullptr) *error = error_;
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error != nullptr) *error = "trailing characters after JSON document";
      return std::nullopt;
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 16;

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\r' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool fail(std::string message) {
    if (error_.empty()) error_ = std::move(message);
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

  std::optional<JsonValue> parse_value(int depth) {
    if (depth > kMaxDepth) {
      fail("nesting too deep");
      return std::nullopt;
    }
    skip_ws();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    JsonValue value;
    const char c = text_[pos_];
    switch (c) {
      case 'n':
        if (!literal("null")) return std::nullopt;
        value.kind = JsonValue::Kind::kNull;
        return value;
      case 't':
        if (!literal("true")) return std::nullopt;
        value.kind = JsonValue::Kind::kBool;
        value.boolean = true;
        return value;
      case 'f':
        if (!literal("false")) return std::nullopt;
        value.kind = JsonValue::Kind::kBool;
        value.boolean = false;
        return value;
      case '"': {
        std::string s;
        if (!parse_string(s)) return std::nullopt;
        value.kind = JsonValue::Kind::kString;
        value.string = std::move(s);
        return value;
      }
      case '{': {
        ++pos_;
        value.kind = JsonValue::Kind::kObject;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          return value;
        }
        while (true) {
          skip_ws();
          std::string key;
          if (pos_ >= text_.size() || text_[pos_] != '"' || !parse_string(key)) {
            fail("expected object key");
            return std::nullopt;
          }
          if (!consume(':')) return std::nullopt;
          auto member = parse_value(depth + 1);
          if (!member.has_value()) return std::nullopt;
          value.object.emplace_back(std::move(key), std::move(*member));
          skip_ws();
          if (pos_ < text_.size() && text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (!consume('}')) return std::nullopt;
          return value;
        }
      }
      case '[': {
        ++pos_;
        value.kind = JsonValue::Kind::kArray;
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          return value;
        }
        while (true) {
          auto element = parse_value(depth + 1);
          if (!element.has_value()) return std::nullopt;
          value.array.push_back(std::move(*element));
          skip_ws();
          if (pos_ < text_.size() && text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (!consume(']')) return std::nullopt;
          return value;
        }
      }
      default: {
        if (c == '-' || (c >= '0' && c <= '9')) {
          double number = 0.0;
          const auto [ptr, ec] =
              std::from_chars(text_.data() + pos_, text_.data() + text_.size(), number);
          if (ec != std::errc{} || !std::isfinite(number)) {
            fail("invalid number");
            return std::nullopt;
          }
          pos_ = static_cast<std::size_t>(ptr - text_.data());
          value.kind = JsonValue::Kind::kNumber;
          value.number = number;
          return value;
        }
        fail("unexpected character");
        return std::nullopt;
      }
    }
  }

  bool parse_string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return fail("control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
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
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
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
};

}  // namespace

std::optional<JsonValue> parse_json(std::string_view text, std::string* error) {
  return JsonParser(text).parse(error);
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
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
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
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
    case RequestOp::kGroupReserve: return "gres";
    case RequestOp::kGroupCommit: return "gcommit";
    case RequestOp::kGroupAbort: return "gabort";
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

std::optional<std::uint64_t> as_u64(const JsonValue& v) {
  if (v.kind != JsonValue::Kind::kNumber) return std::nullopt;
  if (v.number < 0 || v.number != std::floor(v.number) || v.number > 1e18) return std::nullopt;
  return static_cast<std::uint64_t>(v.number);
}

}  // namespace

std::variant<Request, ProtocolError> parse_request(std::string_view line) {
  // The transport's LineBuffer enforces the per-connection frame policy
  // (kMaxFrameBytes for client servers, kMaxReplFrameBytes for followers);
  // this is just the absolute backstop.
  if (line.size() > kMaxReplFrameBytes) {
    return ProtocolError{"oversized_frame", "request exceeds frame size limit"};
  }
  std::string error;
  const std::optional<JsonValue> doc = parse_json(line, &error);
  if (!doc.has_value()) return ProtocolError{"bad_json", error};
  if (doc->kind != JsonValue::Kind::kObject) {
    return ProtocolError{"bad_json", "request must be a JSON object"};
  }

  const JsonValue* op = doc->find("op");
  if (op == nullptr) return ProtocolError{"missing_field", "missing \"op\""};
  if (op->kind != JsonValue::Kind::kString) {
    return ProtocolError{"bad_field", "\"op\" must be a string"};
  }

  Request request;
  if (op->string == "place") {
    request.op = RequestOp::kPlace;
  } else if (op->string == "release") {
    request.op = RequestOp::kRelease;
  } else if (op->string == "migrate") {
    request.op = RequestOp::kMigrate;
  } else if (op->string == "lookup") {
    request.op = RequestOp::kLookup;
  } else if (op->string == "stats") {
    request.op = RequestOp::kStats;
  } else if (op->string == "health") {
    request.op = RequestOp::kHealth;
  } else if (op->string == "metrics") {
    request.op = RequestOp::kMetrics;
  } else if (op->string == "drain") {
    request.op = RequestOp::kDrain;
  } else if (op->string == "gres") {
    request.op = RequestOp::kGroupReserve;
  } else if (op->string == "gcommit") {
    request.op = RequestOp::kGroupCommit;
  } else if (op->string == "gabort") {
    request.op = RequestOp::kGroupAbort;
  } else if (op->string == "repl_hello") {
    request.op = RequestOp::kReplHello;
  } else if (op->string == "repl_snap") {
    request.op = RequestOp::kReplSnapshot;
  } else if (op->string == "repl_frames") {
    request.op = RequestOp::kReplFrames;
  } else if (op->string == "promote") {
    request.op = RequestOp::kPromote;
  } else if (op->string == "util") {
    request.op = RequestOp::kUtil;
  } else if (op->string == "rebalance") {
    request.op = RequestOp::kRebalance;
  } else {
    // kRebalanceScan is deliberately absent: it is an in-process handoff
    // between the planner and the worker, not a wire op.
    return ProtocolError{"unknown_op", "unknown op \"" + op->string + "\""};
  }

  const bool is_group_op = request.op == RequestOp::kGroupReserve ||
                           request.op == RequestOp::kGroupCommit ||
                           request.op == RequestOp::kGroupAbort;
  const bool needs_vm = request.op == RequestOp::kPlace || request.op == RequestOp::kRelease ||
                        request.op == RequestOp::kMigrate || request.op == RequestOp::kLookup ||
                        is_group_op;
  if (needs_vm) {
    const JsonValue* vm = doc->find("vm");
    if (vm == nullptr) return ProtocolError{"missing_field", "missing \"vm\""};
    const auto id = as_u64(*vm);
    if (!id.has_value() || *id > 0xFFFFFFFFull) {
      return ProtocolError{"bad_field", "\"vm\" must be a 32-bit unsigned integer"};
    }
    request.vm_id = *id;
  }

  if (request.op == RequestOp::kPlace) {
    const JsonValue* type = doc->find("type");
    if (type == nullptr) return ProtocolError{"missing_field", "missing \"type\""};
    if (type->kind == JsonValue::Kind::kString) {
      request.vm_type_name = type->string;
    } else if (const auto index = as_u64(*type); index.has_value()) {
      request.vm_type_index = index;
    } else {
      return ProtocolError{"bad_field", "\"type\" must be a type name or catalog index"};
    }
    if (const JsonValue* group = doc->find("group"); group != nullptr) {
      if (group->kind != JsonValue::Kind::kString) {
        return ProtocolError{"bad_field", "\"group\" must be a string"};
      }
      request.group = group->string;
    }
  }

  if (is_group_op) {
    const JsonValue* group = doc->find("group");
    if (group == nullptr) return ProtocolError{"missing_field", "missing \"group\""};
    if (group->kind != JsonValue::Kind::kString || group->string.empty()) {
      return ProtocolError{"bad_field", "\"group\" must be a non-empty string"};
    }
    request.group = group->string;
    if (request.op == RequestOp::kGroupCommit) {
      const JsonValue* cell = doc->find("cell");
      if (cell == nullptr) return ProtocolError{"missing_field", "missing \"cell\""};
      const auto id = as_u64(*cell);
      if (!id.has_value()) {
        return ProtocolError{"bad_field", "\"cell\" must be an unsigned integer"};
      }
      request.cell = id;
    }
  }

  const bool is_repl_op = request.op == RequestOp::kReplHello ||
                          request.op == RequestOp::kReplSnapshot ||
                          request.op == RequestOp::kReplFrames;
  if (is_repl_op || request.op == RequestOp::kPromote) {
    const JsonValue* seq = doc->find("seq");
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
    const JsonValue* data = doc->find("data");
    if (data == nullptr) return ProtocolError{"missing_field", "missing \"data\""};
    if (data->kind != JsonValue::Kind::kString) {
      return ProtocolError{"bad_field", "\"data\" must be a string"};
    }
    request.data = data->string;
  }
  if (request.op == RequestOp::kReplSnapshot) {
    const JsonValue* offset = doc->find("offset");
    if (offset == nullptr) return ProtocolError{"missing_field", "missing \"offset\""};
    const auto value = as_u64(*offset);
    if (!value.has_value()) {
      return ProtocolError{"bad_field", "\"offset\" must be an unsigned integer"};
    }
    request.offset = value;
    if (const JsonValue* eof = doc->find("eof"); eof != nullptr) {
      if (eof->kind != JsonValue::Kind::kBool) {
        return ProtocolError{"bad_field", "\"eof\" must be a boolean"};
      }
      request.eof = eof->boolean;
    }
  }
  if (request.op == RequestOp::kUtil) {
    const JsonValue* vm = doc->find("vm");
    const JsonValue* pm = doc->find("pm");
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
    const JsonValue* cpu = doc->find("cpu");
    if (cpu == nullptr) return ProtocolError{"missing_field", "missing \"cpu\""};
    if (cpu->kind != JsonValue::Kind::kNumber || !(cpu->number >= 0.0) || cpu->number > 2.0) {
      return ProtocolError{"bad_field", "\"cpu\" must be a number in [0, 2]"};
    }
    request.cpu = cpu->number;
    // An explicit cell lets pm-keyed samples traverse the router (vm-keyed
    // ones route through the vm->cell map).
    if (const JsonValue* cell = doc->find("cell"); cell != nullptr) {
      const auto id = as_u64(*cell);
      if (!id.has_value()) {
        return ProtocolError{"bad_field", "\"cell\" must be an unsigned integer"};
      }
      request.cell = id;
    }
  }
  if (request.op == RequestOp::kRebalance) {
    if (const JsonValue* action = doc->find("action"); action != nullptr) {
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
  out += json_quote(to_string(request.op));
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
        out += std::to_string(request.vm_id);
      }
      break;
    default:
      out += ",\"vm\":";
      out += std::to_string(request.vm_id);
      break;
  }
  if (request.op == RequestOp::kUtil) {
    if (request.pm.has_value()) {
      out += ",\"pm\":";
      out += std::to_string(*request.pm);
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", request.cpu);
    out += ",\"cpu\":";
    out += buf;
  }
  if (!request.action.empty()) {
    out += ",\"action\":";
    out += json_quote(request.action);
  }
  if (request.op == RequestOp::kPlace) {
    out += ",\"type\":";
    if (!request.vm_type_name.empty()) {
      out += json_quote(request.vm_type_name);
    } else {
      out += std::to_string(request.vm_type_index.value_or(0));
    }
  }
  if (!request.group.empty()) {
    out += ",\"group\":";
    out += json_quote(request.group);
  }
  if (request.cell.has_value()) {
    out += ",\"cell\":";
    out += std::to_string(*request.cell);
  }
  if (request.seq.has_value()) {
    out += ",\"seq\":";
    out += std::to_string(*request.seq);
  }
  if (request.offset.has_value()) {
    out += ",\"offset\":";
    out += std::to_string(*request.offset);
  }
  if (request.eof) out += ",\"eof\":true";
  if (!request.data.empty()) {
    out += ",\"data\":";
    out += json_quote(request.data);
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
    out += json_quote(response.op);
  }
  if (response.vm.has_value()) {
    out += ",\"vm\":";
    out += std::to_string(*response.vm);
  }
  if (response.pm.has_value()) {
    out += ",\"pm\":";
    out += std::to_string(*response.pm);
  }
  if (!response.error.empty()) {
    out += ",\"error\":";
    out += json_quote(response.error);
  }
  if (!response.message.empty()) {
    out += ",\"message\":";
    out += json_quote(response.message);
  }
  if (response.retry_after_ms.has_value()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", *response.retry_after_ms);
    out += ",\"retry_after_ms\":";
    out += buf;
  }
  for (const auto& [key, encoded] : response.extra) {
    out += ',';
    out += json_quote(key);
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
        out += std::to_string(static_cast<long long>(value.number));
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", value.number);
        out += buf;
      }
      break;
    }
    case JsonValue::Kind::kString: out += json_quote(value.string); break;
    case JsonValue::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, v] : value.object) {
        if (!first) out.push_back(',');
        first = false;
        out += json_quote(k);
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
    } else if (key == "vm" && value.kind == JsonValue::Kind::kNumber) {
      response.vm = static_cast<std::uint64_t>(value.number);
    } else if (key == "pm" && value.kind == JsonValue::Kind::kNumber) {
      response.pm = static_cast<std::uint64_t>(value.number);
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

void LineBuffer::feed(std::string_view bytes) { buffer_.append(bytes); }

std::optional<LineBuffer::Frame> LineBuffer::next() {
  while (true) {
    const std::size_t nl = buffer_.find('\n', scanned_);
    if (nl == std::string::npos) {
      scanned_ = buffer_.size();
      if (discarding_) {
        // Keep dropping oversized-frame bytes so the buffer stays bounded.
        buffer_.clear();
        scanned_ = 0;
        return std::nullopt;
      }
      if (buffer_.size() > max_frame_) {
        // Frame already too large and still no newline: report the
        // oversized frame immediately (the peer gets its error in bounded
        // time) and swallow the rest of it until the next newline.
        buffer_.clear();
        scanned_ = 0;
        discarding_ = true;
        return Frame{true, {}};
      }
      return std::nullopt;
    }

    std::string line = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    scanned_ = 0;
    if (discarding_) {
      // This newline terminates the already-reported oversized frame.
      discarding_ = false;
      continue;
    }
    if (line.size() > max_frame_) return Frame{true, {}};
    return Frame{false, std::move(line)};
  }
}

}  // namespace prvm
