#include "service/binary_protocol.hpp"

#include <cmath>
#include <cstring>

#include "service/wal.hpp"  // crc32 — the same framing checksum as the log

namespace prvm {

namespace {

// Little-endian scalar append/read helpers. memcpy keeps them UB-free on
// any alignment; every supported target is little-endian, and the explicit
// byte order below keeps the wire format fixed even if that changes.

void put_u16(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v & 0xFF));
  out.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

/// Bounds-checked little-endian reader over a payload view.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > data_.size()) return false;
    v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }
  bool u16(std::uint16_t& v) {
    if (pos_ + 2 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 2; ++i) {
      v = static_cast<std::uint16_t>(v | (static_cast<std::uint16_t>(
              static_cast<std::uint8_t>(data_[pos_ + i])) << (8 * i)));
    }
    pos_ += 2;
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > data_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
  }
  bool bytes(std::size_t len, std::string_view& v) {
    if (pos_ + len > data_.size()) return false;
    v = data_.substr(pos_, len);
    pos_ += len;
    return true;
  }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

// Wire op codes. Frozen: append only, never renumber — remote cells and
// routers may run different builds. kRebalanceScan deliberately has no code
// (it is an in-process handoff, not a wire op). 9-11 were the retired
// cross-cell group ops; they decode as unknown and are never reassigned.
constexpr std::uint8_t kOpCodeCount = 18;

std::uint8_t op_code_of(RequestOp op) {
  switch (op) {
    case RequestOp::kPlace: return 1;
    case RequestOp::kRelease: return 2;
    case RequestOp::kMigrate: return 3;
    case RequestOp::kLookup: return 4;
    case RequestOp::kStats: return 5;
    case RequestOp::kHealth: return 6;
    case RequestOp::kMetrics: return 7;
    case RequestOp::kDrain: return 8;
    case RequestOp::kReplHello: return 12;
    case RequestOp::kReplSnapshot: return 13;
    case RequestOp::kReplFrames: return 14;
    case RequestOp::kPromote: return 15;
    case RequestOp::kUtil: return 16;
    case RequestOp::kRebalance: return 17;
    case RequestOp::kRebalanceScan: return 0;  // never on the wire
  }
  return 0;
}

std::optional<RequestOp> op_of_code(std::uint8_t code) {
  switch (code) {
    case 1: return RequestOp::kPlace;
    case 2: return RequestOp::kRelease;
    case 3: return RequestOp::kMigrate;
    case 4: return RequestOp::kLookup;
    case 5: return RequestOp::kStats;
    case 6: return RequestOp::kHealth;
    case 7: return RequestOp::kMetrics;
    case 8: return RequestOp::kDrain;
    case 12: return RequestOp::kReplHello;
    case 13: return RequestOp::kReplSnapshot;
    case 14: return RequestOp::kReplFrames;
    case 15: return RequestOp::kPromote;
    case 16: return RequestOp::kUtil;
    case 17: return RequestOp::kRebalance;
    default: return std::nullopt;
  }
}

// Request payload field-presence bits (first flag byte).
constexpr std::uint8_t kFieldVm = 1u << 0;
constexpr std::uint8_t kFieldPm = 1u << 1;
constexpr std::uint8_t kFieldCell = 1u << 2;
constexpr std::uint8_t kFieldSeq = 1u << 3;
constexpr std::uint8_t kFieldOffset = 1u << 4;
constexpr std::uint8_t kFieldCpu = 1u << 5;
constexpr std::uint8_t kFieldTypeIndex = 1u << 6;
constexpr std::uint8_t kFieldEof = 1u << 7;

// Request payload string-presence bits (second flag byte).
constexpr std::uint8_t kStrTypeSlot = 1u << 0;   ///< u16 string-table slot
constexpr std::uint8_t kStrTypeName = 1u << 1;   ///< inline u16-prefixed name
constexpr std::uint8_t kStrGroup = 1u << 2;
constexpr std::uint8_t kStrAction = 1u << 3;
constexpr std::uint8_t kStrData = 1u << 4;

bool needs_vm(RequestOp op) {
  return op == RequestOp::kPlace || op == RequestOp::kRelease || op == RequestOp::kMigrate ||
         op == RequestOp::kLookup;
}

// Response payload flag bits (first byte).
constexpr std::uint8_t kRespOk = 1u << 0;
constexpr std::uint8_t kRespVm = 1u << 1;
constexpr std::uint8_t kRespPm = 1u << 2;
constexpr std::uint8_t kRespRetry = 1u << 3;
constexpr std::uint8_t kRespOpCode = 1u << 4;   ///< op as a wire code
constexpr std::uint8_t kRespOpInline = 1u << 5; ///< op as an inline string
constexpr std::uint8_t kRespError = 1u << 6;
constexpr std::uint8_t kRespMessage = 1u << 7;
// Second byte.
constexpr std::uint8_t kRespExtra = 1u << 0;

/// Response.op is a free-form string; map the protocol's own op names back
/// to wire codes so hot responses ("place", "release") carry one byte.
std::optional<std::uint8_t> response_op_code(const std::string& op) {
  for (std::uint8_t code = 1; code < kOpCodeCount; ++code) {
    const auto request_op = op_of_code(code);
    if (request_op.has_value() && op == to_string(*request_op)) return code;
  }
  return std::nullopt;
}

}  // namespace

bool BinaryStringTable::install(std::uint16_t slot, std::string_view name) {
  if (slot >= kMaxSlots) return false;
  if (slots_.size() <= slot) slots_.resize(slot + 1);
  slots_[slot].assign(name);
  return true;
}

const std::string* BinaryStringTable::lookup(std::uint16_t slot) const {
  if (slot >= slots_.size() || slots_[slot].empty()) return nullptr;
  return &slots_[slot];
}

void append_binary_frame(BinaryFrameKind kind, std::string_view payload, std::string& out) {
  out.push_back(static_cast<char>(kBinaryMagic));
  out.push_back(static_cast<char>(kind));
  put_u16(out, 0);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload.data(), payload.size()));
  out.append(payload);
}

namespace {

/// Reserves a frame header in `out`, returns the payload start offset; the
/// matching finish_frame backfills length + CRC once the payload is known.
/// Keeps the hot encoders single-buffer: no temporary payload string.
std::size_t begin_frame(BinaryFrameKind kind, std::string& out) {
  out.push_back(static_cast<char>(kBinaryMagic));
  out.push_back(static_cast<char>(kind));
  put_u16(out, 0);
  put_u32(out, 0);  // length placeholder
  put_u32(out, 0);  // CRC placeholder
  return out.size();
}

void finish_frame(std::string& out, std::size_t payload_start) {
  const std::uint32_t len = static_cast<std::uint32_t>(out.size() - payload_start);
  const std::uint32_t crc = crc32(out.data() + payload_start, len);
  for (int i = 0; i < 4; ++i) {
    out[payload_start - 8 + i] = static_cast<char>((len >> (8 * i)) & 0xFF);
    out[payload_start - 4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
}

}  // namespace

bool append_intern_frame(std::uint16_t slot, std::string_view name, std::string& out) {
  if (name.size() > 0xFFFF) return false;  // u16 length prefix; never truncate
  const std::size_t payload = begin_frame(BinaryFrameKind::kIntern, out);
  put_u16(out, slot);
  put_u16(out, static_cast<std::uint16_t>(name.size()));
  out.append(name);
  finish_frame(out, payload);
  return true;
}

bool encode_binary_request_into(const Request& request, std::string& out,
                                std::optional<std::uint16_t> type_slot) {
  // A string beyond its wire length prefix cannot be encoded: a truncated
  // prefix would leave the tail bytes reinterpreted as later fields —
  // silent corruption. Refuse up front, before touching `out`.
  if (request.vm_type_name.size() > 0xFFFF || request.group.size() > 0xFFFF ||
      request.action.size() > 0xFF || request.data.size() > 0xFFFFFFFFull) {
    return false;
  }
  const std::size_t payload = begin_frame(BinaryFrameKind::kRequest, out);

  std::uint8_t fields = 0;
  std::uint8_t strs = 0;
  // Field selection mirrors encode_request(): vm travels for the vm-keyed
  // ops (and a vm-keyed util); everything else only when present.
  const bool send_vm =
      needs_vm(request.op) || (request.op == RequestOp::kUtil && !request.pm.has_value());
  if (send_vm) fields |= kFieldVm;
  if (request.op == RequestOp::kUtil && request.pm.has_value()) fields |= kFieldPm;
  if (request.cell.has_value()) fields |= kFieldCell;
  if (request.seq.has_value()) fields |= kFieldSeq;
  if (request.offset.has_value()) fields |= kFieldOffset;
  if (request.op == RequestOp::kUtil) fields |= kFieldCpu;
  if (request.op == RequestOp::kPlace && request.vm_type_name.empty()) {
    fields |= kFieldTypeIndex;
  }
  if (request.eof) fields |= kFieldEof;
  if (request.op == RequestOp::kPlace && !request.vm_type_name.empty()) {
    strs |= type_slot.has_value() ? kStrTypeSlot : kStrTypeName;
  }
  if (!request.group.empty()) strs |= kStrGroup;
  if (!request.action.empty()) strs |= kStrAction;
  if (!request.data.empty()) strs |= kStrData;

  out.push_back(static_cast<char>(op_code_of(request.op)));
  out.push_back(static_cast<char>(fields));
  out.push_back(static_cast<char>(strs));
  out.push_back(0);  // reserved

  if (fields & kFieldVm) put_u64(out, request.vm_id);
  if (fields & kFieldPm) put_u64(out, *request.pm);
  if (fields & kFieldCell) put_u64(out, *request.cell);
  if (fields & kFieldSeq) put_u64(out, *request.seq);
  if (fields & kFieldOffset) put_u64(out, *request.offset);
  if (fields & kFieldCpu) put_f64(out, request.cpu);
  if (fields & kFieldTypeIndex) {
    put_u32(out, static_cast<std::uint32_t>(request.vm_type_index.value_or(0)));
  }
  if (strs & kStrTypeSlot) put_u16(out, *type_slot);
  if (strs & kStrTypeName) {
    put_u16(out, static_cast<std::uint16_t>(request.vm_type_name.size()));
    out.append(request.vm_type_name);
  }
  if (strs & kStrGroup) {
    put_u16(out, static_cast<std::uint16_t>(request.group.size()));
    out.append(request.group);
  }
  if (strs & kStrAction) {
    out.push_back(static_cast<char>(request.action.size()));
    out.append(request.action);
  }
  if (strs & kStrData) {
    put_u32(out, static_cast<std::uint32_t>(request.data.size()));
    out.append(request.data);
  }
  finish_frame(out, payload);
  return true;
}

namespace {

/// True when `response` fits the wire format: every length prefix holds its
/// string, at most 65535 extras, whole frame under kMaxBinaryResponseBytes.
bool response_fits_wire(const Response& response) {
  if (response.op.size() > 0xFFFF || response.error.size() > 0xFFFF ||
      response.message.size() > 0xFFFF || response.extra.size() > 0xFFFF) {
    return false;
  }
  // Upper bound on the encoded frame: header, flag bytes, the three fixed
  // fields, each string with its prefix, the extra count.
  std::size_t bytes = kBinaryHeaderBytes + 4 + 3 * 8 + 2 +
                      response.op.size() + response.error.size() + response.message.size() +
                      2 + 2 + 2;
  for (const auto& [key, encoded] : response.extra) {
    if (key.size() > 0xFFFF) return false;
    bytes += 2 + 4 + key.size() + encoded.size();
  }
  return bytes <= kMaxBinaryResponseBytes;
}

}  // namespace

void encode_binary_response_into(const Response& response, std::string& out) {
  if (!response_fits_wire(response)) {
    // Substitute a structured error in the same response slot: the binary
    // cell channel condemns the whole connection on an oversized or
    // undecodable frame, so an unrepresentable response must degrade to a
    // per-slot error exactly like an oversized JSON line does client-side.
    Response substitute;
    substitute.ok = false;
    substitute.op = response.op.size() <= 0xFFFF ? response.op : std::string();
    substitute.vm = response.vm;
    substitute.pm = response.pm;
    substitute.error = "oversized_response";
    substitute.message = "response exceeds binary wire-format limits";
    encode_binary_response_into(substitute, out);
    return;
  }
  const std::size_t payload = begin_frame(BinaryFrameKind::kResponse, out);

  std::uint8_t flags = 0;
  std::uint8_t flags2 = 0;
  std::optional<std::uint8_t> op_code;
  if (response.ok) flags |= kRespOk;
  if (response.vm.has_value()) flags |= kRespVm;
  if (response.pm.has_value()) flags |= kRespPm;
  if (response.retry_after_ms.has_value()) flags |= kRespRetry;
  if (!response.op.empty()) {
    op_code = response_op_code(response.op);
    flags |= op_code.has_value() ? kRespOpCode : kRespOpInline;
  }
  if (!response.error.empty()) flags |= kRespError;
  if (!response.message.empty()) flags |= kRespMessage;
  if (!response.extra.empty()) flags2 |= kRespExtra;

  out.push_back(static_cast<char>(flags));
  out.push_back(static_cast<char>(flags2));
  out.push_back(static_cast<char>(op_code.value_or(0)));
  out.push_back(0);  // reserved

  if (flags & kRespVm) put_u64(out, *response.vm);
  if (flags & kRespPm) put_u64(out, *response.pm);
  if (flags & kRespRetry) put_f64(out, *response.retry_after_ms);
  if (flags & kRespOpInline) {
    put_u16(out, static_cast<std::uint16_t>(response.op.size()));
    out.append(response.op);
  }
  if (flags & kRespError) {
    put_u16(out, static_cast<std::uint16_t>(response.error.size()));
    out.append(response.error);
  }
  if (flags & kRespMessage) {
    put_u16(out, static_cast<std::uint16_t>(response.message.size()));
    out.append(response.message);
  }
  if (flags2 & kRespExtra) {
    put_u16(out, static_cast<std::uint16_t>(response.extra.size()));
    for (const auto& [key, encoded] : response.extra) {
      put_u16(out, static_cast<std::uint16_t>(key.size()));
      out.append(key);
      put_u32(out, static_cast<std::uint32_t>(encoded.size()));
      out.append(encoded);
    }
  }
  finish_frame(out, payload);
}

std::variant<Request, ProtocolError> parse_binary_request(std::string_view payload,
                                                          const BinaryStringTable& types) {
  Reader in(payload);
  std::uint8_t code = 0, fields = 0, strs = 0, reserved = 0;
  if (!in.u8(code) || !in.u8(fields) || !in.u8(strs) || !in.u8(reserved) || reserved != 0) {
    return ProtocolError{"bad_frame", "truncated request payload"};
  }
  const auto op = op_of_code(code);
  if (!op.has_value()) {
    return ProtocolError{"unknown_op", "unknown op code " + std::to_string(code)};
  }

  Request request;
  request.op = *op;
  std::uint64_t vm = 0;
  const bool has_vm = (fields & kFieldVm) != 0;
  if (has_vm && !in.u64(vm)) return ProtocolError{"bad_frame", "truncated \"vm\""};
  if (fields & kFieldPm) {
    std::uint64_t pm = 0;
    if (!in.u64(pm)) return ProtocolError{"bad_frame", "truncated \"pm\""};
    request.pm = pm;
  }
  if (fields & kFieldCell) {
    std::uint64_t cell = 0;
    if (!in.u64(cell)) return ProtocolError{"bad_frame", "truncated \"cell\""};
    request.cell = cell;
  }
  if (fields & kFieldSeq) {
    std::uint64_t seq = 0;
    if (!in.u64(seq)) return ProtocolError{"bad_frame", "truncated \"seq\""};
    request.seq = seq;
  }
  if (fields & kFieldOffset) {
    std::uint64_t offset = 0;
    if (!in.u64(offset)) return ProtocolError{"bad_frame", "truncated \"offset\""};
    request.offset = offset;
  }
  double cpu = -1.0;
  if (fields & kFieldCpu) {
    if (!in.f64(cpu)) return ProtocolError{"bad_frame", "truncated \"cpu\""};
  }
  if (fields & kFieldTypeIndex) {
    std::uint32_t index = 0;
    if (!in.u32(index)) return ProtocolError{"bad_frame", "truncated \"type\""};
    request.vm_type_index = index;
  }
  request.eof = (fields & kFieldEof) != 0;

  if (strs & kStrTypeSlot) {
    std::uint16_t slot = 0;
    if (!in.u16(slot)) return ProtocolError{"bad_frame", "truncated type slot"};
    const std::string* name = types.lookup(slot);
    if (name == nullptr) {
      return ProtocolError{"bad_field", "type slot " + std::to_string(slot) + " not interned"};
    }
    request.vm_type_name = *name;
  }
  if (strs & kStrTypeName) {
    std::uint16_t len = 0;
    std::string_view bytes;
    if (!in.u16(len) || !in.bytes(len, bytes)) {
      return ProtocolError{"bad_frame", "truncated type name"};
    }
    request.vm_type_name.assign(bytes);
  }
  if (strs & kStrGroup) {
    std::uint16_t len = 0;
    std::string_view bytes;
    if (!in.u16(len) || !in.bytes(len, bytes)) {
      return ProtocolError{"bad_frame", "truncated \"group\""};
    }
    request.group.assign(bytes);
  }
  if (strs & kStrAction) {
    std::uint8_t len = 0;
    std::string_view bytes;
    if (!in.u8(len) || !in.bytes(len, bytes)) {
      return ProtocolError{"bad_frame", "truncated \"action\""};
    }
    request.action.assign(bytes);
  }
  if (strs & kStrData) {
    std::uint32_t len = 0;
    std::string_view bytes;
    if (!in.u32(len) || !in.bytes(len, bytes)) {
      return ProtocolError{"bad_frame", "truncated \"data\""};
    }
    request.data.assign(bytes);
  }
  if (!in.done()) return ProtocolError{"bad_frame", "trailing bytes after request payload"};

  // Semantic validation: the same rules, same error codes, as parse_request.
  if (needs_vm(request.op)) {
    if (!has_vm) return ProtocolError{"missing_field", "missing \"vm\""};
    if (vm > 0xFFFFFFFFull) {
      return ProtocolError{"bad_field", "\"vm\" must be a 32-bit unsigned integer"};
    }
    request.vm_id = vm;
  }
  if (request.op == RequestOp::kPlace) {
    if (!request.vm_type_index.has_value() && request.vm_type_name.empty()) {
      return ProtocolError{"missing_field", "missing \"type\""};
    }
  }
  const bool is_repl_op = request.op == RequestOp::kReplHello ||
                          request.op == RequestOp::kReplSnapshot ||
                          request.op == RequestOp::kReplFrames;
  if (is_repl_op && !request.seq.has_value()) {
    return ProtocolError{"missing_field", "missing \"seq\""};
  }
  if (request.op == RequestOp::kReplSnapshot || request.op == RequestOp::kReplFrames) {
    if (request.data.empty()) return ProtocolError{"missing_field", "missing \"data\""};
  }
  if (request.op == RequestOp::kReplSnapshot && !request.offset.has_value()) {
    return ProtocolError{"missing_field", "missing \"offset\""};
  }
  if (request.op == RequestOp::kUtil) {
    if (!has_vm && !request.pm.has_value()) {
      return ProtocolError{"missing_field", "util needs \"vm\" or \"pm\""};
    }
    if (has_vm && request.pm.has_value()) {
      return ProtocolError{"bad_field", "util takes exactly one of \"vm\" or \"pm\""};
    }
    if (has_vm) {
      if (vm > 0xFFFFFFFFull) {
        return ProtocolError{"bad_field", "\"vm\" must be a 32-bit unsigned integer"};
      }
      request.vm_id = vm;
    }
    if (!(fields & kFieldCpu) || !(cpu >= 0.0) || cpu > 2.0) {
      return ProtocolError{"bad_field", "\"cpu\" must be a number in [0, 2]"};
    }
    request.cpu = cpu;
  }
  if (request.op == RequestOp::kRebalance && !request.action.empty()) {
    if (request.action != "status" && request.action != "trigger" &&
        request.action != "pause" && request.action != "resume") {
      return ProtocolError{"bad_field", "\"action\" must be status, trigger, pause or resume"};
    }
  }
  return request;
}

std::optional<std::pair<std::uint16_t, std::string_view>> parse_intern(
    std::string_view payload) {
  Reader in(payload);
  std::uint16_t slot = 0, len = 0;
  std::string_view name;
  if (!in.u16(slot) || !in.u16(len) || !in.bytes(len, name) || !in.done()) return std::nullopt;
  if (name.empty()) return std::nullopt;
  return std::make_pair(slot, name);
}

std::optional<Response> parse_binary_response(std::string_view payload, std::string* error) {
  const auto fail = [error](const char* why) -> std::optional<Response> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  Reader in(payload);
  std::uint8_t flags = 0, flags2 = 0, op_code = 0, reserved = 0;
  if (!in.u8(flags) || !in.u8(flags2) || !in.u8(op_code) || !in.u8(reserved) || reserved != 0) {
    return fail("truncated response payload");
  }
  Response response;
  response.ok = (flags & kRespOk) != 0;
  if (flags & kRespVm) {
    std::uint64_t vm = 0;
    if (!in.u64(vm)) return fail("truncated \"vm\"");
    response.vm = vm;
  }
  if (flags & kRespPm) {
    std::uint64_t pm = 0;
    if (!in.u64(pm)) return fail("truncated \"pm\"");
    response.pm = pm;
  }
  if (flags & kRespRetry) {
    double retry = 0.0;
    if (!in.f64(retry)) return fail("truncated \"retry_after_ms\"");
    response.retry_after_ms = retry;
  }
  if (flags & kRespOpCode) {
    const auto op = op_of_code(op_code);
    if (!op.has_value()) return fail("unknown response op code");
    response.op = to_string(*op);
  }
  if (flags & kRespOpInline) {
    std::uint16_t len = 0;
    std::string_view bytes;
    if (!in.u16(len) || !in.bytes(len, bytes)) return fail("truncated \"op\"");
    response.op.assign(bytes);
  }
  if (flags & kRespError) {
    std::uint16_t len = 0;
    std::string_view bytes;
    if (!in.u16(len) || !in.bytes(len, bytes)) return fail("truncated \"error\"");
    response.error.assign(bytes);
  }
  if (flags & kRespMessage) {
    std::uint16_t len = 0;
    std::string_view bytes;
    if (!in.u16(len) || !in.bytes(len, bytes)) return fail("truncated \"message\"");
    response.message.assign(bytes);
  }
  if (flags2 & kRespExtra) {
    std::uint16_t count = 0;
    if (!in.u16(count)) return fail("truncated \"extra\"");
    response.extra.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
      std::uint16_t key_len = 0;
      std::uint32_t value_len = 0;
      std::string_view key, value;
      if (!in.u16(key_len) || !in.bytes(key_len, key) || !in.u32(value_len) ||
          !in.bytes(value_len, value)) {
        return fail("truncated \"extra\" member");
      }
      response.extra.emplace_back(std::string(key), std::string(value));
    }
  }
  if (!in.done()) return fail("trailing bytes after response payload");
  return response;
}

void BinaryFrameBuffer::feed(std::string_view bytes) {
  // Compact the consumed prefix before it dominates the buffer.
  if (start_ > 4096 && start_ > buffer_.size() / 2) {
    buffer_.erase(0, start_);
    start_ = 0;
  }
  buffer_.append(bytes);
}

bool BinaryFrameBuffer::plausible_header_at(std::size_t pos, std::size_t available) const {
  if (static_cast<std::uint8_t>(buffer_[pos]) != kBinaryMagic) return false;
  if (available < 2) return true;  // could still become a header
  const std::uint8_t kind = static_cast<std::uint8_t>(buffer_[pos + 1]);
  if (kind < 1 || kind > 3) return false;
  if (available < 4) return true;
  return buffer_[pos + 2] == 0 && buffer_[pos + 3] == 0;  // reserved u16
}

std::optional<BinaryFrameBuffer::Frame> BinaryFrameBuffer::next() {
  while (true) {
    const std::size_t available = buffer_.size() - start_;
    if (available == 0) return std::nullopt;

    if (!plausible_header_at(start_, available)) {
      // Garbage run: report it once, then silently scan to the next byte
      // that could start a header (LineBuffer's resync-at-newline analogue).
      std::size_t skip = 1;
      while (skip < available &&
             static_cast<std::uint8_t>(buffer_[start_ + skip]) != kBinaryMagic) {
        ++skip;
      }
      start_ += skip;
      if (!discarding_) {
        discarding_ = true;
        return Frame{Status::kGarbage, BinaryFrameKind::kRequest, {}};
      }
      continue;
    }
    if (available < kBinaryHeaderBytes) return std::nullopt;  // header still arriving

    const std::uint8_t kind_byte = static_cast<std::uint8_t>(buffer_[start_ + 1]);
    std::uint32_t len = 0, crc = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buffer_[start_ + 4 + i]))
             << (8 * i);
      crc |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(buffer_[start_ + 8 + i]))
             << (8 * i);
    }
    if (len > max_frame_) {
      // A hostile length field must not control how far we skip: skip only
      // the header and fall into the garbage scan, resynchronizing at the
      // next plausible magic byte. Every oversized header is its own report
      // — each damaged pipelined frame must consume one response slot or
      // the request/response FIFO shifts — but the untrusted payload bytes
      // that follow are one already-accounted-for garbage run, so the scan
      // is marked as reported.
      start_ += kBinaryHeaderBytes;
      discarding_ = true;
      return Frame{Status::kOversized, BinaryFrameKind::kRequest, {}};
    }
    if (available < kBinaryHeaderBytes + len) return std::nullopt;  // payload arriving

    const std::string_view payload(buffer_.data() + start_ + kBinaryHeaderBytes, len);
    start_ += kBinaryHeaderBytes + len;
    discarding_ = false;  // a complete plausible frame is a trusted boundary
    if (crc32(payload.data(), payload.size()) != crc) {
      // The header was plausible, so trust its length for consumption; the
      // payload itself is damaged. The boundary is exact, so report every
      // bad-CRC frame individually — N corrupted pipelined requests must
      // yield N error responses, mirroring one JSON error per damaged line.
      return Frame{Status::kBadCrc, BinaryFrameKind::kRequest, {}};
    }
    return Frame{Status::kOk, static_cast<BinaryFrameKind>(kind_byte), payload};
  }
}

std::optional<bool> sniff_binary(std::string_view prefix) {
  if (prefix.empty()) return std::nullopt;
  if (prefix[0] != kBinaryPreamble[0]) return false;
  if (prefix.size() < sizeof(kBinaryPreamble)) return std::nullopt;
  return prefix.substr(0, sizeof(kBinaryPreamble)) ==
         std::string_view(kBinaryPreamble, sizeof(kBinaryPreamble));
}

std::optional<std::variant<Request, ProtocolError>> next_request(BinaryFrameBuffer& frames,
                                                                 BinaryStringTable& types) {
  while (const auto frame = frames.next()) {
    if (frame->status != BinaryFrameBuffer::Status::kOk) return binary_frame_error(frame->status);
    if (frame->kind == BinaryFrameKind::kIntern) {
      // One-way: a damaged or over-cap intern is dropped; the next request
      // referencing the slot reports bad_field in its own order slot.
      if (const auto intern = parse_intern(frame->payload)) {
        types.install(intern->first, intern->second);
      }
      continue;
    }
    if (frame->kind != BinaryFrameKind::kRequest) {
      return ProtocolError{"bad_frame", "unexpected frame kind from a client"};
    }
    return parse_binary_request(frame->payload, types);
  }
  return std::nullopt;
}

ProtocolError binary_frame_error(BinaryFrameBuffer::Status status) {
  switch (status) {
    case BinaryFrameBuffer::Status::kOversized:
      return {"oversized_frame", "request exceeds frame size limit"};
    case BinaryFrameBuffer::Status::kBadCrc:
      return {"bad_frame", "frame payload failed its CRC"};
    case BinaryFrameBuffer::Status::kGarbage:
    default:
      return {"bad_frame", "bytes did not form a PRVB1 frame"};
  }
}

}  // namespace prvm
