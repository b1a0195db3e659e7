#include "service/binary_protocol.hpp"

#include <cmath>
#include <cstring>

#include "service/wal.hpp"  // crc32 — the same framing checksum as the log

namespace prvm {

namespace {

// Little-endian scalar append/read helpers. memcpy keeps them UB-free on
// any alignment; every supported target is little-endian, and the explicit
// byte order below keeps the wire format fixed even if that changes.

template <typename T>
void put(std::string& out, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<char>((static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFF));
  }
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put(out, bits);
}

/// Appends `s` behind a Len-wide length prefix (the caller checked it fits).
template <typename Len>
void put_string(std::string& out, std::string_view s) {
  put(out, static_cast<Len>(s.size()));
  out.append(s);
}

/// Bounds-checked little-endian reader over a payload view.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  /// An unsigned integer of sizeof(T) bytes.
  template <typename T>
  bool uint(T& v) {
    if (pos_ + sizeof(T) > data_.size()) return false;
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      value |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    v = static_cast<T>(value);
    pos_ += sizeof(T);
    return true;
  }
  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!uint(bits)) return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
  }
  /// A string behind a Len-wide length prefix, viewing the payload.
  template <typename Len>
  bool string(std::string_view& v) {
    Len len = 0;
    if (!uint(len) || pos_ + len > data_.size()) return false;
    v = data_.substr(pos_, len);
    pos_ += len;
    return true;
  }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

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

// The u64 request fields, in payload order.
struct U64Field {
  std::uint8_t bit;
  RequestKey key;
  const char* truncated;
};
constexpr U64Field kU64Fields[] = {
    {kFieldVm, RequestKey::kVm, "truncated \"vm\""},
    {kFieldPm, RequestKey::kPm, "truncated \"pm\""},
    {kFieldCell, RequestKey::kCell, "truncated \"cell\""},
    {kFieldSeq, RequestKey::kSeq, "truncated \"seq\""},
    {kFieldOffset, RequestKey::kOffset, "truncated \"offset\""},
};

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

}  // namespace

bool BinaryStringTable::install(std::uint16_t slot, std::string_view name) {
  if (slot >= kMaxSlots) return false;
  const std::size_t old = slot < slots_.size() ? slots_[slot].size() : 0;
  if (bytes_ - old + name.size() > kMaxBytes) return false;
  if (slots_.size() <= slot) slots_.resize(slot + 1);
  // A fresh string: assign() would keep a longer old name's capacity.
  slots_[slot] = std::string(name);
  bytes_ = bytes_ - old + name.size();
  return true;
}

const std::string* BinaryStringTable::lookup(std::uint16_t slot) const {
  if (slot >= slots_.size() || slots_[slot].empty()) return nullptr;
  return &slots_[slot];
}

void append_binary_frame(BinaryFrameKind kind, std::string_view payload, std::string& out) {
  out.push_back(static_cast<char>(kBinaryMagic));
  out.push_back(static_cast<char>(kind));
  put<std::uint16_t>(out, 0);
  put(out, static_cast<std::uint32_t>(payload.size()));
  put(out, crc32(payload.data(), payload.size()));
  out.append(payload);
}

namespace {

/// Reserves a frame header in `out`, returns the payload start offset; the
/// matching finish_frame backfills length + CRC once the payload is known.
/// Keeps the hot encoders single-buffer: no temporary payload string.
std::size_t begin_frame(BinaryFrameKind kind, std::string& out) {
  out.push_back(static_cast<char>(kBinaryMagic));
  out.push_back(static_cast<char>(kind));
  put<std::uint16_t>(out, 0);
  put<std::uint32_t>(out, 0);  // length placeholder
  put<std::uint32_t>(out, 0);  // CRC placeholder
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
  put(out, slot);
  put_string<std::uint16_t>(out, name);
  finish_frame(out, payload);
  return true;
}

bool encode_binary_request_into(const Request& request, std::string& out,
                                std::optional<std::uint16_t> type_slot) {
  // The fields the op's row reads, each only when present; a util names its
  // PM when it has one, its VM otherwise.
  const RequestSchema& schema = request_schema(request.op);
  const auto carried = [&](RequestKey key, bool present) { return schema.reads(key) && present; };
  const bool by_pm = carried(RequestKey::kPm, request.pm.has_value());
  const bool by_name = carried(RequestKey::kType, !request.vm_type_name.empty());
  std::uint8_t fields = 0;
  std::uint8_t strs = 0;
  if (carried(RequestKey::kVm, !by_pm)) fields |= kFieldVm;
  if (by_pm) fields |= kFieldPm;
  if (carried(RequestKey::kCell, request.cell.has_value())) fields |= kFieldCell;
  if (carried(RequestKey::kSeq, request.seq.has_value())) fields |= kFieldSeq;
  if (carried(RequestKey::kOffset, request.offset.has_value())) fields |= kFieldOffset;
  if (carried(RequestKey::kCpu, true)) fields |= kFieldCpu;
  if (carried(RequestKey::kType, !by_name && request.vm_type_index.has_value())) {
    fields |= kFieldTypeIndex;
  }
  if (carried(RequestKey::kEof, request.eof)) fields |= kFieldEof;
  if (by_name) strs |= type_slot.has_value() ? kStrTypeSlot : kStrTypeName;
  if (carried(RequestKey::kGroup, !request.group.empty())) strs |= kStrGroup;
  if (carried(RequestKey::kAction, !request.action.empty())) strs |= kStrAction;
  if (carried(RequestKey::kData, !request.data.empty())) strs |= kStrData;

  // A value beyond its wire field cannot be encoded: a truncated length
  // prefix would leave the tail bytes reinterpreted as later fields, and a
  // wrapped type index names another type — silent corruption. Refuse up
  // front, before touching `out`.
  if (((strs & kStrTypeName) && request.vm_type_name.size() > 0xFFFF) ||
      ((strs & kStrGroup) && request.group.size() > 0xFFFF) ||
      ((strs & kStrAction) && request.action.size() > 0xFF) ||
      ((strs & kStrData) && request.data.size() > 0xFFFFFFFFull) ||
      ((fields & kFieldTypeIndex) && *request.vm_type_index > 0xFFFFFFFFull)) {
    return false;
  }
  const std::size_t payload = begin_frame(BinaryFrameKind::kRequest, out);
  out.push_back(static_cast<char>(schema.code));
  out.push_back(static_cast<char>(fields));
  out.push_back(static_cast<char>(strs));
  out.push_back(0);  // reserved

  if (fields & kFieldVm) put(out, request.vm_id);
  if (fields & kFieldPm) put(out, *request.pm);
  if (fields & kFieldCell) put(out, *request.cell);
  if (fields & kFieldSeq) put(out, *request.seq);
  if (fields & kFieldOffset) put(out, *request.offset);
  if (fields & kFieldCpu) put_f64(out, request.cpu);
  if (fields & kFieldTypeIndex) put(out, static_cast<std::uint32_t>(*request.vm_type_index));
  if (strs & kStrTypeSlot) put(out, *type_slot);
  if (strs & kStrTypeName) put_string<std::uint16_t>(out, request.vm_type_name);
  if (strs & kStrGroup) put_string<std::uint16_t>(out, request.group);
  if (strs & kStrAction) put_string<std::uint8_t>(out, request.action);
  if (strs & kStrData) put_string<std::uint32_t>(out, request.data);
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
  // The protocol's own op names travel as their one-byte wire code.
  const RequestSchema* wire_op = wire_op_named(response.op);
  if (response.ok) flags |= kRespOk;
  if (response.vm.has_value()) flags |= kRespVm;
  if (response.pm.has_value()) flags |= kRespPm;
  if (response.retry_after_ms.has_value()) flags |= kRespRetry;
  if (!response.op.empty()) flags |= wire_op != nullptr ? kRespOpCode : kRespOpInline;
  if (!response.error.empty()) flags |= kRespError;
  if (!response.message.empty()) flags |= kRespMessage;
  if (!response.extra.empty()) flags2 |= kRespExtra;

  out.push_back(static_cast<char>(flags));
  out.push_back(static_cast<char>(flags2));
  out.push_back(static_cast<char>(wire_op != nullptr ? wire_op->code : 0));
  out.push_back(0);  // reserved

  if (flags & kRespVm) put(out, *response.vm);
  if (flags & kRespPm) put(out, *response.pm);
  if (flags & kRespRetry) put_f64(out, *response.retry_after_ms);
  if (flags & kRespOpInline) put_string<std::uint16_t>(out, response.op);
  if (flags & kRespError) put_string<std::uint16_t>(out, response.error);
  if (flags & kRespMessage) put_string<std::uint16_t>(out, response.message);
  if (flags2 & kRespExtra) {
    put(out, static_cast<std::uint16_t>(response.extra.size()));
    for (const auto& [key, encoded] : response.extra) {
      put_string<std::uint16_t>(out, key);
      put_string<std::uint32_t>(out, encoded);
    }
  }
  finish_frame(out, payload);
}

namespace {

// Stores string `s` as `key` unless the key already holds a value: the
// first one wins, as in JSON (a type index, then a slot, then an inline name).
void keep_first(RequestFields& raw, RequestKey key, std::string_view s) {
  if (raw.has(key)) return;
  RequestValue& v = raw.set(key);
  v.kind = RequestValue::Kind::kString;
  v.string = s;
}

// Reads a string behind a Len-wide length prefix as `key`.
template <typename Len>
bool read_string(Reader& in, RequestFields& raw, RequestKey key) {
  std::string_view s;
  if (!in.string<Len>(s)) return false;
  keep_first(raw, key, s);
  return true;
}

}  // namespace

std::variant<Request, ProtocolError> parse_binary_request(std::string_view payload,
                                                          const BinaryStringTable& types) {
  Reader in(payload);
  std::uint8_t code = 0, fields = 0, strs = 0, reserved = 0;
  if (!in.uint(code) || !in.uint(fields) || !in.uint(strs) || !in.uint(reserved) ||
      reserved != 0) {
    return ProtocolError{"bad_frame", "truncated request payload"};
  }
  const RequestSchema* op = wire_op_of_code(code);
  if (op == nullptr) return ProtocolError{"unknown_op", "unknown op code " + std::to_string(code)};

  // Syntax only: each present field lands in `raw` as its wire type, and
  // validate_request judges it as it judges a JSON member.
  RequestFields raw;
  for (const U64Field& field : kU64Fields) {
    if (!(fields & field.bit)) continue;
    RequestValue& v = raw.set(field.key);
    if (!in.uint(v.integer)) return ProtocolError{"bad_frame", field.truncated};
    v.kind = RequestValue::Kind::kUnsigned;
  }
  if (fields & kFieldCpu) {
    RequestValue& cpu = raw.set(RequestKey::kCpu);
    if (!in.f64(cpu.number)) return ProtocolError{"bad_frame", "truncated \"cpu\""};
    cpu.kind = RequestValue::Kind::kNumber;
  }
  if (fields & kFieldTypeIndex) {
    std::uint32_t index = 0;
    if (!in.uint(index)) return ProtocolError{"bad_frame", "truncated \"type\""};
    RequestValue& type = raw.set(RequestKey::kType);
    type.kind = RequestValue::Kind::kUnsigned;
    type.integer = index;
  }
  if (fields & kFieldEof) {
    RequestValue& eof = raw.set(RequestKey::kEof);
    eof.kind = RequestValue::Kind::kBool;
    eof.boolean = true;
  }
  if (strs & kStrTypeSlot) {
    std::uint16_t slot = 0;
    if (!in.uint(slot)) return ProtocolError{"bad_frame", "truncated type slot"};
    const std::string* name = types.lookup(slot);
    if (name == nullptr) {
      return ProtocolError{"bad_field", "type slot " + std::to_string(slot) + " not interned"};
    }
    keep_first(raw, RequestKey::kType, *name);
  }
  if ((strs & kStrTypeName) && !read_string<std::uint16_t>(in, raw, RequestKey::kType)) {
    return ProtocolError{"bad_frame", "truncated type name"};
  }
  if ((strs & kStrGroup) && !read_string<std::uint16_t>(in, raw, RequestKey::kGroup)) {
    return ProtocolError{"bad_frame", "truncated \"group\""};
  }
  if ((strs & kStrAction) && !read_string<std::uint8_t>(in, raw, RequestKey::kAction)) {
    return ProtocolError{"bad_frame", "truncated \"action\""};
  }
  if ((strs & kStrData) && !read_string<std::uint32_t>(in, raw, RequestKey::kData)) {
    return ProtocolError{"bad_frame", "truncated \"data\""};
  }
  if (!in.done()) return ProtocolError{"bad_frame", "trailing bytes after request payload"};
  return validate_request(op->op, raw);
}

std::optional<std::pair<std::uint16_t, std::string_view>> parse_intern(
    std::string_view payload) {
  Reader in(payload);
  std::uint16_t slot = 0;
  std::string_view name;
  if (!in.uint(slot) || !in.string<std::uint16_t>(name) || !in.done()) return std::nullopt;
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
  if (!in.uint(flags) || !in.uint(flags2) || !in.uint(op_code) || !in.uint(reserved) ||
      reserved != 0) {
    return fail("truncated response payload");
  }
  const auto string_into = [&in](std::string& out) {
    std::string_view bytes;
    if (!in.string<std::uint16_t>(bytes)) return false;
    out.assign(bytes);
    return true;
  };
  Response response;
  response.ok = (flags & kRespOk) != 0;
  if ((flags & kRespVm) && !in.uint(response.vm.emplace())) return fail("truncated \"vm\"");
  if ((flags & kRespPm) && !in.uint(response.pm.emplace())) return fail("truncated \"pm\"");
  if ((flags & kRespRetry) && !in.f64(response.retry_after_ms.emplace())) {
    return fail("truncated \"retry_after_ms\"");
  }
  if (flags & kRespOpCode) {
    const RequestSchema* op = wire_op_of_code(op_code);
    if (op == nullptr) return fail("unknown response op code");
    response.op = op->name;
  }
  if ((flags & kRespOpInline) && !string_into(response.op)) return fail("truncated \"op\"");
  if ((flags & kRespError) && !string_into(response.error)) return fail("truncated \"error\"");
  if ((flags & kRespMessage) && !string_into(response.message)) {
    return fail("truncated \"message\"");
  }
  if (flags2 & kRespExtra) {
    std::uint16_t count = 0;
    if (!in.uint(count)) return fail("truncated \"extra\"");
    response.extra.reserve(count);
    for (std::uint16_t i = 0; i < count; ++i) {
      std::string_view key, value;
      if (!in.string<std::uint16_t>(key) || !in.string<std::uint32_t>(value)) {
        return fail("truncated \"extra\" member");
      }
      response.extra.emplace_back(std::string(key), std::string(value));
    }
  }
  if (!in.done()) return fail("trailing bytes after response payload");
  return response;
}

void BinaryFrameBuffer::feed(std::string_view bytes) {
  // Drop the consumed prefix: all of it when nothing is pending (no bytes
  // move, and the buffer keeps its capacity), otherwise once it dominates
  // the buffer.
  if (start_ == buffer_.size() || (start_ > 4096 && start_ > buffer_.size() / 2)) {
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
