// PRVB1 — the placement daemon's length-prefixed binary wire protocol.
//
// An alternative to the JSON-lines protocol (protocol.hpp) that removes
// the per-request parse/allocate cost on the socket hot path. Clients opt
// in; between daemons it is the only codec (the router's cell channels, a
// leader's replication links). The two protocols are semantically
// identical: both decoders fill one RequestFields and validate_request
// (protocol.hpp) judges it, so a binary frame decodes to the same Request
// struct the JSON parser produces (and a Response encodes losslessly,
// `extra` members included); the service behind the codec cannot tell
// clients apart —
// the trace-replay differential in tests/test_binary_socket.cpp proves
// identical WAL bytes and state digests for the same request stream over
// either protocol.
//
// Negotiation: a binary client sends the 5-byte preamble "PRVB1" as its
// very first bytes on the connection. The server sniffs the first byte: a
// JSON-lines client always starts with '{' (or whitespace), so a leading
// 'P' selects the preamble check and anything else falls through to the
// JSON path. After the preamble, every frame in both directions is:
//
//   offset 0  u8   magic   = 0xBF   (never valid JSON-lines start, resync point)
//          1  u8   kind    (1 = request, 2 = response, 3 = intern)
//          2  u16  reserved = 0     (little-endian, hostile-input check)
//          4  u32  payload length   (little-endian)
//          8  u32  CRC-32 of the payload (same polynomial as the WAL)
//         12  payload bytes
//
// Payloads are flat little-endian structs: an op/flag byte pair, then the
// fixed-width fields the flags declare (u64 ids, f64 cpu — varint-free),
// then length-prefixed strings. VM-type names go through a per-connection
// string table: an `intern` frame (kind 3, fire-and-forget, no response
// slot) binds a u16 slot to a name once, and every later place refers to
// the slot — the hot path never re-sends or re-allocates the name.
//
// Hostile input mirrors LineBuffer semantics: every complete frame whose
// payload fails its CRC, and every header whose length exceeds the cap,
// is reported as its own structured error — the frame boundary is known,
// so per-frame reports keep the request/response FIFO aligned exactly
// like one JSON error per damaged line. Only unframed garbage (bytes that
// never formed a header) collapses to one report per run while the stream
// scans forward to the next plausible header — garbage never kills the
// connection.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "service/protocol.hpp"

namespace prvm {

/// Connection preamble a binary client sends first ("PRVB1").
inline constexpr char kBinaryPreamble[5] = {'P', 'R', 'V', 'B', '1'};

/// Protocol of a connection from its first bytes: true = PRVB1 (`prefix`
/// starts with the preamble), false = JSON-lines, nullopt = too few bytes to
/// tell. Only a PRVB1 client starts with 'P' (JSON-lines requests lead with
/// '{' or whitespace), and only the exact preamble selects binary — a near
/// miss falls back to JSON, where it reports as bad_json.
std::optional<bool> sniff_binary(std::string_view prefix);
/// First byte of every binary frame; doubles as the resync scan target.
inline constexpr std::uint8_t kBinaryMagic = 0xBF;
/// Frame header: magic, kind, reserved u16, payload len u32, payload CRC u32.
inline constexpr std::size_t kBinaryHeaderBytes = 12;

/// Frame cap for server→client response streams. Responses (stats/metrics
/// extras included) are not bounded by the request cap, and a binary cell
/// channel condemns the connection on an oversized frame — so the server
/// guarantees every encoded response fits under this bound (substituting a
/// structured oversized_response error otherwise) and response-side
/// BinaryFrameBuffers are sized to match. Mirrors kMaxReplFrameBytes.
inline constexpr std::size_t kMaxBinaryResponseBytes = 4 * 1024 * 1024;

enum class BinaryFrameKind : std::uint8_t {
  kRequest = 1,
  kResponse = 2,
  /// Installs one (slot, name) pair in the receiver's string table. One-way:
  /// no response slot is consumed, so the request/response FIFO stays aligned.
  kIntern = 3,
};

/// Per-connection decode-side string table for VM-type names. Bounded by
/// slots and by the bytes of the names it holds, so a client can pin at
/// most about 100 KiB of a cell; an intern beyond either cap is dropped and
/// later references fail as bad_field.
class BinaryStringTable {
 public:
  static constexpr std::size_t kMaxSlots = 1024;
  static constexpr std::size_t kMaxBytes = std::size_t{64} << 10;

  /// Installs `name` at `slot` (re-installs overwrite and release the old
  /// name). False, with nothing changed, when the slot is out of range or
  /// the table's names would exceed kMaxBytes.
  bool install(std::uint16_t slot, std::string_view name);
  /// The name bound to `slot`, or nullptr when the slot was never interned.
  const std::string* lookup(std::uint16_t slot) const;
  /// The bytes of the names installed now.
  std::size_t bytes() const { return bytes_; }

 private:
  std::vector<std::string> slots_;
  std::size_t bytes_ = 0;
};

// --- frame-level encode ----------------------------------------------------

/// Appends one framed payload (header + bytes) to `out`.
void append_binary_frame(BinaryFrameKind kind, std::string_view payload, std::string& out);

/// Appends an intern frame binding `slot` to `name`. False (with `out`
/// unchanged) when `name` exceeds its u16 length prefix — never truncates.
bool append_intern_frame(std::uint16_t slot, std::string_view name, std::string& out);

/// Appends a framed binary request. Like encode_request(), it carries the
/// present fields the op's schema row reads, so decoding yields the same
/// Request struct either encoder's output would. When `type_slot` is set,
/// the vm-type name is sent as that string-table slot (the caller must have
/// interned it); otherwise any name travels inline. False (with `out`
/// unchanged) when a string field exceeds its wire length prefix (u16
/// type/group, u8 action, u32 data) or a type index exceeds its u32 field —
/// a request that cannot be represented is refused, never silently
/// corrupted.
bool encode_binary_request_into(const Request& request, std::string& out,
                                std::optional<std::uint16_t> type_slot = std::nullopt);

/// Appends a framed binary response; lossless for every Response field,
/// `extra` (key, pre-encoded JSON value) pairs included, in order. A
/// response that cannot be represented on the wire — a string beyond its
/// length prefix, more than 65535 extras, or a frame beyond
/// kMaxBinaryResponseBytes — is substituted with a structured
/// `oversized_response` error carrying the same op/vm/pm, so the frame
/// stream stays decodable and the response FIFO stays aligned.
void encode_binary_response_into(const Response& response, std::string& out);

// --- payload-level decode --------------------------------------------------

/// Decodes one request payload (the bytes after a kRequest frame header)
/// into RequestFields and hands them to validate_request, as parse_request()
/// does: the same rules, codes and messages, plus "bad_frame" for
/// structural payload damage the JSON protocol cannot express and
/// "bad_field" for a type slot that was never interned.
std::variant<Request, ProtocolError> parse_binary_request(std::string_view payload,
                                                          const BinaryStringTable& types);

/// Decodes one intern payload into (slot, name). Nullopt on damage.
std::optional<std::pair<std::uint16_t, std::string_view>> parse_intern(
    std::string_view payload);

/// Decodes one response payload; inverse of encode_binary_response_into.
std::optional<Response> parse_binary_response(std::string_view payload, std::string* error);

// --- connection framing ----------------------------------------------------

/// Reassembles PRVB1 frames from arbitrary read chunks — the binary
/// counterpart of LineBuffer. Payloads are returned as views into the
/// internal buffer (valid until the next feed()/next() call), so the
/// decode path runs straight out of the connection read buffer without an
/// intermediate per-frame string.
class BinaryFrameBuffer {
 public:
  explicit BinaryFrameBuffer(std::size_t max_frame = kMaxFrameBytes)
      : max_frame_(max_frame) {}

  void feed(std::string_view bytes);

  enum class Status : std::uint8_t {
    kOk,         ///< intact frame, payload view set
    kGarbage,    ///< bytes that never formed a header; reported once per run
    kOversized,  ///< valid header but payload length beyond the cap; one report per header
    kBadCrc,     ///< complete frame whose payload failed its CRC; one report per frame
  };

  struct Frame {
    Status status = Status::kOk;
    BinaryFrameKind kind = BinaryFrameKind::kRequest;
    std::string_view payload;  ///< only meaningful when status == kOk
  };

  /// Pops the next frame (or damage report), or nullopt when more bytes are
  /// needed. Framed damage (bad CRC, oversized header) is reported per
  /// frame so each damaged pipelined request still consumes exactly one
  /// response slot; only unframed garbage collapses to one report while the
  /// stream scans to the next plausible header.
  std::optional<Frame> next();

 private:
  /// True when the bytes at `pos` could begin a frame header (enough of one
  /// is visible to tell).
  bool plausible_header_at(std::size_t pos, std::size_t available) const;

  std::size_t max_frame_;
  std::string buffer_;
  std::size_t start_ = 0;     ///< consumed prefix, compacted lazily
  bool discarding_ = false;   ///< inside an already-reported unframed-garbage scan
};

/// The structured error a server reports for a damaged binary frame.
ProtocolError binary_frame_error(BinaryFrameBuffer::Status status);

/// Pops the next client request: nullopt when no complete frame is
/// buffered. Intern frames install into `types` and consume no response
/// slot; damaged frames and non-request kinds decode to their error. The
/// request decodes straight out of the frame buffer (the payload view is
/// borrowed; only the Request's own fields are materialized).
std::optional<std::variant<Request, ProtocolError>> next_request(BinaryFrameBuffer& frames,
                                                                 BinaryStringTable& types);

}  // namespace prvm
