// JSON-lines wire protocol of the placement daemon.
//
// One request per line, one response per line, always in request order per
// connection. Requests are flat JSON objects with an "op" discriminator:
//
//   {"op":"place","vm":7,"type":"m3.xlarge"}          -> {"ok":true,"op":"place","vm":7,"pm":12}
//   {"op":"place","vm":8,"type":2,"group":"web"}      type by catalog index also accepted
//   {"op":"release","vm":7}                           -> {"ok":true,...}
//   {"op":"migrate","vm":8}                           re-place off the current PM
//   {"op":"lookup","vm":7}                            -> current PM, or unknown_vm
//   {"op":"stats"}                                    -> counters + state digest
//   {"op":"health"}                                   -> mode, queue depth, WAL lag, last error
//   {"op":"metrics"}                                  -> full metrics registry as JSON
//   {"op":"drain"}                                    snapshot + stop accepting
//
// A router in front of several cells (DESIGN.md §7) speaks this same
// protocol; a grouped place needs no op of its own there, because each
// cell's admission already enforces anti-collocation over its own PMs.
//
// Online rebalancing (DESIGN.md §9): collector agents push CPU samples and
// operators steer the background planner:
//
//   {"op":"util","vm":7,"cpu":0.83}                   per-VM utilization sample
//   {"op":"util","pm":3,"cpu":0.95}                   direct per-PM sample
//   {"op":"rebalance"}                                planner status
//   {"op":"rebalance","action":"trigger"}             also: pause | resume
//
// Failures are structured, never a dropped connection:
//   {"ok":false,"op":"place","vm":9,"error":"no_capacity","message":"..."}
//   {"ok":false,"error":"queue_full","retry_after_ms":5}
//
// The codec is deliberately self-contained (no external JSON dependency)
// and hardened: malformed frames, oversized frames, unknown ops and
// type-confused fields all parse to a ProtocolError that the server turns
// into an {"ok":false,...} reply.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace prvm {

/// Hard cap on one request line (protocol frames are tiny; anything larger
/// is hostile or corrupt).
inline constexpr std::size_t kMaxFrameBytes = 64 * 1024;

/// Cap for replication traffic (`repl_snap` snapshot chunks and
/// `repl_frames` WAL batches carry raw payloads of up to 1 MiB, far beyond
/// client frames). Only servers that opt in (follower mode) raise their
/// frame buffers to this; parse_request accepts up to this bound and leaves
/// per-connection policy to the transport.
inline constexpr std::size_t kMaxReplFrameBytes = 4 * 1024 * 1024;

/// A parsed JSON value: the DOM parse_json builds for responses and tools.
/// Requests never build one (parse_request scans its line in place), but
/// both walk the same grammar, so they accept and reject the same bytes with
/// the same messages.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kObject, kArray };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<std::pair<std::string, JsonValue>> object;
  std::vector<JsonValue> array;

  /// First member with the given key; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
};

/// Parses one JSON document. Returns nullopt and fills `error` on malformed
/// input (trailing garbage after the document is also an error).
std::optional<JsonValue> parse_json(std::string_view text, std::string* error);

/// Serializes a string with JSON escaping (quotes included).
std::string json_quote(std::string_view s);

enum class RequestOp {
  kPlace,
  kRelease,
  kMigrate,
  kLookup,
  kStats,
  kHealth,
  kMetrics,
  kDrain,
  kReplHello,     ///< "repl_hello": leader<->follower handshake (op_seq exchange)
  kReplSnapshot,  ///< "repl_snap": one chunk of a catch-up snapshot (raw bytes)
  kReplFrames,    ///< "repl_frames": a batch of CRC-framed WAL records (raw bytes)
  kPromote,       ///< "promote": flip a follower to leader
  kUtil,          ///< "util": one CPU utilization sample (vm- or pm-keyed)
  kRebalance,     ///< "rebalance": planner status / trigger / pause / resume
  /// Internal: the rebalance planner asks the worker for a frozen ledger
  /// copy through the normal queue (Request::scan_sink). Never appears on
  /// the wire — parse_request rejects it as unknown_op.
  kRebalanceScan,
};

const char* to_string(RequestOp op);

/// Ledger snapshot handed from the service worker to the rebalance planner
/// (defined in rebalance/planner.hpp; carried by reference through Request).
struct ScanSink;

struct Request {
  RequestOp op = RequestOp::kStats;
  std::uint64_t vm_id = 0;
  /// VM type: either a catalog index or a type name, as sent on the wire.
  std::optional<std::uint64_t> vm_type_index;
  std::string vm_type_name;
  /// Anti-collocation group of a place; empty = unconstrained.
  std::string group;
  /// The cell a `util` sample addresses behind a router (required for
  /// pm-keyed samples, whose pm indices are per-cell); absent elsewhere.
  std::optional<std::uint64_t> cell;
  /// Replication sequence number: the sender's op_seq on repl_hello, the
  /// snapshot's last op_seq on repl_snap, the batch's last op_seq on
  /// repl_frames, and an optional minimum-op_seq guard on promote.
  std::optional<std::uint64_t> seq;
  /// Byte offset of a repl_snap chunk within the snapshot blob.
  std::optional<std::uint64_t> offset;
  /// Last chunk marker on repl_snap.
  bool eof = false;
  /// Raw payload bytes (snapshot chunk or framed WAL records): PRVB1
  /// carries them behind a u32 length prefix, JSON escapes them.
  std::string data;
  /// Target PM of a pm-keyed `util` sample; vm-keyed samples use vm_id
  /// (exactly one of the two is present on a well-formed util request).
  std::optional<std::uint64_t> pm;
  /// CPU utilization fraction on `util` (0..2; > 1 means bursting past the
  /// reservation). Negative = absent.
  double cpu = -1.0;
  /// `rebalance` sub-command: "" (status) | trigger | pause | resume.
  std::string action;
  /// Internal, never on the wire: destination utilization cap the rebalance
  /// planner attaches to its migrate requests (the CloudSim rule — a PM at
  /// or above the threshold cannot receive migrating VMs). Negative = none.
  double rebalance_dest_cap = -1.0;
  /// Internal: an underload-consolidation migrate must land on an already
  /// used PM — packing onto an empty PM would just relocate the underload.
  bool rebalance_consolidate = false;
  /// Internal, never on the wire: filled by the worker with a frozen ledger
  /// copy on a kRebalanceScan request.
  std::shared_ptr<ScanSink> scan_sink;
};

/// A request that could not be decoded; `code` is machine-readable and goes
/// out verbatim in the error response.
struct ProtocolError {
  std::string code;     ///< bad_json | oversized_frame | unknown_op | missing_field | bad_field
  std::string message;  ///< human-readable detail
};

// --- the request schema both codecs share -----------------------------------
//
// A codec only decodes syntax: the JSON scanner and the PRVB1 decoder (the
// binary codec, binary_protocol.hpp) each fill one RequestFields, and
// validate_request turns that into a Request or a ProtocolError by the same
// rules, codes and messages for both.

/// The request members an op can read (JSON keys; PRVB1 presence bits), in
/// the order validate_request checks them.
enum class RequestKey : std::uint8_t {
  kVm, kType, kGroup, kPm, kCpu, kCell, kSeq, kData, kOffset, kEof, kAction,
};
inline constexpr std::size_t kRequestKeyCount = static_cast<std::size_t>(RequestKey::kAction) + 1;

/// One raw member value as a codec decoded it. JSON numbers arrive as
/// doubles; PRVB1 carries exact unsigned integers. Strings view the input
/// (or a buffer the codec keeps alive until validate_request returns).
struct RequestValue {
  enum class Kind : std::uint8_t { kOther, kBool, kNumber, kUnsigned, kString };
  Kind kind;
  bool boolean;
  double number;
  std::uint64_t integer;
  std::string_view string;
};

/// The first value of each request key a codec saw. Values are left
/// uninitialized, so a decode does not clear them all; only the keys in
/// `present` hold one.
struct RequestFields {
  std::uint16_t present = 0;  ///< bit per RequestKey
  RequestValue values[kRequestKeyCount];

  bool has(RequestKey key) const { return (present >> static_cast<int>(key)) & 1u; }
  /// Marks `key` present and returns its value to fill.
  RequestValue& set(RequestKey key) {
    present = static_cast<std::uint16_t>(present | (1u << static_cast<int>(key)));
    return values[static_cast<std::size_t>(key)];
  }
  /// The value of `key`; nullptr when it is absent or an empty string. The
  /// PRVB1 encoder omits empty strings, so both codecs treat "" as absent.
  const RequestValue* find(RequestKey key) const;
};

/// One row of the op table.
struct RequestSchema {
  RequestOp op;
  const char* name;           ///< JSON "op" value, and to_string(op)
  std::uint8_t code;          ///< frozen PRVB1 op code; 0 = not a wire op
  std::uint16_t read_keys;    ///< bit per RequestKey the op reads; others are ignored
  std::uint16_t needed_keys;  ///< the keys among read_keys it cannot do without

  bool reads(RequestKey key) const { return (read_keys >> static_cast<int>(key)) & 1u; }
  bool needs(RequestKey key) const { return (needed_keys >> static_cast<int>(key)) & 1u; }
};

const RequestSchema& request_schema(RequestOp op);
/// The wire op with this JSON name or this PRVB1 code; nullptr for any
/// other (kRebalanceScan has neither).
const RequestSchema* wire_op_named(std::string_view name);
const RequestSchema* wire_op_of_code(std::uint8_t code);

/// Validates the members a codec decoded for `op`: `vm` is a 32-bit id,
/// `type` a name or a catalog index up to 0xFFFFFFFF, the repl ops carry
/// `seq`, `data` and `offset` (`seq` is optional on promote), a util names
/// exactly one of `vm` or `pm` with `cpu` in [0, 2] and an optional `cell`,
/// and a rebalance action is status, trigger, pause or resume. Keys the
/// op's row does not read are ignored.
std::variant<Request, ProtocolError> validate_request(RequestOp op, const RequestFields& fields);

/// Decodes one request line (newline already stripped) in one pass: the
/// whole line is validated as JSON, the first member of each request key
/// wins (as JsonValue::find would pick it), and unknown members are checked
/// and skipped; validate_request then checks the members. Strings are
/// copied out of the line only into the Request.
std::variant<Request, ProtocolError> parse_request(std::string_view line);

/// Encodes a request as one JSON line, including the trailing '\n': the
/// present fields the op's schema row reads, every string escaped. It
/// round-trips through parse_request().
std::string encode_request(const Request& request);

/// As above, appending to `out` instead of allocating a fresh string.
void encode_request_into(const Request& request, std::string& out);

/// One response line. `extra` carries pre-encoded JSON members (stats
/// counters) appended verbatim.
struct Response {
  bool ok = false;
  std::string op;
  std::optional<std::uint64_t> vm;
  std::optional<std::uint64_t> pm;
  std::string error;    ///< machine-readable code when !ok
  std::string message;  ///< optional human-readable detail
  std::optional<double> retry_after_ms;
  /// (key, already-encoded JSON value) pairs, e.g. {"used_pms", "17"}.
  std::vector<std::pair<std::string, std::string>> extra;
};

/// Encodes a response as one JSON line, including the trailing '\n'.
std::string encode_response(const Response& response);

/// As above, appending to `out` instead of allocating a fresh string. The
/// socket writer reuses one buffer across a whole burst of responses and
/// ships them in a single send().
void encode_response_into(const Response& response, std::string& out);

/// Re-encodes a parsed JSON value (used to preserve unknown response
/// members verbatim when a response is parsed, annotated and re-sent).
std::string encode_json(const JsonValue& value);

/// Decodes one response line (newline already stripped), the inverse of
/// encode_response. Members beyond the fixed Response fields land in
/// `extra` re-encoded, so a router can forward cell responses losslessly.
/// Returns nullopt on malformed input.
std::optional<Response> parse_response(std::string_view line, std::string* error);

/// Reassembles newline-delimited frames from arbitrary read chunks.
/// Oversized frames are reported once and the stream resynchronizes at the
/// next newline instead of dying. Lines are handed out as views into the
/// buffer, whose consumed prefix is compacted lazily on feed().
class LineBuffer {
 public:
  explicit LineBuffer(std::size_t max_frame = kMaxFrameBytes) : max_frame_(max_frame) {}

  /// Appends raw bytes from a read(). Invalidates every Frame::line handed
  /// out before.
  void feed(std::string_view bytes);

  struct Frame {
    bool oversized = false;  ///< frame exceeded the cap and was discarded
    /// Complete line (without '\n'), empty if oversized. Views the buffer:
    /// valid until the next feed().
    std::string_view line;
  };

  /// Pops the next complete frame, or nullopt when more bytes are needed.
  std::optional<Frame> next();

  /// Bytes held, consumed prefix included (bounded by the lazy compaction).
  std::size_t buffered_bytes() const { return buffer_.size(); }

 private:
  std::size_t max_frame_;
  std::string buffer_;
  std::size_t start_ = 0;    ///< first byte not yet handed out
  std::size_t scanned_ = 0;  ///< prefix of buffer_ known to hold no '\n'
  bool discarding_ = false;  ///< inside an already-reported oversized frame
};

/// Pops the next request line: nullopt when no complete line is buffered.
/// Blank lines are skipped; an oversized line decodes to its error, which
/// the server answers in that request's response slot.
std::optional<std::variant<Request, ProtocolError>> next_request(LineBuffer& lines);

/// The response a server sends for a request it could not decode.
Response protocol_error_response(const ProtocolError& error);

}  // namespace prvm
