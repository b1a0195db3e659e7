// PRVB1 binary codec (DESIGN.md §10): every wire op must round-trip to the
// exact Request struct the JSON parser produces, responses must round-trip
// losslessly (extras included), and hostile input must mirror LineBuffer
// semantics — every framed damage (bad CRC, oversized header) is its own
// structured report so each damaged pipelined request consumes exactly one
// response slot, unframed garbage collapses to one report per run, and the
// stream always resynchronizes cleanly.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "service/binary_protocol.hpp"
#include "service/protocol.hpp"

namespace prvm {
namespace {

Request place_request(std::uint64_t vm, std::size_t type, std::string group = "") {
  Request request;
  request.op = RequestOp::kPlace;
  request.vm_id = vm;
  request.vm_type_index = type;
  request.group = std::move(group);
  return request;
}

Request vm_request(RequestOp op, std::uint64_t vm) {
  Request request;
  request.op = op;
  request.vm_id = vm;
  return request;
}

/// Every wire-encodable request shape (the JSON round-trip test's list plus
/// util, rebalance and the replication ops).
std::vector<Request> wire_requests() {
  std::vector<Request> requests;
  requests.push_back(place_request(7, 2, "web"));
  requests.push_back(place_request(8, 0));
  requests.push_back(vm_request(RequestOp::kRelease, 3));
  requests.push_back(vm_request(RequestOp::kMigrate, 4));
  requests.push_back(vm_request(RequestOp::kLookup, 5));
  for (const RequestOp op :
       {RequestOp::kStats, RequestOp::kHealth, RequestOp::kMetrics, RequestOp::kDrain,
        RequestOp::kPromote}) {
    Request request;
    request.op = op;
    requests.push_back(request);
  }
  requests.push_back(place_request(9, 1, "g \"quoted\""));
  Request by_name;
  by_name.op = RequestOp::kPlace;
  by_name.vm_id = 11;
  by_name.vm_type_name = "m3.xlarge";
  requests.push_back(by_name);
  {
    Request util;
    util.op = RequestOp::kUtil;
    util.vm_id = 12;
    util.cpu = 0.8125;
    requests.push_back(util);
    util.vm_id = 0;
    util.pm = 4;
    requests.push_back(util);
  }
  {
    Request rebalance;
    rebalance.op = RequestOp::kRebalance;
    requests.push_back(rebalance);
    rebalance.action = "trigger";
    requests.push_back(rebalance);
  }
  {
    Request hello;
    hello.op = RequestOp::kReplHello;
    hello.seq = 41;
    requests.push_back(hello);
    Request snap;
    snap.op = RequestOp::kReplSnapshot;
    snap.seq = 42;
    snap.offset = 128;
    snap.eof = true;
    snap.data = "deadbeef";
    requests.push_back(snap);
    Request frames;
    frames.op = RequestOp::kReplFrames;
    frames.seq = 43;
    frames.data = "cafe";
    requests.push_back(frames);
    // Replication payloads are raw bytes: both codecs must carry every
    // byte value, JSON's escapes included.
    const std::string raw_bytes{'\x00', '\n', '"', '\\', '\x80', '\xFF', 'z'};
    snap.data = raw_bytes;
    requests.push_back(snap);
    frames.data = raw_bytes;
    requests.push_back(frames);
    Request promote;
    promote.op = RequestOp::kPromote;
    promote.seq = 44;
    requests.push_back(promote);
  }
  return requests;
}

/// Decodes exactly one intact frame out of `bytes`; the payload is copied
/// into `storage` so it outlives the function-local frame buffer.
BinaryFrameBuffer::Frame one_frame(std::string_view bytes, std::string& storage) {
  BinaryFrameBuffer frames;
  frames.feed(bytes);
  const auto frame = frames.next();
  if (!frame.has_value()) {
    ADD_FAILURE() << "expected one complete frame";
    return {};
  }
  storage.assign(frame->payload);
  BinaryFrameBuffer::Frame copy = *frame;
  copy.payload = storage;
  return copy;
}

void put_u64_le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void expect_same_request(const Request& a, const Request& b, const char* what) {
  EXPECT_EQ(a.op, b.op) << what;
  EXPECT_EQ(a.vm_id, b.vm_id) << what;
  EXPECT_EQ(a.vm_type_index, b.vm_type_index) << what;
  EXPECT_EQ(a.vm_type_name, b.vm_type_name) << what;
  EXPECT_EQ(a.group, b.group) << what;
  EXPECT_EQ(a.cell, b.cell) << what;
  EXPECT_EQ(a.seq, b.seq) << what;
  EXPECT_EQ(a.offset, b.offset) << what;
  EXPECT_EQ(a.eof, b.eof) << what;
  EXPECT_EQ(a.data, b.data) << what;
  EXPECT_EQ(a.pm, b.pm) << what;
  EXPECT_EQ(a.cpu, b.cpu) << what;
  EXPECT_EQ(a.action, b.action) << what;
}

TEST(BinaryProtocol, RequestRoundTripsEveryOpIdenticallyToJson) {
  const BinaryStringTable empty_table;
  for (const Request& request : wire_requests()) {
    std::string encoded;
    encode_binary_request_into(request, encoded);
    std::string storage;
    const auto frame = one_frame(encoded, storage);
    ASSERT_EQ(frame.status, BinaryFrameBuffer::Status::kOk);
    ASSERT_EQ(frame.kind, BinaryFrameKind::kRequest);
    const auto parsed = parse_binary_request(frame.payload, empty_table);
    const Request* binary_round = std::get_if<Request>(&parsed);
    ASSERT_NE(binary_round, nullptr)
        << to_string(request.op) << ": " << std::get<ProtocolError>(parsed).message;

    // The differential anchor: the JSON parse of the JSON encode and the
    // binary parse of the binary encode must agree field for field.
    const std::string line = encode_request(request);
    const auto json_parsed = parse_request(std::string_view(line).substr(0, line.size() - 1));
    const Request* json_round = std::get_if<Request>(&json_parsed);
    ASSERT_NE(json_round, nullptr) << line;
    expect_same_request(*binary_round, *json_round, to_string(request.op));
  }
}

TEST(BinaryProtocol, ResponseRoundTripsLosslessIncludingExtras) {
  std::vector<Response> responses;
  {
    Response ok;
    ok.ok = true;
    ok.op = "place";
    ok.vm = 7;
    ok.pm = 12;
    responses.push_back(ok);
  }
  {
    Response rejected;
    rejected.ok = false;
    rejected.op = "place";
    rejected.vm = 9;
    rejected.error = "no_capacity";
    rejected.message = "no PM fits \"m3.xlarge\"";
    responses.push_back(rejected);
  }
  {
    Response busy;
    busy.ok = false;
    busy.error = "queue_full";
    busy.retry_after_ms = 5.25;
    responses.push_back(busy);
  }
  {
    Response stats;
    stats.ok = true;
    stats.op = "stats";
    stats.extra.emplace_back("used_pms", "17");
    stats.extra.emplace_back("state_digest", "\"123456789\"");
    stats.extra.emplace_back("role", "\"leader\"");
    responses.push_back(stats);
  }
  {
    Response odd;
    odd.ok = true;
    odd.op = "custom_op_name";  // op outside the wire table travels inline
    responses.push_back(odd);
  }
  for (const Response& response : responses) {
    std::string encoded;
    encode_binary_response_into(response, encoded);
    std::string storage;
    const auto frame = one_frame(encoded, storage);
    ASSERT_EQ(frame.status, BinaryFrameBuffer::Status::kOk);
    ASSERT_EQ(frame.kind, BinaryFrameKind::kResponse);
    std::string error;
    const auto round = parse_binary_response(frame.payload, &error);
    ASSERT_TRUE(round.has_value()) << error;
    EXPECT_EQ(round->ok, response.ok);
    EXPECT_EQ(round->op, response.op);
    EXPECT_EQ(round->vm, response.vm);
    EXPECT_EQ(round->pm, response.pm);
    EXPECT_EQ(round->error, response.error);
    EXPECT_EQ(round->message, response.message);
    EXPECT_EQ(round->retry_after_ms, response.retry_after_ms);
    EXPECT_EQ(round->extra, response.extra);
  }
}

TEST(BinaryProtocol, InternSlotsResolveAndUnknownSlotIsBadField) {
  BinaryStringTable table;
  std::string intern;
  append_intern_frame(5, "c5.2xlarge", intern);
  std::string storage;
  const auto frame = one_frame(intern, storage);
  ASSERT_EQ(frame.kind, BinaryFrameKind::kIntern);
  const auto parsed_intern = parse_intern(frame.payload);
  ASSERT_TRUE(parsed_intern.has_value());
  EXPECT_TRUE(table.install(parsed_intern->first, parsed_intern->second));

  Request place;
  place.op = RequestOp::kPlace;
  place.vm_id = 1;
  place.vm_type_name = "c5.2xlarge";
  std::string by_slot;
  encode_binary_request_into(place, by_slot, 5);
  const auto slot_frame = one_frame(by_slot, storage);
  const auto via_slot = parse_binary_request(slot_frame.payload, table);
  const Request* round = std::get_if<Request>(&via_slot);
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->vm_type_name, "c5.2xlarge");

  // Same bytes against a table that never interned the slot: bad_field, the
  // same code JSON type confusion reports — never a crash or a wrong type.
  const BinaryStringTable empty;
  const auto unknown = parse_binary_request(slot_frame.payload, empty);
  const ProtocolError* error = std::get_if<ProtocolError>(&unknown);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, "bad_field");

  // The table cap is enforced at install time.
  EXPECT_FALSE(table.install(BinaryStringTable::kMaxSlots, "overflow"));
}

// The table is bounded by the bytes of its names too: 1,024 slots of
// 65,535-byte names would let one connection pin 64 MiB. An intern past the
// byte cap is dropped like one past the last slot, and later references to
// its slot decode as bad_field; overwriting a slot releases the old name's
// bytes.
TEST(BinaryProtocol, InternsPastTheByteCapAreDropped) {
  BinaryStringTable table;
  const std::string big(BinaryStringTable::kMaxBytes - 100, 'x');
  ASSERT_TRUE(table.install(0, big));
  EXPECT_TRUE(table.install(1, std::string(100, 'y'))) << "exactly at the cap";
  EXPECT_EQ(table.bytes(), BinaryStringTable::kMaxBytes);
  EXPECT_FALSE(table.install(2, "c5.2xlarge")) << "one name past the cap";
  EXPECT_EQ(table.lookup(2), nullptr);
  EXPECT_FALSE(table.install(1, std::string(101, 'y'))) << "a longer overwrite past the cap";
  ASSERT_NE(table.lookup(1), nullptr);
  EXPECT_EQ(table.lookup(1)->size(), 100u) << "a dropped overwrite keeps the old name";

  // Through the connection path: the intern frame is dropped, the request
  // naming its slot is bad_field, and the table holds what it held.
  BinaryFrameBuffer frames;
  std::string bytes;
  ASSERT_TRUE(append_intern_frame(2, "c5.2xlarge", bytes));
  Request place;
  place.op = RequestOp::kPlace;
  place.vm_id = 1;
  place.vm_type_name = "c5.2xlarge";
  ASSERT_TRUE(encode_binary_request_into(place, bytes, 2));
  frames.feed(bytes);
  const auto dropped = next_request(frames, table);
  ASSERT_TRUE(dropped.has_value());
  const ProtocolError* error = std::get_if<ProtocolError>(&*dropped);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, "bad_field");
  EXPECT_EQ(error->message, "type slot 2 not interned");
  EXPECT_EQ(table.bytes(), BinaryStringTable::kMaxBytes);

  // A shorter overwrite frees room, and the same intern then lands.
  EXPECT_TRUE(table.install(0, "m5.large"));
  EXPECT_EQ(table.bytes(), 108u);
  frames.feed(bytes);
  const auto installed = next_request(frames, table);
  ASSERT_TRUE(installed.has_value());
  const Request* request = std::get_if<Request>(&*installed);
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->vm_type_name, "c5.2xlarge");
}

// A request payload built field by field (op byte, field bits, string bits,
// reserved byte, then the fields the bits declare, little-endian).
struct Payload {
  std::string bytes;
  Payload(std::uint8_t op, std::uint8_t fields, std::uint8_t strs) {
    bytes = {static_cast<char>(op), static_cast<char>(fields), static_cast<char>(strs), 0};
  }
  Payload& u64(std::uint64_t v) {
    put_u64_le(bytes, v);
    return *this;
  }
  Payload& u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    return *this;
  }
  Payload& str16(std::string_view s) {
    bytes.push_back(static_cast<char>(s.size() & 0xFF));
    bytes.push_back(static_cast<char>(s.size() >> 8));
    bytes.append(s);
    return *this;
  }
  Payload& str8(std::string_view s) {
    bytes.push_back(static_cast<char>(s.size()));
    bytes.append(s);
    return *this;
  }
  Payload& str32(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes.append(s);
    return *this;
  }
};

// Presence bits (binary_protocol.cpp): fields, then strings.
constexpr std::uint8_t kVm = 1, kPm = 2, kCell = 4, kSeq = 8, kOffset = 16, kCpu = 32,
                       kTypeIndex = 64;
constexpr std::uint8_t kTypeName = 2, kGroup = 4, kAction = 8, kData = 16;
constexpr std::uint64_t kCpuHalf = 0x3FE0000000000000ull;  // 0.5 as f64 bits
constexpr std::uint64_t kCpuTwoAndAHalf = 0x4004000000000000ull;

TEST(BinaryProtocol, ValidationMatchesJsonErrorCodes) {
  // One request in each codec: both must reject it with the same code and
  // message, or both accept it as the same Request. A catalog index above
  // u32 has no PRVB1 form (the field is 32 bits); the encoder refuses it
  // (EncoderRefusesStringsBeyondWireLimitsInsteadOfTruncating).
  struct Case {
    const char* json;
    std::string payload;
  };
  const Case cases[] = {
      {R"({"op":"place","vm":1})", Payload(1, kVm, 0).u64(1).bytes},
      {R"({"op":"place","vm":4294967296,"type":0})",
       Payload(1, kVm | kTypeIndex, 0).u64(0x1'0000'0000ull).u32(0).bytes},
      {R"({"op":"lookup"})", Payload(4, 0, 0).bytes},
      {R"({"op":"util","vm":3,"cpu":2.5})",
       Payload(16, kVm | kCpu, 0).u64(3).u64(kCpuTwoAndAHalf).bytes},
      {R"({"op":"util","vm":3,"pm":4,"cpu":0.5})",
       Payload(16, kVm | kPm | kCpu, 0).u64(3).u64(4).u64(kCpuHalf).bytes},
      {R"({"op":"util","cpu":0.5})", Payload(16, kCpu, 0).u64(kCpuHalf).bytes},
      {R"({"op":"util","vm":3})", Payload(16, kVm, 0).u64(3).bytes},
      {R"({"op":"util","pm":4})", Payload(16, kPm, 0).u64(4).bytes},
      {R"({"op":"util","pm":4,"cpu":0.5,"cell":1})",
       Payload(16, kPm | kCell | kCpu, 0).u64(4).u64(1).u64(kCpuHalf).bytes},
      {R"({"op":"rebalance","action":"explode"})",
       Payload(17, 0, kAction).str8("explode").bytes},
      {R"({"op":"rebalance","action":""})", Payload(17, 0, kAction).str8("").bytes},
      {R"({"op":"repl_hello"})", Payload(12, 0, 0).bytes},
      {R"({"op":"repl_snap","seq":1,"data":"x"})",
       Payload(13, kSeq, kData).u64(1).str32("x").bytes},
      {R"({"op":"promote"})", Payload(15, 0, 0).bytes},
      // The empty strings: each is an absent field in both codecs.
      {R"({"op":"place","vm":1,"type":""})", Payload(1, kVm, kTypeName).u64(1).str16("").bytes},
      {R"({"op":"repl_frames","seq":1,"data":""})",
       Payload(14, kSeq, kData).u64(1).str32("").bytes},
      {R"({"op":"repl_snap","seq":1,"offset":0,"data":""})",
       Payload(13, kSeq | kOffset, kData).u64(1).u64(0).str32("").bytes},
      // Fields an op does not read are ignored by both codecs.
      {R"({"op":"release","vm":3,"group":"web","seq":77,"cell":1,"action":"trigger"})",
       Payload(2, kVm | kCell | kSeq, kGroup | kAction)
           .u64(3)
           .u64(1)
           .u64(77)
           .str16("web")
           .str8("trigger")
           .bytes},
      {R"({"op":"stats","vm":5,"pm":6,"data":"x"})",
       Payload(5, kVm | kPm, kData).u64(5).u64(6).str32("x").bytes},
  };
  const BinaryStringTable table;
  for (const Case& c : cases) {
    const auto json = parse_request(c.json);
    const auto binary = parse_binary_request(c.payload, table);
    const auto* json_error = std::get_if<ProtocolError>(&json);
    const auto* binary_error = std::get_if<ProtocolError>(&binary);
    ASSERT_EQ(json_error != nullptr, binary_error != nullptr)
        << c.json << ": " << (json_error != nullptr ? json_error->message : binary_error->message);
    if (json_error != nullptr) {
      EXPECT_EQ(binary_error->code, json_error->code) << c.json;
      EXPECT_EQ(binary_error->message, json_error->message) << c.json;
    } else {
      expect_same_request(std::get<Request>(binary), std::get<Request>(json), c.json);
    }
  }

  // The internal scan op has no wire code: it encodes to op 0, which must
  // decode as unknown_op — kRebalanceScan can never cross a socket.
  Request scan;
  scan.op = RequestOp::kRebalanceScan;
  std::string encoded;
  ASSERT_TRUE(encode_binary_request_into(scan, encoded));
  std::string storage;
  const auto parsed = parse_binary_request(one_frame(encoded, storage).payload, table);
  const ProtocolError* error = std::get_if<ProtocolError>(&parsed);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, "unknown_op");
}

TEST(BinaryProtocol, FrameBufferReassemblesArbitraryChunks) {
  const std::vector<Request> requests = wire_requests();
  std::string stream;
  for (const Request& request : requests) encode_binary_request_into(request, stream);

  Rng rng(0xb17e5u);
  for (int round = 0; round < 50; ++round) {
    BinaryFrameBuffer frames;
    const BinaryStringTable table;
    std::size_t decoded = 0;
    std::size_t fed = 0;
    while (true) {
      while (const auto frame = frames.next()) {
        ASSERT_EQ(frame->status, BinaryFrameBuffer::Status::kOk);
        const auto parsed = parse_binary_request(frame->payload, table);
        const Request* round_trip = std::get_if<Request>(&parsed);
        ASSERT_NE(round_trip, nullptr);
        ASSERT_LT(decoded, requests.size());
        expect_same_request(*round_trip, requests[decoded], "chunked");
        ++decoded;
      }
      if (fed >= stream.size()) break;
      const std::size_t chunk = std::min<std::size_t>(
          stream.size() - fed, 1 + rng.uniform_index(7));
      frames.feed(std::string_view(stream).substr(fed, chunk));
      fed += chunk;
    }
    EXPECT_EQ(decoded, requests.size());
  }
}

TEST(BinaryProtocol, GarbagePrefixIsReportedOnceAndStreamResyncs) {
  std::string stream = "GET / HTTP/1.1\r\n\r\n";  // never a PRVB1 header
  Request place = place_request(21, 1);
  encode_binary_request_into(place, stream);

  BinaryFrameBuffer frames;
  frames.feed(stream);
  const auto garbage = frames.next();
  ASSERT_TRUE(garbage.has_value());
  EXPECT_EQ(garbage->status, BinaryFrameBuffer::Status::kGarbage);
  const auto recovered = frames.next();
  ASSERT_TRUE(recovered.has_value());
  ASSERT_EQ(recovered->status, BinaryFrameBuffer::Status::kOk);
  const BinaryStringTable table;
  const auto parsed = parse_binary_request(recovered->payload, table);
  const Request* round = std::get_if<Request>(&parsed);
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->vm_id, 21u);
  EXPECT_FALSE(frames.next().has_value());
}

TEST(BinaryProtocol, TruncatedFrameWaitsForTheRest) {
  std::string frame_bytes;
  encode_binary_request_into(place_request(5, 0), frame_bytes);
  BinaryFrameBuffer frames;
  // Byte-by-byte: no spurious frame or damage report mid-way.
  for (std::size_t i = 0; i + 1 < frame_bytes.size(); ++i) {
    frames.feed(std::string_view(&frame_bytes[i], 1));
    EXPECT_FALSE(frames.next().has_value()) << "after byte " << i;
  }
  frames.feed(std::string_view(&frame_bytes[frame_bytes.size() - 1], 1));
  const auto frame = frames.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->status, BinaryFrameBuffer::Status::kOk);
}

TEST(BinaryProtocol, OversizedLengthIsReportedPerHeaderAndNeverTrusted) {
  // Hostile headers claiming a 1 GiB payload: the buffer must not wait for
  // (or allocate) a gigabyte, and every oversized header must get its own
  // report — each one consumed a pipelined request slot — before resyncing
  // on the next plausible header.
  const auto hostile_header = [](std::string& out) {
    out.push_back(static_cast<char>(kBinaryMagic));
    out.push_back(1);  // kRequest
    out.push_back(0);
    out.push_back(0);
    const std::uint32_t huge = 1u << 30;
    for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
    for (int i = 0; i < 4; ++i) out.push_back(0);  // crc, irrelevant
  };
  std::string stream;
  hostile_header(stream);
  hostile_header(stream);
  encode_binary_request_into(place_request(6, 0), stream);

  BinaryFrameBuffer frames;
  frames.feed(stream);
  for (int report = 0; report < 2; ++report) {
    const auto oversized = frames.next();
    ASSERT_TRUE(oversized.has_value()) << "report " << report;
    EXPECT_EQ(oversized->status, BinaryFrameBuffer::Status::kOversized) << "report " << report;
  }
  const auto recovered = frames.next();
  ASSERT_TRUE(recovered.has_value());
  ASSERT_EQ(recovered->status, BinaryFrameBuffer::Status::kOk);
  const BinaryStringTable table;
  const auto parsed = parse_binary_request(recovered->payload, table);
  ASSERT_NE(std::get_if<Request>(&parsed), nullptr);
  EXPECT_FALSE(frames.next().has_value());
}

TEST(BinaryProtocol, EveryBadCrcFrameIsReportedAndTheNextFrameDecodes) {
  // Two corrupted pipelined frames must yield two reports: the frame
  // boundary is exact, and a once-per-run collapse would permanently shift
  // the request/response FIFO on a live connection.
  std::string damaged;
  encode_binary_request_into(place_request(7, 0), damaged);
  damaged[damaged.size() - 1] ^= 0x40;  // flip a payload bit in frame 1
  encode_binary_request_into(place_request(8, 0), damaged);
  damaged[damaged.size() - 1] ^= 0x40;  // ... and in frame 2
  encode_binary_request_into(place_request(9, 0), damaged);

  BinaryFrameBuffer frames;
  frames.feed(damaged);
  for (int report = 0; report < 2; ++report) {
    const auto bad = frames.next();
    ASSERT_TRUE(bad.has_value()) << "report " << report;
    EXPECT_EQ(bad->status, BinaryFrameBuffer::Status::kBadCrc) << "report " << report;
  }
  const auto good = frames.next();
  ASSERT_TRUE(good.has_value());
  ASSERT_EQ(good->status, BinaryFrameBuffer::Status::kOk);
  const BinaryStringTable table;
  const auto parsed = parse_binary_request(good->payload, table);
  const Request* round = std::get_if<Request>(&parsed);
  ASSERT_NE(round, nullptr);
  EXPECT_EQ(round->vm_id, 9u);
  EXPECT_FALSE(frames.next().has_value());
}

TEST(BinaryProtocol, EncoderRefusesStringsBeyondWireLimitsInsteadOfTruncating) {
  // A string beyond its length prefix must fail the encode outright: a
  // truncated prefix would leave the tail bytes reinterpreted as later
  // fields — silent corruption instead of an error.
  const std::string huge(0x10000, 'g');

  Request big_group = place_request(1, 0, huge);
  std::string out = "prefix";
  EXPECT_FALSE(encode_binary_request_into(big_group, out));
  EXPECT_EQ(out, "prefix");  // nothing half-written

  Request big_type;
  big_type.op = RequestOp::kPlace;
  big_type.vm_id = 2;
  big_type.vm_type_name = huge;
  EXPECT_FALSE(encode_binary_request_into(big_type, out));

  Request big_action;
  big_action.op = RequestOp::kRebalance;
  big_action.action = std::string(0x100, 'a');
  EXPECT_FALSE(encode_binary_request_into(big_action, out));
  EXPECT_EQ(out, "prefix");

  EXPECT_FALSE(append_intern_frame(1, huge, out));
  EXPECT_EQ(out, "prefix");

  // A catalog index beyond the u32 field is refused the same way: wrapped,
  // 4294967298 would place a type-2 VM.
  Request big_index = place_request(4, 0);
  big_index.vm_type_index = 0x1'0000'0002ull;
  EXPECT_FALSE(encode_binary_request_into(big_index, out));
  EXPECT_EQ(out, "prefix");

  // The in-range shapes still encode.
  Request fits = place_request(3, 0, std::string(0xFFFF, 'g'));
  out.clear();
  EXPECT_TRUE(encode_binary_request_into(fits, out));
  EXPECT_TRUE(append_intern_frame(2, std::string(0xFFFF, 'n'), out));
}

TEST(BinaryProtocol, UnrepresentableResponseSubstitutesStructuredError) {
  // A response that cannot be expressed on the wire must degrade to a
  // decodable per-slot error — never a truncated count that desyncs the
  // stream, never an oversized frame that condemns a cell channel.
  Response too_many;
  too_many.ok = true;
  too_many.op = "stats";
  too_many.vm = 3;
  for (std::size_t i = 0; i < 0x10000; ++i) too_many.extra.emplace_back("k", "1");

  std::string encoded;
  encode_binary_response_into(too_many, encoded);
  std::string storage;
  const auto frame = one_frame(encoded, storage);
  ASSERT_EQ(frame.status, BinaryFrameBuffer::Status::kOk);
  std::string error;
  const auto round = parse_binary_response(frame.payload, &error);
  ASSERT_TRUE(round.has_value()) << error;
  EXPECT_FALSE(round->ok);
  EXPECT_EQ(round->error, "oversized_response");
  EXPECT_EQ(round->op, "stats");
  EXPECT_EQ(round->vm, 3u);
  EXPECT_TRUE(round->extra.empty());
}

TEST(BinaryProtocol, BigButValidResponseSurvivesTheResponseFrameCap) {
  // Responses are not bounded by the 64 KB request cap: a stats/metrics
  // payload beyond kMaxFrameBytes must encode intact and decode through a
  // response-sized frame buffer — the cell channel condemns the connection
  // on kOversized, so this is the difference between a big answer and a
  // dead channel.
  Response big;
  big.ok = true;
  big.op = "metrics";
  big.extra.emplace_back("text", "\"" + std::string(2 * kMaxFrameBytes, 'm') + "\"");

  std::string encoded;
  encode_binary_response_into(big, encoded);
  BinaryFrameBuffer frames(kMaxBinaryResponseBytes);
  frames.feed(encoded);
  const auto frame = frames.next();
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->status, BinaryFrameBuffer::Status::kOk);
  std::string error;
  const auto round = parse_binary_response(frame->payload, &error);
  ASSERT_TRUE(round.has_value()) << error;
  EXPECT_EQ(round->extra, big.extra);
}

TEST(BinaryProtocol, FuzzMutatedStreamsNeverCrashAndReportsAreFinite) {
  // Mirror of the JSON fuzz suite: take a healthy stream, smash random bytes
  // and random truncations into it, and require the decoder to (a) never
  // crash or hang, (b) produce only well-formed verdicts, (c) keep every
  // payload it does emit decodable or cleanly rejected.
  std::string healthy;
  for (const Request& request : wire_requests()) {
    encode_binary_request_into(request, healthy);
  }
  Rng rng(0xf22du);
  const BinaryStringTable table;
  for (int round = 0; round < 200; ++round) {
    std::string stream = healthy;
    const int mutations = 1 + static_cast<int>(rng.uniform_index(8));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.uniform_index(stream.size());
      stream[pos] = static_cast<char>(rng.uniform_int(0, 255));
    }
    if (rng.chance(0.3)) stream.resize(rng.uniform_index(stream.size()));

    BinaryFrameBuffer frames;
    std::size_t fed = 0;
    std::size_t verdicts = 0;
    while (true) {
      while (const auto frame = frames.next()) {
        ++verdicts;
        ASSERT_LT(verdicts, 10000u) << "decoder is not making progress";
        if (frame->status != BinaryFrameBuffer::Status::kOk) continue;
        if (frame->kind == BinaryFrameKind::kRequest) {
          (void)parse_binary_request(frame->payload, table);
        } else if (frame->kind == BinaryFrameKind::kIntern) {
          (void)parse_intern(frame->payload);
        } else {
          std::string error;
          (void)parse_binary_response(frame->payload, &error);
        }
      }
      if (fed >= stream.size()) break;
      const std::size_t chunk =
          std::min<std::size_t>(stream.size() - fed, 1 + rng.uniform_index(63));
      frames.feed(std::string_view(stream).substr(fed, chunk));
      fed += chunk;
    }
  }
}

}  // namespace
}  // namespace prvm
