// Hostile-input tests for the daemon's JSON-lines codec: malformed frames,
// oversized requests, partial reads and unknown commands must all decode to
// structured errors — never a crash, never a dropped byte of a later frame.
// Also the endpoint parser every daemon-to-daemon connection goes through.
#include <gtest/gtest.h>

#include <sys/un.h>

#include <algorithm>
#include <string>
#include <variant>
#include <vector>

#include "service/protocol.hpp"
#include "service/socket_server.hpp"

namespace prvm {
namespace {

const ProtocolError* error_of(const std::variant<Request, ProtocolError>& result) {
  return std::get_if<ProtocolError>(&result);
}

const Request* request_of(const std::variant<Request, ProtocolError>& result) {
  return std::get_if<Request>(&result);
}

TEST(ServiceProtocol, ParsesPlaceWithTypeName) {
  const auto result = parse_request(R"({"op":"place","vm":7,"type":"m3.xlarge"})");
  const Request* request = request_of(result);
  ASSERT_NE(request, nullptr);
  EXPECT_EQ(request->op, RequestOp::kPlace);
  EXPECT_EQ(request->vm_id, 7u);
  EXPECT_EQ(request->vm_type_name, "m3.xlarge");
  EXPECT_FALSE(request->vm_type_index.has_value());
  EXPECT_TRUE(request->group.empty());
}

TEST(ServiceProtocol, ParsesPlaceWithTypeIndexAndGroup) {
  const auto result = parse_request(R"({"op":"place","vm":8,"type":2,"group":"web"})");
  const Request* request = request_of(result);
  ASSERT_NE(request, nullptr);
  ASSERT_TRUE(request->vm_type_index.has_value());
  EXPECT_EQ(*request->vm_type_index, 2u);
  EXPECT_EQ(request->group, "web");
}

TEST(ServiceProtocol, ParsesReleaseMigrateStatsDrain) {
  EXPECT_EQ(request_of(parse_request(R"({"op":"release","vm":1})"))->op, RequestOp::kRelease);
  EXPECT_EQ(request_of(parse_request(R"({"op":"migrate","vm":1})"))->op, RequestOp::kMigrate);
  EXPECT_EQ(request_of(parse_request(R"({"op":"stats"})"))->op, RequestOp::kStats);
  EXPECT_EQ(request_of(parse_request(R"({"op":"drain"})"))->op, RequestOp::kDrain);
}

TEST(ServiceProtocol, ParsesLookupAndHealth) {
  const auto result = parse_request(R"({"op":"lookup","vm":9})");
  const Request* lookup = request_of(result);
  ASSERT_NE(lookup, nullptr);
  EXPECT_EQ(lookup->op, RequestOp::kLookup);
  EXPECT_EQ(lookup->vm_id, 9u);
  EXPECT_EQ(request_of(parse_request(R"({"op":"health"})"))->op, RequestOp::kHealth);

  // lookup is per-VM: a missing id is a structured error, not a crash.
  const auto missing = parse_request(R"({"op":"lookup"})");
  ASSERT_NE(error_of(missing), nullptr);
  EXPECT_EQ(error_of(missing)->code, "missing_field");
}

TEST(ServiceProtocol, MalformedJsonIsStructuredError) {
  for (const char* line : {
           "",                         // empty frame
           "not json at all",          // free text
           "{",                        // truncated object
           R"({"op":"place",})",       // trailing comma
           R"({"op":"place" "vm":1})", // missing comma
           R"({"op":)",                // truncated value
           "\x00\x01\x02",             // binary garbage
           R"({"op":"stats"} trailing)", // trailing garbage after document
           R"([1,2,3])",               // not an object
       }) {
    const auto result = parse_request(line);
    const ProtocolError* error = error_of(result);
    ASSERT_NE(error, nullptr) << "input: " << line;
    EXPECT_EQ(error->code, "bad_json") << "input: " << line;
  }
}

TEST(ServiceProtocol, DeeplyNestedJsonIsRejectedNotStackOverflowed) {
  std::string bomb;
  for (int i = 0; i < 4000; ++i) bomb += '[';
  const auto result = parse_request(bomb);
  const ProtocolError* error = error_of(result);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, "bad_json");
}

TEST(ServiceProtocol, UnknownOpIsStructuredError) {
  const auto result = parse_request(R"({"op":"explode","vm":1})");
  const ProtocolError* error = error_of(result);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->code, "unknown_op");
}

TEST(ServiceProtocol, MissingAndTypeConfusedFieldsAreStructuredErrors) {
  EXPECT_EQ(error_of(parse_request(R"({"vm":1})"))->code, "missing_field");  // no op
  EXPECT_EQ(error_of(parse_request(R"({"op":"place","type":"m3.xlarge"})"))->code,
            "missing_field");  // no vm
  EXPECT_EQ(error_of(parse_request(R"({"op":"place","vm":1})"))->code,
            "missing_field");  // no type
  EXPECT_EQ(error_of(parse_request(R"({"op":"place","vm":"seven","type":1})"))->code,
            "bad_field");  // vm not a number
  EXPECT_EQ(error_of(parse_request(R"({"op":"place","vm":-3,"type":1})"))->code,
            "bad_field");  // negative vm
  EXPECT_EQ(error_of(parse_request(R"({"op":"place","vm":1.5,"type":1})"))->code,
            "bad_field");  // fractional vm
  EXPECT_EQ(error_of(parse_request(R"({"op":"place","vm":4294967296,"type":1})"))->code,
            "bad_field");  // vm over 32 bits
  EXPECT_EQ(error_of(parse_request(R"({"op":"place","vm":1,"type":true})"))->code,
            "bad_field");  // type neither name nor index
  EXPECT_EQ(error_of(parse_request(R"({"op":"place","vm":1,"type":1,"group":7})"))->code,
            "bad_field");  // group not a string
  EXPECT_EQ(error_of(parse_request(R"({"op":7})"))->code, "bad_field");  // op not a string
}

TEST(ServiceProtocol, EncodeResponseRoundTripsThroughParser) {
  Response response;
  response.ok = false;
  response.op = "place";
  response.vm = 9;
  response.error = "no_capacity";
  response.message = "weird \"quotes\" and \n control \x01 bytes";
  response.retry_after_ms = 5.0;
  response.extra.emplace_back("used_pms", "17");

  const std::string line = encode_response(response);
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');

  std::string error;
  const auto doc = parse_json(std::string_view(line.data(), line.size() - 1), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("ok")->kind, JsonValue::Kind::kBool);
  EXPECT_FALSE(doc->find("ok")->boolean);
  EXPECT_EQ(doc->find("vm")->number, 9.0);
  EXPECT_EQ(doc->find("error")->string, "no_capacity");
  EXPECT_EQ(doc->find("message")->string, response.message);
  EXPECT_EQ(doc->find("used_pms")->number, 17.0);
}

TEST(ServiceProtocol, LineBufferReassemblesArbitraryChunks) {
  const std::string stream = "{\"op\":\"stats\"}\n{\"op\":\"drain\"}\n{\"op\":\"place\"}\n";
  // Feed byte-by-byte: worst-case partial reads.
  LineBuffer buffer;
  std::vector<std::string> lines;
  for (char c : stream) {
    buffer.feed(std::string_view(&c, 1));
    while (const auto frame = buffer.next()) {
      EXPECT_FALSE(frame->oversized);
      lines.emplace_back(frame->line);
    }
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "{\"op\":\"stats\"}");
  EXPECT_EQ(lines[2], "{\"op\":\"place\"}");

  // And in one gulp.
  LineBuffer gulp;
  gulp.feed(stream);
  std::size_t count = 0;
  while (gulp.next()) ++count;
  EXPECT_EQ(count, 3u);
}

TEST(ServiceProtocol, OversizedFrameIsDiscardedAndStreamResyncs) {
  LineBuffer buffer(/*max_frame=*/64);
  const std::string huge(1000, 'x');
  buffer.feed(huge);
  // Mid-frame over the cap: reported once, even before the newline arrives.
  auto frame = buffer.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->oversized);
  EXPECT_FALSE(buffer.next().has_value());

  // More of the same oversized frame: silently swallowed.
  buffer.feed(huge);
  EXPECT_FALSE(buffer.next().has_value());

  // Frame ends, next frame is intact.
  buffer.feed("tail-of-garbage\n{\"op\":\"stats\"}\n");
  frame = buffer.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frame->oversized);
  EXPECT_EQ(frame->line, "{\"op\":\"stats\"}");
  EXPECT_FALSE(buffer.next().has_value());
}

TEST(ServiceProtocol, LineBufferOneByteFeedsMatchOneGulp) {
  std::string stream;
  for (int i = 0; i < 50; ++i) {
    stream += R"({"op":"lookup","vm":)" + std::to_string(i) + "}\n";
    if (i % 7 == 0) stream += "\n";  // blank lines are frames too
  }
  std::vector<std::string> gulped;
  LineBuffer gulp;
  gulp.feed(stream);
  while (const auto frame = gulp.next()) gulped.emplace_back(frame->line);
  ASSERT_EQ(gulped.size(), 58u);

  LineBuffer bytewise;
  std::vector<std::string> lines;
  for (const char c : stream) {
    bytewise.feed(std::string_view(&c, 1));
    while (const auto frame = bytewise.next()) {
      EXPECT_FALSE(frame->oversized);
      lines.emplace_back(frame->line);
    }
  }
  EXPECT_EQ(lines, gulped);
}

TEST(ServiceProtocol, LineBufferSplitsAFullFrameCapFeedAndViewsLastUntilTheNextFeed) {
  // One read of 64 KiB holding hundreds of lines: every line comes out
  // whole, and every view handed out stays intact until the next feed().
  std::string stream;
  std::vector<std::string> sent;
  for (int i = 0; stream.size() + 128 < kMaxFrameBytes; ++i) {
    sent.push_back(R"({"op":"place","vm":)" + std::to_string(i) +
                   R"(,"type":"m3.xlarge","group":"g)" + std::to_string(i % 17) + "\"}");
    stream += sent.back() + "\n";
  }
  ASSERT_GT(sent.size(), 500u);
  LineBuffer buffer;
  buffer.feed(stream);
  std::vector<std::string_view> views;
  while (const auto frame = buffer.next()) {
    ASSERT_FALSE(frame->oversized);
    views.push_back(frame->line);
  }
  ASSERT_EQ(views.size(), sent.size());
  for (std::size_t i = 0; i < sent.size(); ++i) EXPECT_EQ(views[i], sent[i]) << i;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const auto request = parse_request(views[i]);
    ASSERT_NE(request_of(request), nullptr) << i;
    EXPECT_EQ(request_of(request)->vm_id, i);
  }
}

TEST(ServiceProtocol, OversizedFrameMidBufferIsReportedBetweenIntactNeighbours) {
  LineBuffer buffer(/*max_frame=*/64);
  buffer.feed("{\"op\":\"stats\"}\n" + std::string(1000, 'x') + "\n{\"op\":\"health\"}\n");
  auto frame = buffer.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frame->oversized);
  EXPECT_EQ(frame->line, "{\"op\":\"stats\"}");
  frame = buffer.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->oversized);
  EXPECT_TRUE(frame->line.empty());
  frame = buffer.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frame->oversized);
  EXPECT_EQ(frame->line, "{\"op\":\"health\"}");
  EXPECT_FALSE(buffer.next().has_value());

  // An oversized frame still arriving, behind an intact one in the same
  // read: the intact line first, then one report, then resync.
  buffer.feed("{\"op\":\"drain\"}\n" + std::string(100, 'y'));
  frame = buffer.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->line, "{\"op\":\"drain\"}");
  frame = buffer.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(frame->oversized);
  EXPECT_FALSE(buffer.next().has_value());
  buffer.feed(std::string(100, 'y') + "\n{\"op\":\"stats\"}\n");
  frame = buffer.next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_FALSE(frame->oversized);
  EXPECT_EQ(frame->line, "{\"op\":\"stats\"}");
}

TEST(ServiceProtocol, LineBufferStaysBoundedOverAHundredThousandFrames) {
  // Reads that always end mid-line, so the consumed prefix never empties
  // the buffer by itself: the lazy compaction must still bound it.
  const std::string line = R"({"op":"util","vm":12345,"cpu":0.5})";
  std::string stream;
  for (int i = 0; i < 100000; ++i) stream += line + "\n";
  LineBuffer buffer;
  std::size_t frames = 0;
  std::size_t peak = 0;
  for (std::size_t at = 0; at < stream.size(); at += 1000) {
    buffer.feed(std::string_view(stream).substr(at, 1000));
    peak = std::max(peak, buffer.buffered_bytes());
    while (const auto frame = buffer.next()) {
      ASSERT_EQ(frame->line, line) << frames;
      ++frames;
    }
  }
  EXPECT_EQ(frames, 100000u);
  EXPECT_LT(peak, 16u * 1024u);
}

TEST(ServiceProtocol, ParseResponseKeepsOutOfRangeIdsAsExtras) {
  // vm/pm are ids only when they are exact unsigned integers; anything
  // else stays a member, re-encoded, so forwarding loses nothing.
  for (const char* value : {"-1", "1.5", "1e+30"}) {
    for (const char* key : {"vm", "pm"}) {
      const std::string line = std::string(R"({"ok":true,")") + key + "\":" + value + "}";
      std::string error;
      const auto response = parse_response(line, &error);
      ASSERT_TRUE(response.has_value()) << error << " in " << line;
      EXPECT_FALSE(response->vm.has_value()) << line;
      EXPECT_FALSE(response->pm.has_value()) << line;
      ASSERT_EQ(response->extra.size(), 1u) << line;
      EXPECT_EQ(response->extra[0].first, key);
      EXPECT_EQ(response->extra[0].second, value);
      EXPECT_EQ(encode_response(*response), line + "\n");
    }
  }
  std::string error;
  const auto ids = parse_response(R"({"ok":true,"vm":7,"pm":4294967296})", &error);
  ASSERT_TRUE(ids.has_value()) << error;
  EXPECT_EQ(ids->vm, 7u);
  EXPECT_EQ(ids->pm, 4294967296u);
  EXPECT_TRUE(ids->extra.empty());
}

TEST(ServiceProtocol, UnicodeEscapesAndEscapedStringsParse) {
  std::string error;
  const auto doc = parse_json(R"({"s":"aA\t\"b\\"})", &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("s")->string, "aA\t\"b\\");
  EXPECT_FALSE(parse_json(R"({"s":"\u12"})", &error).has_value());  // short escape
  EXPECT_FALSE(parse_json("{\"s\":\"unterminated", &error).has_value());
}

TEST(SocketEndpoint, ParsesUnixAndTcpAndRefusesEverythingElse) {
  const auto unix_endpoint = parse_endpoint("unix:/tmp/cell.sock");
  ASSERT_TRUE(unix_endpoint.has_value());
  EXPECT_EQ(unix_endpoint->unix_path, "/tmp/cell.sock");
  EXPECT_EQ(unix_endpoint->tcp_port, -1);
  // The longest path sun_path can hold with its terminator.
  const std::string longest(sizeof(sockaddr_un::sun_path) - 1, 'p');
  ASSERT_TRUE(parse_endpoint("unix:" + longest).has_value());
  for (const int port : {1, 7001, 65535}) {
    const auto tcp = parse_endpoint("tcp:" + std::to_string(port));
    ASSERT_TRUE(tcp.has_value()) << port;
    EXPECT_EQ(tcp->tcp_port, port);
    EXPECT_TRUE(tcp->unix_path.empty());
  }

  for (const std::string& bad :
       {std::string("tcp:0"), std::string("tcp:70000"), std::string("tcp:65536"),
        std::string("tcp:abc"), std::string("tcp:"), std::string("tcp:-1"),
        std::string("tcp:+80"), std::string("tcp: 80"), std::string("tcp:80x"),
        std::string("unix:"), "unix:" + longest + "p", std::string("/tmp/cell.sock"),
        std::string("udp:80"), std::string("")}) {
    EXPECT_FALSE(parse_endpoint(bad).has_value()) << bad;
    EXPECT_EQ(connect_endpoint(bad), -1) << bad;
  }

  // Listener ports: 0 (ephemeral) is fine there, nothing past 65535 is.
  EXPECT_EQ(parse_port("0"), 0);
  EXPECT_EQ(parse_port("65535"), 65535);
  for (const char* bad : {"65536", "70000", "99999999999", "", "-1", "+1", "1 ", "x1"}) {
    EXPECT_FALSE(parse_port(bad).has_value()) << bad;
  }
}

}  // namespace
}  // namespace prvm
