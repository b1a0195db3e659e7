// Golden differential tests for the two request codecs.
//
// json_requests.golden holds one row per input line of a fixed corpus: every
// op as encode_request_into writes it, the hostile inputs of the protocol
// suite, depth-cap and size-cap edges, and seeded mutations of all of them
// (byte flips, truncations, duplicate keys, unknown keys holding nested
// values, escaped keys, whitespace everywhere). A row is the input and
// either a canonical dump of every Request field or the ProtocolError's code
// and message, so any change to what the decoder accepts, keeps or says
// shows up as a diff. json_responses.golden pins the bytes encode_response
// writes for responses covering every field, and their round trip through
// parse_response.
//
// binary_requests.golden pins PRVB1 the same way: for every corpus line the
// JSON decoder accepts, the frame encode_binary_request_into writes for that
// Request and the dump of its PRVB1 decode; then hand-built payloads
// (truncations, reserved bits, unknown op codes, uninterned slots, fields an
// op does not read) with their verdicts.
//
// On a mismatch the test writes the rows it produced to
// <name>.golden.actual in its working directory; copying that file over the
// recorded one re-records it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <variant>
#include <vector>

#include "common/rng.hpp"
#include "service/binary_protocol.hpp"
#include "service/protocol.hpp"

namespace prvm {
namespace {

std::uint32_t fnv1a(std::string_view bytes) {
  std::uint32_t hash = 2166136261u;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 16777619u;
  }
  return hash;
}

// Printable ASCII as is, everything else as \xHH; long inputs by length and
// hash so the golden stays readable.
std::string show(std::string_view bytes) {
  if (bytes.size() > 512) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "<%zu bytes fnv %08x>", bytes.size(), fnv1a(bytes));
    return buf;
  }
  std::string out = "\"";
  for (const char c : bytes) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f && c != '"' && c != '\\') {
      out.push_back(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x", u);
      out += buf;
    }
  }
  out += '"';
  return out;
}

std::string show(const std::optional<std::uint64_t>& v) {
  return v.has_value() ? std::to_string(*v) : "-";
}

std::string show_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Every Request field, or the ProtocolError's code and message.
std::string dump(const std::variant<Request, ProtocolError>& result) {
  if (const auto* error = std::get_if<ProtocolError>(&result)) {
    return "error " + error->code + " " + show(error->message);
  }
  const Request& r = std::get<Request>(result);
  std::string row = "op=" + std::string(to_string(r.op));
  row += " vm=" + std::to_string(r.vm_id);
  row += " type_index=" + show(r.vm_type_index);
  row += " type_name=" + show(r.vm_type_name);
  row += " group=" + show(r.group);
  row += " cell=" + show(r.cell);
  row += " seq=" + show(r.seq);
  row += " offset=" + show(r.offset);
  row += " eof=" + std::to_string(r.eof);
  row += " data=" + show(r.data);
  row += " pm=" + show(r.pm);
  row += " cpu=" + show_double(r.cpu);
  row += " action=" + show(r.action);
  row += " dest_cap=" + show_double(r.rebalance_dest_cap);
  row += " consolidate=" + std::to_string(r.rebalance_consolidate);
  row += " scan_sink=" + std::to_string(r.scan_sink != nullptr);
  return row;
}

std::string row_of(std::string_view line) {
  return show(line) + " => " + dump(parse_request(line));
}

Request make(RequestOp op, std::uint64_t vm = 0) {
  Request r;
  r.op = op;
  r.vm_id = vm;
  return r;
}

// Every op with every field it carries, through the encoder.
std::vector<std::string> encoded_requests() {
  std::vector<Request> requests;
  Request place = make(RequestOp::kPlace, 7);
  place.vm_type_name = "m3.xlarge";
  requests.push_back(place);
  place.vm_type_name.clear();
  place.vm_type_index = 2;
  place.group = "web";
  requests.push_back(place);
  place.vm_id = 0xFFFFFFFFull;
  place.group = "a \"quoted\"\\group\twith\ncontrols\x01\x1f and \xc3\xa9";
  requests.push_back(place);
  place.vm_id = 0x100000000ull;  // one past the 32-bit id range
  requests.push_back(place);
  Request named = make(RequestOp::kPlace, 12);
  named.vm_type_name = "type/with\"escapes\\";
  requests.push_back(named);
  for (const RequestOp op : {RequestOp::kRelease, RequestOp::kMigrate, RequestOp::kLookup}) {
    requests.push_back(make(op, 9));
  }
  for (const RequestOp op : {RequestOp::kStats, RequestOp::kHealth, RequestOp::kMetrics,
                             RequestOp::kDrain, RequestOp::kRebalanceScan}) {
    requests.push_back(make(op));
  }
  // The retired cross-cell group ops, as the encoder wrote them, keep their
  // place in the corpus (and so every seeded mutation after them).
  const std::size_t retired_at = requests.size();
  Request hello = make(RequestOp::kReplHello);
  hello.seq = 123456789012ull;
  requests.push_back(hello);
  Request snap = make(RequestOp::kReplSnapshot);
  snap.seq = 77;
  snap.offset = 4096;
  snap.eof = true;
  snap.data = std::string("\x00\x01\xff\"\\snapshot\n", 15);
  requests.push_back(snap);
  snap.eof = false;
  snap.offset = 0;
  requests.push_back(snap);
  Request frames = make(RequestOp::kReplFrames);
  frames.seq = 78;
  for (int i = 0; i < 256; ++i) frames.data.push_back(static_cast<char>(i));
  requests.push_back(frames);
  Request promote = make(RequestOp::kPromote);
  requests.push_back(promote);
  promote.seq = 5;
  requests.push_back(promote);
  Request util_vm = make(RequestOp::kUtil, 44);
  util_vm.cpu = 0.83;
  requests.push_back(util_vm);
  util_vm.cpu = 0.1234567890123;
  requests.push_back(util_vm);
  Request util_pm = make(RequestOp::kUtil);
  util_pm.pm = 3;
  util_pm.cpu = 2.0;
  util_pm.cell = 1;
  requests.push_back(util_pm);
  util_pm.cpu = 2.5;  // out of range on decode
  requests.push_back(util_pm);
  Request rebalance = make(RequestOp::kRebalance);
  requests.push_back(rebalance);
  for (const char* action : {"status", "trigger", "pause", "resume", "explode"}) {
    rebalance.action = action;
    requests.push_back(rebalance);
  }

  std::vector<std::string> lines;
  for (const Request& r : requests) {
    std::string line;
    encode_request_into(r, line);
    line.pop_back();  // the newline
    lines.push_back(line);
  }
  lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(retired_at),
               {R"({"op":"gres","vm":31,"group":"db"})",
                R"({"op":"gcommit","vm":31,"group":"db","cell":2})",
                R"({"op":"gabort","vm":31,"group":"db"})"});
  return lines;
}

// Hand-written inputs: the protocol suite's hostile lines, every semantic
// check, and the number, literal, string and escape edges of the grammar.
std::vector<std::string> hostile_requests() {
  std::vector<std::string> lines = {
      "",
      "not json at all",
      "{",
      R"({"op":"place",})",
      R"({"op":"place" "vm":1})",
      R"({"op":)",
      std::string("\x00\x01\x02", 3),
      R"({"op":"stats"} trailing)",
      R"([1,2,3])",
      R"([1,2,3] x)",
      R"("just a string")",
      "42",
      "null",
      "true",
      "{}",
      R"({"op":"explode","vm":1})",
      R"({"vm":1})",
      R"({"op":"place","type":"m3.xlarge"})",
      R"({"op":"place","vm":1})",
      R"({"op":"place","vm":"seven","type":1})",
      R"({"op":"place","vm":-3,"type":1})",
      R"({"op":"place","vm":1.5,"type":1})",
      R"({"op":"place","vm":4294967296,"type":1})",
      R"({"op":"place","vm":1e18,"type":1})",
      R"({"op":"place","vm":1,"type":true})",
      R"({"op":"place","vm":1,"type":-1})",
      R"({"op":"place","vm":1,"type":1e19})",
      R"({"op":"place","vm":1,"type":1,"group":7})",
      R"({"op":"place","vm":1,"type":1,"group":""})",
      R"({"op":7})",
      R"({"op":null})",
      R"({"op":"lookup"})",
      R"({"op":"gres","vm":1})",
      R"({"op":"gres","vm":1,"group":""})",
      R"({"op":"gres","vm":1,"group":["x"]})",
      R"({"op":"gcommit","vm":1,"group":"g"})",
      R"({"op":"gcommit","vm":1,"group":"g","cell":-1})",
      R"({"op":"gcommit","vm":1,"group":"g","cell":"2"})",
      R"({"op":"gabort","group":"g"})",
      R"({"op":"repl_hello"})",
      R"({"op":"repl_hello","seq":-1})",
      R"({"op":"repl_hello","seq":1.25})",
      R"({"op":"repl_frames","seq":1})",
      R"({"op":"repl_frames","seq":1,"data":5})",
      R"({"op":"repl_snap","seq":1,"data":"x"})",
      R"({"op":"repl_snap","seq":1,"data":"x","offset":"0"})",
      R"({"op":"repl_snap","seq":1,"data":"x","offset":0,"eof":1})",
      R"({"op":"repl_snap","seq":1,"data":"x","offset":0,"eof":null})",
      R"({"op":"promote","seq":"1"})",
      R"({"op":"util"})",
      R"({"op":"util","vm":1,"pm":2,"cpu":0.5})",
      R"({"op":"util","vm":1})",
      R"({"op":"util","vm":1,"cpu":-0.1})",
      R"({"op":"util","vm":1,"cpu":2.0000001})",
      R"({"op":"util","vm":1,"cpu":"0.5"})",
      R"({"op":"util","vm":1,"cpu":0})",
      R"({"op":"util","vm":1,"cpu":-0})",
      R"({"op":"util","vm":4294967296,"cpu":1})",
      R"({"op":"util","pm":-2,"cpu":1})",
      R"({"op":"util","pm":2,"cpu":1,"cell":1.5})",
      R"({"op":"util","pm":2,"cpu":1,"cell":3})",
      R"({"op":"util","vm":null,"cpu":1})",
      R"({"op":"rebalance","action":7})",
      R"({"op":"rebalance","action":"nope"})",
      R"({"op":"rebalance","action":"pause"})",
      R"({"op":"rebalance_scan"})",
      // Numbers: what from_chars takes and what the grammar refuses after.
      R"({"op":"lookup","vm":01})",
      R"({"op":"lookup","vm":1.})",
      R"({"op":"lookup","vm":1e2})",
      R"({"op":"lookup","vm":1E+2})",
      R"({"op":"lookup","vm":.5})",
      R"({"op":"lookup","vm":+1})",
      R"({"op":"lookup","vm":-})",
      R"({"op":"lookup","vm":-0})",
      R"({"op":"lookup","vm":0x10})",
      R"({"op":"lookup","vm":1e400})",
      R"({"op":"lookup","vm":-1e400})",
      R"({"op":"lookup","vm":-inf})",
      R"({"op":"lookup","vm":-nan})",
      R"({"op":"lookup","vm":NaN})",
      R"({"op":"lookup","vm":Infinity})",
      R"({"op":"lookup","vm":9007199254740993})",
      // Literals.
      R"({"op":"lookup","vm":nul})",
      R"({"op":"lookup","vm":tru})",
      R"({"op":"lookup","vm":falsey})",
      R"({"op":"lookup","vm":nullx})",
      // Strings and escapes.
      R"({"op":"st\u0061ts"})",
      R"({"\u006fp":"stats"})",
      R"({"\u006Fp":"lookup","\u0076\u006d":5})",
      R"({"op":"stats\u"})",
      R"({"op":"stats\u12"})",
      R"({"op":"stats\u12g4"})",
      R"({"op":"stats\x"})",
      R"({"op":"stats\)",
      R"({"op":"stats)",
      R"({"op":"place","vm":1,"type":"\u00e9\u4e2d\ud83d\/\b\f\n\r\t\"\\"})",
      R"({"op":"place","vm":1,"type":"\u0000"})",
      std::string("{\"op\":\"st\x01" "ats\"}"),
      std::string("{\"op\":\"place\",\"vm\":1,\"type\":\"a\x7f\xff\"}"),
      R"({"op":"place","vm":1,"type":1,"group":"\"quoted\""})",
      R"({"op":"stats","k\"ey":1})",
      R"({"op":"stats",7:1})",
      R"({"op":"stats",:1})",
      R"({"op":"stats","x"})",
      R"({"op":"stats","x":})",
      R"({"op":"stats","x":1,})",
      R"({"op":"stats","x":[1,]})",
      R"({"op":"stats","x":[1 2]})",
      R"({"op":"stats","x":{"a":1,"a":[{}]}})",
      R"({"op":"stats","x":{"a"}})",
      R"({"op":"stats","x":[}})",
      R"({"op":"stats","x":{]})",
      // Duplicates: the first member of a key wins.
      R"({"op":"lookup","vm":1,"vm":2})",
      R"({"op":"lookup","vm":"x","vm":2})",
      R"({"op":"lookup","vm":2,"vm":"x"})",
      R"({"op":7,"op":"stats"})",
      R"({"op":"stats","op":7})",
      R"({"op":"util","vm":1,"cpu":0.5,"cpu":9})",
      R"({"op":"place","vm":1,"type":"a","type":"b","group":"g1","group":"g2"})",
      // Unknown members holding nested values are validated and skipped.
      R"({"x":{"y":[1,{"z":null}]},"op":"lookup","extra":[true,false,"s"],"vm":3})",
      R"({"op":"lookup","vm":3,"data":{"nested":[1,2,3]}})",
      // Whitespace everywhere.
      " \t\r\n{ \t\r\n\"op\" \t\r\n: \t\r\n\"lookup\" \t\r\n, \t\r\n\"vm\" \t\r\n: \t\r\n5 \t\r\n} \t\r\n",
      "{\"op\":\"stats\"}\n",
      "{\"op\":\"stats\"}\v",
      "\xef\xbb\xbf{\"op\":\"stats\"}",
  };

  // Depth-cap edges: nested arrays and objects at the cap and one past it,
  // both inside a member and as the whole document.
  for (int depth = 14; depth <= 18; ++depth) {
    lines.push_back(R"({"op":"stats","x":)" + std::string(depth, '[') + std::string(depth, ']') +
                    "}");
    std::string nested_objects = "1";
    for (int i = 0; i < depth; ++i) nested_objects = R"({"k":)" + nested_objects + "}";
    lines.push_back(R"({"op":"stats","x":)" + nested_objects + "}");
    lines.push_back(std::string(depth, '[') + std::string(depth, ']'));
  }
  lines.push_back(std::string(4000, '['));

  // Size-cap edges: parse_request's backstop is kMaxReplFrameBytes.
  const std::string prefix = R"({"op":"repl_frames","seq":1,"data":")";
  const std::size_t fill = kMaxReplFrameBytes - prefix.size() - 2;
  lines.push_back(prefix + std::string(fill, 'd') + "\"}");
  lines.push_back(prefix + std::string(fill + 1, 'd') + "\"}");
  lines.push_back(std::string(kMaxReplFrameBytes + 1, ' '));
  return lines;
}

// Seeded mutations of a base line. Raw engine draws keep the corpus the same
// under every standard library.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(const std::string& base) {
    std::string line = base;
    switch (draw(8)) {
      case 0:  // byte flip
        if (!line.empty()) line[draw(line.size())] = static_cast<char>(draw(256));
        break;
      case 1:  // truncation
        line.resize(line.empty() ? 0 : draw(line.size()));
        break;
      case 2:  // duplicate of a known key, in front of or behind the rest
      {
        static const char* kKeys[] = {"op",  "vm",     "type", "group", "cell", "seq",
                                      "offset", "eof", "data", "pm",    "cpu",  "action"};
        const std::string member = std::string("\"") + kKeys[draw(12)] + "\":" + scalar();
        insert_member(line, member);
        break;
      }
      case 3:  // unknown key holding a nested value
        insert_member(line, "\"junk" + std::to_string(draw(100)) + "\":" + nested(draw(4)));
        break;
      case 4:  // escape one character of a key
      {
        std::vector<std::size_t> key_starts;
        for (std::size_t i = 0; i + 1 < line.size(); ++i) {
          if (line[i] == '"' && (i == 1 || (i > 0 && line[i - 1] == ','))) {
            key_starts.push_back(i + 1);
          }
        }
        if (key_starts.empty()) break;
        const std::size_t at = key_starts[draw(key_starts.size())];
        if (at >= line.size() || line[at] == '"') break;
        char buf[8];
        std::snprintf(buf, sizeof(buf), draw(2) ? "\\u%04x" : "\\u%04X",
                      static_cast<unsigned char>(line[at]));
        line.replace(at, 1, buf);
        break;
      }
      case 5:  // whitespace at random positions
        for (std::size_t n = 1 + draw(6); n > 0; --n) {
          static const char kWs[] = {' ', '\t', '\r', '\n'};
          line.insert(draw(line.size() + 1), 1, kWs[draw(4)]);
        }
        break;
      case 6:  // byte deletion
        if (!line.empty()) line.erase(draw(line.size()), 1);
        break;
      default:  // byte insertion from the grammar's own alphabet
      {
        static const char kAlphabet[] = "{}[]:,\"\\0123456789.-+eE tfnu";
        line.insert(draw(line.size() + 1), 1, kAlphabet[draw(sizeof(kAlphabet) - 1)]);
        break;
      }
    }
    return line;
  }

 private:
  std::size_t draw(std::size_t n) { return static_cast<std::size_t>(rng_.engine()() % n); }

  std::string scalar() {
    static const char* kValues[] = {"1",     "0",     "-1",      "2.5",   "1e3",  "4294967296",
                                    "true",  "false", "null",    "\"x\"", "\"\"", "\"stats\"",
                                    "\"place\"", "\"web\"", "\"\\u0041\"", "[]", "{}", "0.75"};
    return kValues[draw(sizeof(kValues) / sizeof(kValues[0]))];
  }

  std::string nested(std::size_t depth) {
    if (depth == 0) return scalar();
    if (draw(2) == 0) return "[" + nested(depth - 1) + "," + scalar() + "]";
    return "{\"k\":" + nested(depth - 1) + ",\"k\":" + scalar() + "}";
  }

  // Splices a member after the opening brace or before the closing one.
  void insert_member(std::string& line, const std::string& member) {
    const std::size_t open = line.find('{');
    const std::size_t close = line.rfind('}');
    if (open == std::string::npos || close == std::string::npos || close <= open) return;
    if (draw(2) == 0) {
      line.insert(open + 1, member + ",");
    } else {
      line.insert(close, "," + member);
    }
  }

  Rng rng_;
};

std::vector<std::string> request_corpus() {
  std::vector<std::string> lines = encoded_requests();
  const std::vector<std::string> hostile = hostile_requests();
  std::vector<std::string> bases = lines;
  for (const std::string& line : hostile) {
    if (line.size() < 512) bases.push_back(line);
  }
  lines.insert(lines.end(), hostile.begin(), hostile.end());
  Mutator mutator(0x15C0DE);
  for (const std::string& base : bases) {
    for (int i = 0; i < 4; ++i) lines.push_back(mutator.mutate(base));
  }
  // Mutations of mutations reach the combined cases (an escaped duplicate
  // key, whitespace inside a nested unknown member, ...).
  for (std::size_t i = 0; i < 300; ++i) {
    std::string line = bases[i % bases.size()];
    for (int round = 0; round < 3; ++round) line = mutator.mutate(line);
    lines.push_back(line);
  }
  return lines;
}

std::vector<Response> response_corpus() {
  std::vector<Response> responses;
  Response placed;
  placed.ok = true;
  placed.op = "place";
  placed.vm = 7;
  placed.pm = 12;
  responses.push_back(placed);
  Response failed;
  failed.op = "place";
  failed.vm = 4294967295ull;
  failed.error = "no_capacity";
  failed.message = "weird \"quotes\", \\backslashes\\ and \n\r\t control \x01\x1f\x7f bytes \xc3\xa9";
  responses.push_back(failed);
  Response queue_full;
  queue_full.error = "queue_full";
  for (const double retry : {5.0, 0.5, 1e-7, 123456789.0, 0.0}) {
    queue_full.retry_after_ms = retry;
    responses.push_back(queue_full);
  }
  Response stats;
  stats.ok = true;
  stats.op = "stats";
  stats.pm = 9007199254740991ull;
  stats.extra = {{"used_pms", "17"},
                 {"digest", "\"18446744073709551615\""},
                 {"ratio", "0.25"},
                 {"mode", "\"ok\""},
                 {"nested", "{\"a\":[1,2,{\"b\":null}],\"c\":true}"},
                 {"list", "[]"},
                 {"key \"with\" quotes\\and\x02", "false"},
                 {"", "null"},
                 {"neg", "-3"},
                 {"big", "1e+30"}};
  responses.push_back(stats);
  Response bare;  // everything absent
  responses.push_back(bare);
  Response empty_strings;
  empty_strings.ok = true;
  empty_strings.vm = 0;
  empty_strings.pm = 0;
  responses.push_back(empty_strings);
  return responses;
}

std::string golden_path(const char* name) {
  return std::string(PRVM_TEST_DATA_DIR) + "/" + name;
}

// Compares rows to the recorded file line by line; on any difference writes
// the actual rows beside the test binary and reports the first few diffs.
void expect_golden(const char* name, const std::vector<std::string>& rows) {
  std::ifstream in(golden_path(name), std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << golden_path(name);
  std::vector<std::string> recorded;
  for (std::string line; std::getline(in, line);) recorded.push_back(line);

  int shown = 0;
  bool same = recorded.size() == rows.size();
  for (std::size_t i = 0; i < std::max(recorded.size(), rows.size()); ++i) {
    const std::string want = i < recorded.size() ? recorded[i] : "<none>";
    const std::string got = i < rows.size() ? rows[i] : "<none>";
    if (want == got) continue;
    same = false;
    if (shown++ < 10) ADD_FAILURE() << name << " row " << i << "\n  want " << want << "\n  got  " << got;
  }
  if (!same) {
    std::ofstream out(std::string(name) + ".actual", std::ios::binary);
    for (const std::string& row : rows) out << row << '\n';
    ADD_FAILURE() << name << ": " << shown << " rows differ (" << recorded.size() << " recorded, "
                  << rows.size() << " produced); actual rows written to " << name << ".actual";
  }
}

TEST(JsonGolden, RequestDecodeMatchesRecordedRows) {
  std::vector<std::string> rows;
  for (const std::string& line : request_corpus()) rows.push_back(row_of(line));
  expect_golden("json_requests.golden", rows);
}

TEST(JsonGolden, ResponseEncodeMatchesRecordedBytesAndRoundTrips) {
  std::vector<std::string> rows;
  for (const Response& response : response_corpus()) {
    const std::string line = encode_response(response);
    rows.push_back(show(line));
    // parse_response must take back what encode_response wrote, and
    // re-encoding it must give the same bytes (extras re-encoded verbatim).
    std::string error;
    const auto parsed = parse_response(std::string_view(line).substr(0, line.size() - 1), &error);
    ASSERT_TRUE(parsed.has_value()) << error << " in " << line;
    EXPECT_EQ(encode_response(*parsed), line);
  }
  expect_golden("json_responses.golden", rows);
}

// Lower-case hex; long byte strings by length and hash, as show() does.
std::string hex(std::string_view bytes) {
  if (bytes.size() > 512) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "<%zu bytes fnv %08x>", bytes.size(), fnv1a(bytes));
    return buf;
  }
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto u = static_cast<unsigned char>(c);
    out.push_back(kHex[u >> 4]);
    out.push_back(kHex[u & 0xF]);
  }
  return out;
}

// A PRVB1 request payload built field by field, little-endian.
struct Payload {
  std::string bytes;
  Payload(std::uint8_t op, std::uint8_t fields, std::uint8_t strs, std::uint8_t reserved = 0) {
    bytes = {static_cast<char>(op), static_cast<char>(fields), static_cast<char>(strs),
             static_cast<char>(reserved)};
  }
  Payload& le(std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) bytes.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    return *this;
  }
  Payload& u16_str(std::string_view s) {
    le(s.size(), 2);
    bytes.append(s);
    return *this;
  }
};

// Field and string presence bits of a request payload (DESIGN.md §10).
constexpr std::uint8_t kVmBit = 1, kPmBit = 2, kCellBit = 4, kSeqBit = 8, kCpuBit = 32,
                       kTypeIndexBit = 64;
constexpr std::uint8_t kSlotBit = 1, kNameBit = 2, kGroupBit = 4, kActionBit = 8;
constexpr std::uint64_t kCpuHalf = 0x3FE0000000000000ull;  // 0.5 as f64 bits

std::vector<std::string> binary_rows() {
  BinaryStringTable types;
  types.install(1, "m3.xlarge");
  const auto decode = [&](std::string_view payload) {
    return dump(parse_binary_request(payload, types));
  };

  std::vector<std::string> rows;
  for (const std::string& line : request_corpus()) {
    const auto parsed = parse_request(line);
    const Request* request = std::get_if<Request>(&parsed);
    if (request == nullptr) continue;
    std::string frame;
    std::string row = show(line) + " => ";
    if (!encode_binary_request_into(*request, frame)) {
      rows.push_back(row + "refused");
      continue;
    }
    row += hex(frame) + " => ";
    rows.push_back(row + decode(std::string_view(frame).substr(kBinaryHeaderBytes)));
  }

  // Requests no decoder produces, through the encoder.
  const auto encoded = [&](const char* label, const Request& request) {
    std::string frame;
    if (!encode_binary_request_into(request, frame)) {
      rows.push_back(std::string("encode ") + label + " => refused");
      return;
    }
    rows.push_back(std::string("encode ") + label + " => " + hex(frame) + " => " +
                   decode(std::string_view(frame).substr(kBinaryHeaderBytes)));
  };
  Request place;
  place.op = RequestOp::kPlace;
  place.vm_id = 1;
  place.vm_type_index = 0x100000002ull;
  encoded("place type index 4294967298", place);
  place.vm_type_index.reset();
  encoded("place without a type", place);

  const auto payload_row = [&](const std::string& label, std::string_view payload) {
    rows.push_back(label + " " + hex(payload) + " => " + decode(payload));
  };
  const std::string named = Payload(1, kVmBit, kNameBit | kGroupBit)
                                .le(7, 8)
                                .u16_str("m3.xlarge")
                                .u16_str("web")
                                .bytes;
  const std::string indexed = Payload(1, kVmBit | kTypeIndexBit, 0).le(8, 8).le(2, 4).bytes;
  for (const auto& [label, whole] : {std::pair{"named", named}, std::pair{"indexed", indexed}}) {
    for (std::size_t n = 0; n <= whole.size(); ++n) {
      payload_row(std::string(label) + " place cut at " + std::to_string(n),
                  std::string_view(whole).substr(0, n));
    }
  }
  payload_row("reserved 1", Payload(1, kVmBit | kTypeIndexBit, 0, 1).le(8, 8).le(2, 4).bytes);
  for (const int code : {0, 9, 10, 11, 18, 255}) {
    payload_row("op code " + std::to_string(code),
                Payload(static_cast<std::uint8_t>(code), 0, 0).bytes);
  }
  payload_row("trailing byte", indexed + '\x00');
  payload_row("interned slot", Payload(1, kVmBit, kSlotBit).le(9, 8).le(1, 2).bytes);
  payload_row("slot never interned", Payload(1, kVmBit, kSlotBit).le(9, 8).le(5, 2).bytes);
  payload_row("inline empty type name", Payload(1, kVmBit, kNameBit).le(9, 8).u16_str("").bytes);
  payload_row("util without cpu", Payload(16, kVmBit, 0).le(3, 8).bytes);
  payload_row("util with vm and pm",
              Payload(16, kVmBit | kPmBit | kCpuBit, 0).le(3, 8).le(4, 8).le(kCpuHalf, 8).bytes);
  std::string release = Payload(2, kVmBit | kCellBit | kSeqBit, kGroupBit | kActionBit)
                            .le(3, 8)
                            .le(1, 8)
                            .le(77, 8)
                            .u16_str("web")
                            .bytes;
  release += '\x07';
  release += "trigger";
  payload_row("release with group, seq, cell and action", release);
  return rows;
}

TEST(BinaryGolden, RequestEncodeAndDecodeMatchRecordedRows) {
  expect_golden("binary_requests.golden", binary_rows());
}

// Every request the corpus accepts comes back whole through either codec:
// the JSON line encode_request writes and the PRVB1 frame
// encode_binary_request_into writes both decode to the same dump.
TEST(BinaryGolden, AcceptedCorpusRequestsRoundTripThroughBothCodecs) {
  const BinaryStringTable types;
  std::size_t accepted = 0;
  for (const std::string& line : request_corpus()) {
    const auto parsed = parse_request(line);
    const Request* request = std::get_if<Request>(&parsed);
    if (request == nullptr) continue;
    ++accepted;
    const std::string want = dump(parsed);
    const std::string json = encode_request(*request);
    EXPECT_EQ(dump(parse_request(std::string_view(json).substr(0, json.size() - 1))), want)
        << show(line) << " as " << show(json);
    std::string frame;
    ASSERT_TRUE(encode_binary_request_into(*request, frame)) << show(line);
    EXPECT_EQ(dump(parse_binary_request(std::string_view(frame).substr(kBinaryHeaderBytes), types)),
              want)
        << show(line) << " as " << hex(frame);
  }
  EXPECT_GT(accepted, 100u);
}

}  // namespace
}  // namespace prvm
