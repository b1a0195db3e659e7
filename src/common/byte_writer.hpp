// Append-only byte writer for the snapshot format.
//
// Writes into a caller-owned chunk. Unbounded, the chunk ends up holding
// every byte written. Bounded, the writer hands the chunk to a spill
// callback and clears it whenever the next append would take it past the
// bound, so output of any size streams through one fixed-size buffer. The
// byte sequence is the same either way; only where it is cut differs.
//
// u64() writes fixed-width little-endian words; `<<` writes text, and
// integers in decimal exactly as `std::ostream <<` prints them.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <string_view>
#include <utility>

namespace prvm {

class ByteWriter {
 public:
  using Spill = std::function<void(std::string_view)>;

  /// Without a `spill` every byte stays in `chunk`. With one, `chunk` never
  /// holds more than `limit` bytes (an append longer than `limit` alone
  /// excepted): full chunks go to `spill`, the rest on finish().
  explicit ByteWriter(std::string& chunk,
                      std::size_t limit = std::numeric_limits<std::size_t>::max(),
                      Spill spill = {})
      : chunk_(chunk), limit_(limit), spill_(std::move(spill)) {}

  void bytes(const char* data, std::size_t size) {
    if (chunk_.size() + size > limit_) spill();
    chunk_.append(data, size);
  }
  ByteWriter& operator<<(std::string_view s) {
    bytes(s.data(), s.size());
    return *this;
  }

  void u64(std::uint64_t v) {
    char buf[8];
    for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
    bytes(buf, sizeof(buf));
  }

  /// Character types (and bool) are left out: ostream prints them as text.
  template <std::integral T>
    requires(sizeof(T) > 1)
  ByteWriter& operator<<(T v) {
    char buf[24];
    const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    bytes(buf, static_cast<std::size_t>(end - buf));
    return *this;
  }

  /// Bounded writers: spills whatever the chunk still holds.
  void finish() {
    if (spill_ && !chunk_.empty()) spill();
  }

 private:
  void spill() {
    spill_(chunk_);
    chunk_.clear();
  }

  std::string& chunk_;
  std::size_t limit_;
  Spill spill_;
};

}  // namespace prvm
