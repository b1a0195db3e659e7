#include "service/wal.hpp"

#include <fcntl.h>

#include <cerrno>
#include <cstring>
#include <fstream>

namespace prvm {

namespace {

/// Slicing-by-8 tables of the reflected IEEE polynomial: table[0] is the
/// classic byte-at-a-time table, table[k][b] advances table[k-1][b] by one
/// more zero byte, so eight input bytes fold into the CRC with eight lookups.
struct CrcTables {
  std::uint32_t t[8][256];
};

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables.t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      const std::uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xFF];
    }
  }
  return tables;
}

std::uint32_t load_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

char* store_u64(char* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  return p + 8;
}

char* store_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  return p + 4;
}

std::size_t wal_payload_size(const WalRecord& record) {
  return 1 + 7 * 8 + record.group.size() + 16 * record.assignments.size();
}

/// Writes the record payload at `p` (exactly wal_payload_size bytes).
void store_wal_payload(const WalRecord& record, char* p) {
  *p++ = static_cast<char>(record.type);
  p = store_u64(p, record.op_seq);
  p = store_u64(p, record.vm);
  p = store_u64(p, record.vm_type);
  p = store_u64(p, record.pm);
  p = store_u64(p, record.from_pm);
  p = store_u64(p, record.group.size());
  std::memcpy(p, record.group.data(), record.group.size());
  p += record.group.size();
  p = store_u64(p, record.assignments.size());
  for (auto [dim, amount] : record.assignments) {
    p = store_u64(p, static_cast<std::uint64_t>(static_cast<std::int64_t>(dim)));
    p = store_u64(p, static_cast<std::uint64_t>(static_cast<std::int64_t>(amount)));
  }
}

class Cursor {
 public:
  Cursor(const char* data, std::size_t size) : data_(data), size_(size) {}

  bool u64(std::uint64_t& out) {
    if (pos_ + 8 > size_) return false;
    out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool bytes(std::string& out, std::size_t n) {
    if (pos_ + n > size_) return false;
    out.assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool done() const { return pos_ == size_; }

 private:
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) {
  static const CrcTables tables = make_crc_tables();
  const auto& t = tables.t;
  std::uint32_t crc = 0xFFFFFFFFu;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (; size >= 8; size -= 8, bytes += 8) {
    const std::uint32_t lo = load_u32(bytes) ^ crc;
    const std::uint32_t hi = load_u32(bytes + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; --size, ++bytes) crc = t[0][(crc ^ *bytes) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

std::string encode_wal_record(const WalRecord& record) {
  std::string payload(wal_payload_size(record), '\0');
  store_wal_payload(record, payload.data());
  return payload;
}

bool decode_wal_record(const std::string& payload, WalRecord& record) {
  if (payload.empty()) return false;
  const auto type = static_cast<std::uint8_t>(payload[0]);
  if (type < 1 || type > 6) return false;
  record.type = static_cast<WalRecord::Type>(type);
  Cursor cursor(payload.data() + 1, payload.size() - 1);
  std::uint64_t group_len = 0;
  std::uint64_t assignment_count = 0;
  if (!cursor.u64(record.op_seq) || !cursor.u64(record.vm) || !cursor.u64(record.vm_type) ||
      !cursor.u64(record.pm) || !cursor.u64(record.from_pm) || !cursor.u64(group_len) ||
      group_len > payload.size() || !cursor.bytes(record.group, group_len) ||
      !cursor.u64(assignment_count) || assignment_count > payload.size()) {
    return false;
  }
  record.assignments.clear();
  record.assignments.reserve(assignment_count);
  for (std::uint64_t i = 0; i < assignment_count; ++i) {
    std::uint64_t dim = 0;
    std::uint64_t amount = 0;
    if (!cursor.u64(dim) || !cursor.u64(amount)) return false;
    record.assignments.emplace_back(static_cast<int>(static_cast<std::int64_t>(dim)),
                                    static_cast<int>(static_cast<std::int64_t>(amount)));
  }
  return cursor.done();
}

std::size_t append_wal_frame(const WalRecord& record, std::string& out) {
  const std::size_t payload_size = wal_payload_size(record);
  const std::size_t start = out.size();
  out.resize(start + 8 + payload_size);
  char* frame = out.data() + start;
  store_wal_payload(record, frame + 8);
  store_u32(frame, static_cast<std::uint32_t>(payload_size));
  store_u32(frame + 4, crc32(frame + 8, payload_size));
  return 8 + payload_size;
}

std::string encode_wal_frame(const WalRecord& record) {
  std::string frame;
  append_wal_frame(record, frame);
  return frame;
}

bool decode_wal_frames(std::string_view data, std::vector<WalRecord>& out,
                       std::vector<std::size_t>* offsets) {
  std::size_t pos = 0;
  const auto read_u32 = [&](std::uint32_t& v) {
    if (pos + 4 > data.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data[pos + i])) << (8 * i);
    }
    pos += 4;
    return true;
  };
  while (pos < data.size()) {
    const std::size_t frame_start = pos;
    std::uint32_t length = 0;
    std::uint32_t expected_crc = 0;
    if (!read_u32(length) || !read_u32(expected_crc) || pos + length > data.size()) return false;
    const std::string payload(data.substr(pos, length));
    pos += length;
    WalRecord record;
    if (crc32(payload.data(), payload.size()) != expected_crc ||
        !decode_wal_record(payload, record)) {
      return false;
    }
    out.push_back(std::move(record));
    if (offsets != nullptr) offsets->push_back(frame_start);
  }
  return true;
}

WalWriter::WalWriter(std::filesystem::path path, bool fsync_on_flush, IoEnv* env)
    : path_(std::move(path)),
      env_(env != nullptr ? env : &IoEnv::real()),
      fsync_on_flush_(fsync_on_flush) {
  if (path_.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(path_.parent_path(), ec);
  }
  const int fd = env_->open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    open_status_ = IoStatus::failure(-fd, "open(" + path_.string() + ")");
    return;
  }
  fd_ = fd;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) {
    flush();  // best effort; a failure here only loses unacknowledged bytes
    env_->close(fd_);
  }
}

std::size_t WalWriter::append(const WalRecord& record) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++appended_;
  return append_wal_frame(record, buffer_);
}

std::size_t WalWriter::append_frames(std::string_view frames, std::uint64_t count) {
  const std::lock_guard<std::mutex> lock(mu_);
  buffer_ += frames;
  appended_ += count;
  return frames.size();
}

std::size_t WalWriter::pending_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return buffer_.size();
}

IoStatus WalWriter::flush(std::size_t max_bytes) {
  if (fd_ < 0) {
    return open_status_.ok() ? IoStatus::failure(EBADF, "WAL " + path_.string() + " is closed")
                             : open_status_;
  }
  // Steal the covered prefix so concurrent appends never block on the disk;
  // they land behind the stolen bytes and are covered by a later flush.
  std::string& chunk = spare_;
  chunk.clear();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (buffer_.empty()) return IoStatus::success();
    if (max_bytes >= buffer_.size()) {
      chunk.swap(buffer_);
    } else {
      chunk.assign(buffer_, 0, max_bytes);
      buffer_.erase(0, max_bytes);
    }
  }
  // The error contexts are built only when a call fails.
  std::size_t written = 0;
  const IoStatus status = io_write_all(*env_, fd_, chunk.data(), chunk.size(), {}, &written);
  if (!status.ok()) {
    // Keep exactly the unwritten suffix, at the FRONT of the buffer (order
    // must survive appends that raced in): a retry after a transient error
    // (ENOSPC cleared, EINTR storm over) resumes mid-frame and leaves a
    // perfectly framed log; a crash instead leaves a torn frame the reader
    // discards, which only ever holds unacknowledged records.
    const std::lock_guard<std::mutex> lock(mu_);
    buffer_.insert(0, chunk, written, chunk.size() - written);
    return IoStatus::failure(status.err, "write(" + path_.string() + ")");
  }
  if (fsync_on_flush_) {
    const IoStatus synced = io_fsync(*env_, fd_, {});
    if (!synced.ok()) return IoStatus::failure(synced.err, "fsync(" + path_.string() + ")");
  }
  return IoStatus::success();
}

IoStatus WalWriter::reset() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    buffer_.clear();
  }
  if (fd_ < 0) {
    return open_status_.ok() ? IoStatus::failure(EBADF, "WAL " + path_.string() + " is closed")
                             : open_status_;
  }
  const int rc = env_->ftruncate(fd_, 0);
  if (rc != 0) return IoStatus::failure(-rc, "ftruncate(" + path_.string() + ")");
  if (fsync_on_flush_) return io_fsync(*env_, fd_, "fsync(" + path_.string() + ")");
  return IoStatus::success();
}

IoStatus WalWriter::reopen_truncate() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    buffer_.clear();
  }
  if (fd_ >= 0) {
    env_->close(fd_);  // the old descriptor may be wedged; nothing to save
    fd_ = -1;
  }
  const int fd = env_->open(path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (fd < 0) {
    open_status_ = IoStatus::failure(-fd, "open(" + path_.string() + ")");
    return open_status_;
  }
  fd_ = fd;
  open_status_ = IoStatus::success();
  if (fsync_on_flush_) return io_fsync(*env_, fd_, "fsync(" + path_.string() + ")");
  return IoStatus::success();
}

const char* to_string(WalTailStatus status) {
  switch (status) {
    case WalTailStatus::kClean: return "clean";
    case WalTailStatus::kTornTail: return "torn_tail";
    case WalTailStatus::kCorrupt: return "corrupt";
  }
  return "?";
}

WalReadResult read_wal_ex(const std::filesystem::path& path) {
  WalReadResult result;
  std::ifstream is(path, std::ios::binary);
  if (!is.is_open()) return result;
  std::string contents((std::istreambuf_iterator<char>(is)), std::istreambuf_iterator<char>());

  std::size_t pos = 0;
  const auto read_u32 = [&](std::uint32_t& out) {
    if (pos + 4 > contents.size()) return false;
    out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<std::uint32_t>(static_cast<unsigned char>(contents[pos + i])) << (8 * i);
    }
    pos += 4;
    return true;
  };

  while (pos < contents.size()) {
    const std::size_t frame_start = pos;
    std::uint32_t length = 0;
    std::uint32_t expected_crc = 0;
    if (!read_u32(length) || !read_u32(expected_crc) || pos + length > contents.size()) {
      // A frame was cut short mid-write: the expected shape after a crash,
      // and only ever holds records that were never acknowledged.
      pos = frame_start;
      result.tail = WalTailStatus::kTornTail;
      break;
    }
    const std::string payload = contents.substr(pos, length);
    pos += length;
    WalRecord record;
    if (crc32(payload.data(), payload.size()) != expected_crc ||
        !decode_wal_record(payload, record)) {
      // A COMPLETE frame that fails its checksum or decode: not a crash
      // artifact but damage — anything after it is untrustworthy too.
      pos = frame_start;
      result.tail = WalTailStatus::kCorrupt;
      break;
    }
    result.records.push_back(std::move(record));
  }
  result.valid_bytes = pos;
  result.discarded_bytes = contents.size() - pos;
  return result;
}

std::vector<WalRecord> read_wal(const std::filesystem::path& path, bool* torn_tail) {
  WalReadResult result = read_wal_ex(path);
  if (torn_tail != nullptr) *torn_tail = result.tail != WalTailStatus::kClean;
  return std::move(result.records);
}

}  // namespace prvm
