// Write-ahead log of accepted placement decisions.
//
// Every state-mutating decision the daemon acknowledges is first appended
// here: the record stores the *outcome* (chosen PM + concrete dimension
// assignments), not the request, so replay is an exact re-application that
// does not depend on the placement engine, score tables or request
// ordering heuristics. Recovery = load the latest snapshot, then re-apply
// every record with op_seq greater than the snapshot's last_op_seq.
//
// On-disk framing per record: u32 payload length, u32 CRC-32 of the
// payload, payload bytes (little-endian). A kill -9 can leave a torn final
// record; the reader stops cleanly at the first short/corrupt frame and
// discards the tail, which is safe because the daemon only acknowledges a
// request after its record hit the log.
#pragma once

#include <cstdint>
#include <filesystem>
#include <limits>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/io_env.hpp"

namespace prvm {

struct WalRecord {
  enum class Type : std::uint8_t {
    kPlace = 1,    ///< vm placed on `pm` with `assignments`
    kRelease = 2,  ///< vm removed (pm recorded for group bookkeeping)
    kMigrate = 3,  ///< vm moved: remove from `from_pm`, place on `pm`
    // The retired cross-cell group directory's reserve, commit and abort.
    // Nothing writes them any more; they still decode so that a log written
    // with them replays, and replaying one only advances op_seq.
    kRetiredGroupReserve = 4,
    kRetiredGroupCommit = 5,
    kRetiredGroupAbort = 6,
  };

  Type type = Type::kPlace;
  std::uint64_t op_seq = 0;  ///< strictly increasing across the log
  std::uint64_t vm = 0;
  std::uint64_t vm_type = 0;
  std::uint64_t pm = 0;       ///< destination (place/migrate), source (release)
  std::uint64_t from_pm = 0;  ///< migrate: source PM
  std::string group;          ///< anti-collocation group (place, migrate)
  std::vector<std::pair<int, int>> assignments;  ///< (dimension, amount)

  bool operator==(const WalRecord&) const = default;
};

/// CRC-32 (IEEE, reflected; table-driven slicing-by-8) of a byte buffer. The
/// WAL and PRVB1 frames share it; tests use it to craft corrupt records.
std::uint32_t crc32(const void* data, std::size_t size);

/// Append-only writer. Records are buffered in memory; flush() makes the
/// batch crash-durable (single write + optional fsync per batch — this is
/// where request batching amortizes durability cost).
///
/// Fault tolerance: all IO goes through an IoEnv and reports errno-rich
/// IoStatus instead of aborting. flush() retries EINTR and continues short
/// writes; on failure it drops exactly the bytes that made it out, so a
/// later flush() resumes mid-frame and completes the log cleanly (a crash
/// in between leaves a torn frame the reader discards). After a failure
/// the caller may instead snapshot its state and call reopen_truncate() —
/// the degraded-mode recovery path.
class WalWriter {
 public:
  /// Opens (creating or appending) the log at `path`. An open failure does
  /// NOT throw — it is recorded and reported by healthy()/open_status(),
  /// so a daemon with a broken disk can boot into degraded mode.
  WalWriter(std::filesystem::path path, bool fsync_on_flush = false, IoEnv* env = nullptr);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one framed record to the in-memory buffer and returns the
  /// number of buffered bytes it occupies (frame header + payload). The
  /// buffer is mutex-guarded, so one appender thread and one flusher thread
  /// may run concurrently — the service's group-commit pipeline appends from
  /// the worker while the flusher drains earlier groups.
  std::size_t append(const WalRecord& record);

  /// Appends `count` already-framed records (the exact bytes
  /// encode_wal_frame produced, concatenated) in one buffer splice and
  /// returns `frames.size()`. The replication hot paths use this to avoid
  /// re-encoding: the leader appends the frame it is about to stream, and a
  /// follower appends the validated raw frame batch it just applied —
  /// keeping its WAL byte-identical to the leader's by construction.
  std::size_t append_frames(std::string_view frames, std::uint64_t count);

  /// Writes buffered records to the file and (optionally) fsyncs. Must be
  /// called before acknowledging the batched requests. On failure the
  /// unwritten suffix stays buffered; retrying later continues exactly
  /// where the disk stopped accepting bytes.
  ///
  /// `max_bytes` bounds how much of the buffer this call covers (group
  /// commit flushes exactly the frames of the groups it acknowledges, even
  /// while later appends are landing behind them). Callers must pass a
  /// frame-aligned count — the byte totals append() returned — or the
  /// default "everything buffered so far".
  IoStatus flush(std::size_t max_bytes = std::numeric_limits<std::size_t>::max());

  /// Truncates the log after a snapshot made its contents redundant.
  /// Buffered-but-unflushed records are discarded too (the caller snapshots
  /// only between batches, when none exist).
  IoStatus reset();

  /// Degraded-mode recovery: discards any buffered bytes (the state they
  /// logged must already be covered by a fresh snapshot), closes the
  /// possibly-wedged descriptor and reopens the file truncated.
  IoStatus reopen_truncate();

  /// False when the file could not be opened (construction or a failed
  /// reopen); flush()/reset() then fail with open_status().
  bool healthy() const { return fd_ >= 0; }
  const IoStatus& open_status() const { return open_status_; }

  std::uint64_t appended_records() const { return appended_; }
  /// Bytes buffered but not yet written (racy when a flusher is running —
  /// use only for observability or from a quiesced pipeline).
  std::size_t pending_bytes() const;
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
  IoEnv* env_;
  int fd_ = -1;
  bool fsync_on_flush_ = false;
  /// Guards buffer_ (and appended_): append() and flush() may race in the
  /// group-commit pipeline. fd_ and open_status_ stay single-threaded — only
  /// the flushing side (or a quiesced caller) touches them.
  mutable std::mutex mu_;
  std::string buffer_;
  /// The bytes a flush() writes, swapped out of buffer_ under the lock.
  /// Flushing side only; the two strings trade places so both keep their
  /// capacity and a warm append or flush allocates nothing.
  std::string spare_;
  std::uint64_t appended_ = 0;
  IoStatus open_status_;
};

/// Why WAL reading stopped before the end of the file.
enum class WalTailStatus {
  kClean,     ///< every byte decoded into records
  kTornTail,  ///< final frame cut short mid-write (normal after a crash)
  kCorrupt,   ///< a complete frame failed its CRC or decode (disk damage)
};

const char* to_string(WalTailStatus status);

struct WalReadResult {
  std::vector<WalRecord> records;
  WalTailStatus tail = WalTailStatus::kClean;
  /// Byte offset where replay stopped (== file size when kClean).
  std::size_t valid_bytes = 0;
  /// Bytes after the stop point that were discarded.
  std::size_t discarded_bytes = 0;
};

/// Reads every intact record and reports exactly why it stopped: a torn
/// final frame (expected after kill -9 — only unacknowledged records are
/// lost) is distinguished from a complete frame whose CRC/decode fails
/// (mid-file corruption: acknowledged records after it are gone too).
WalReadResult read_wal_ex(const std::filesystem::path& path);

/// Reads every intact record, stopping silently at a torn/corrupt tail.
/// `torn_tail` (optional) reports whether trailing garbage was skipped.
std::vector<WalRecord> read_wal(const std::filesystem::path& path, bool* torn_tail = nullptr);

/// Serializes one record payload (exposed for tests).
std::string encode_wal_record(const WalRecord& record);

/// Decodes one record payload (inverse of encode_wal_record).
bool decode_wal_record(const std::string& payload, WalRecord& record);

/// One fully framed record: u32 length + u32 CRC + payload — the exact
/// bytes WalWriter::append buffers. Replication streams these frames to
/// followers, so a follower's re-appended WAL is byte-identical.
std::string encode_wal_frame(const WalRecord& record);

/// Appends the frame encode_wal_frame would return straight onto `out` (one
/// resize, no temporary payload) and returns its size in bytes.
std::size_t append_wal_frame(const WalRecord& record, std::string& out);

/// Decodes a concatenation of framed records. All-or-nothing: returns
/// false (leaving `out` in an unspecified state) on any torn or corrupt
/// frame — replication batches are either applied whole or rejected.
/// When `offsets` is non-null it receives the byte offset of each frame's
/// start within `data` (same index as `out`), letting callers splice the
/// validated raw bytes — e.g. a follower re-appending a frame batch suffix
/// to its own WAL without re-encoding.
bool decode_wal_frames(std::string_view data, std::vector<WalRecord>& out,
                       std::vector<std::size_t>* offsets = nullptr);

}  // namespace prvm
