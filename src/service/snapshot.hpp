// The cell's durable state, its snapshots and recovery-state comparison.
//
// A CellState is everything the daemon needs to resume: the full Datacenter
// ledger, the admission controller (anti-collocation group membership) and
// the op sequence number of the last WAL record folded into them.
// CellState::apply is the one applier: live commits, WAL recovery and a
// follower's frame stream all change the state through it, and a snapshot
// replaces it whole. A snapshot writes the state in the PRVMSNAP1 layout.
// Files in the PRVMSNAP2 layout, which wrote the retired cross-cell group
// directory between the admission block and the ledger, still load: the
// reader skips that block. Snapshots stream to a temp file through one
// bounded chunk and are renamed into place only once every byte is written
// and synced, so a crash or a failed write mid-way leaves the previous
// snapshot intact. Double-apply after a crash between snapshot-rename and
// WAL-truncate is prevented by the snapshot's `op_seq`: replay skips WAL
// records the snapshot already covers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <optional>

#include "cluster/datacenter.hpp"
#include "service/admission.hpp"
#include "service/io_env.hpp"
#include "service/wal.hpp"

namespace prvm {

struct CellState {
  Datacenter dc;
  AdmissionController admission;
  std::uint64_t op_seq = 0;  ///< highest op_seq folded into the state

  /// Applies one WAL record to the ledger and the admission controller and
  /// advances op_seq to it. A record of a retired type only advances op_seq.
  void apply(const WalRecord& record);
};

/// Largest chunk save_snapshot holds: the snapshot is serialized into it
/// and written out each time it fills, so no ledger-sized buffer is built.
/// Half the trim threshold prvm_serve pins (allocator.hpp), so the chunk is
/// a plain local: freeing it never returns pages the next snapshot must
/// fault in again.
inline constexpr std::size_t kSnapshotChunkBytes = std::size_t{64} << 10;

/// Atomically writes a snapshot: open the temp file, stream the bytes to it
/// chunk by chunk, fsync, close, rename, then fsync the parent directory —
/// a snapshot that gates WAL truncation must not be able to vanish on power
/// loss after the rename. A failure at any step returns before the rename,
/// leaving the previous snapshot intact. Returns an errno-rich status
/// instead of throwing, so the caller (the degraded-mode state machine) can
/// keep the service alive on snapshot failure.
IoStatus save_snapshot(const std::filesystem::path& path, const CellState& state,
                       IoEnv* env = nullptr);

/// Loads a snapshot; nullopt when `path` does not exist (ENOENT). Throws
/// when it exists but cannot be opened, on a corrupt file and on a catalog
/// mismatch.
std::optional<CellState> load_snapshot(const std::filesystem::path& path,
                                       const Catalog& catalog);

/// Serializes the full snapshot blob in memory: the same writer as
/// save_snapshot without the spill, so the same bytes. Replication uses
/// this for follower catch-up over the wire.
std::string serialize_snapshot(const CellState& state);

/// Parses a snapshot blob produced by serialize_snapshot/save_snapshot.
/// Throws on a corrupt blob or catalog mismatch (same contract as
/// load_snapshot), so callers on the request path must catch.
CellState parse_snapshot(const std::string& blob, const Catalog& catalog);

/// Deep state equality across every recovery-relevant invariant: per-PM
/// usage + canonical keys + hosted VMs with assignments, used order,
/// activation sequence numbers and counter, per-type bucket membership and
/// the free-list. This is the differential oracle of the crash-recovery
/// tests: replaying snapshot + WAL must reproduce the pre-crash ledger
/// bit-identically under this predicate. Utilization samples are not
/// compared: they are soft state no snapshot or WAL record carries.
bool datacenter_state_equal(const Datacenter& a, const Datacenter& b);

/// FNV-1a digest over (pm, vm, assignments) of every placement plus the
/// activation sequence numbers — a compact fingerprint the daemon exposes
/// through the stats op so external tooling (crash-recovery smoke test)
/// can compare pre-kill and post-recovery state.
std::uint64_t datacenter_state_digest(const Datacenter& dc);

}  // namespace prvm
