// The daemon's malloc policy.
//
// glibc raises its trim threshold as a process frees large blocks: after the
// cold score-table build frees its multi-MB arrays, the free top of each
// worker thread's arena stays resident for the life of the process, and
// malloc_trim() never releases the top of a non-main arena. The tables
// themselves are served from file mappings, so that residue was a quarter of
// an idle cell's memory.
//
// glibc also gives each thread that contends for the main arena an arena
// of its own, up to eight per CPU. Each one keeps its free chunks below the
// trim threshold for good: the cold build's pool threads kept theirs after
// the build, and the loop thread, the one that serves every request, paid
// for a second heap beside the main one. The daemon allocates almost
// nothing per request (the ledger, the engine's memos and every per-pass
// buffer are reused), so one arena costs no measurable contention, and the
// loop's heap is the memory the build freed: about 0.4 MB of an idle cell
// and 0.8 MB of a loaded one.
#pragma once

#include <cstdint>

namespace prvm {

/// Pins M_TRIM_THRESHOLD at glibc's 128 KiB default, so every arena's free
/// top above it goes back to the OS on free, and M_MMAP_THRESHOLD at the
/// ceiling glibc's own adjustment stops at (32 MiB on 64-bit), so blocks up
/// to that size still come from the heap, as they did once the build had
/// raised the threshold. Pinning either value stops glibc adjusting both.
/// Sets M_ARENA_MAX to 1: every thread allocates from the main arena. Call
/// once, first thing in main(), before any thread starts. A no-op on other
/// C libraries.
void pin_allocator_thresholds();

/// This process's memory, as an operator reads it.
struct MemoryUse {
  std::uint64_t resident_bytes = 0;     ///< resident pages (/proc/self/statm)
  std::uint64_t heap_in_use_bytes = 0;  ///< malloc'd and not freed (mallinfo2)
};

/// Reads MemoryUse now; a field reads 0 where its source is unavailable.
MemoryUse read_memory_use();

}  // namespace prvm
