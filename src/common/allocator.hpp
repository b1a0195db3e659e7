// The daemon's malloc policy.
//
// glibc raises its trim threshold as a process frees large blocks: after the
// cold score-table build frees its multi-MB arrays, the free top of each
// worker thread's arena stays resident for the life of the process, and
// malloc_trim() never releases the top of a non-main arena. The tables
// themselves are served from file mappings, so that residue was a quarter of
// an idle cell's memory.
#pragma once

namespace prvm {

/// Pins M_TRIM_THRESHOLD at glibc's 128 KiB default, so every arena's free
/// top above it goes back to the OS on free, and M_MMAP_THRESHOLD at the
/// ceiling glibc's own adjustment stops at (32 MiB on 64-bit), so blocks up
/// to that size still come from the heap, as they did once the build had
/// raised the threshold. Pinning either value stops glibc adjusting both.
/// Call once, first thing in main(), before any thread starts. A no-op on
/// other C libraries.
void pin_allocator_thresholds();

}  // namespace prvm
