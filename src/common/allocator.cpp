#include "common/allocator.hpp"

#include <unistd.h>

#include <cstdlib>  // defines __GLIBC__ on glibc
#include <fstream>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace prvm {

void pin_allocator_thresholds() {
#if defined(__GLIBC__)
  // glibc's DEFAULT_TRIM_THRESHOLD and DEFAULT_MMAP_THRESHOLD_MAX. A 128 KiB
  // mmap threshold would leave the same residue but map and fault in every
  // block above it afresh: 35% more page faults per cold build, and a
  // growing container's every doubling.
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  mallopt(M_MMAP_THRESHOLD, static_cast<int>(4 * 1024 * 1024 * sizeof(long)));
  mallopt(M_ARENA_MAX, 1);
#endif
}

MemoryUse read_memory_use() {
  MemoryUse use;
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  if (statm >> size_pages >> resident_pages) {
    use.resident_bytes = resident_pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  }
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 info = mallinfo2();
  use.heap_in_use_bytes = info.uordblks + info.hblkhd;
#endif
  return use;
}

}  // namespace prvm
