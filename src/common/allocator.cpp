#include "common/allocator.hpp"

#include <cstdlib>  // defines __GLIBC__ on glibc

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
#endif
}

}  // namespace prvm
