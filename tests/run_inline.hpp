// Runs a callable with every WorkerPool::parallel_for it reaches inline.
//
// parallel_for() called from inside a pool task runs its loop on the calling
// thread, for any pool. Calling fn from a task of a private two-thread pool
// therefore makes the shared pool's loops serial, in index order: the
// reference a pooled run must match bit for bit.
#pragma once

#include <cstddef>

#include "common/worker_pool.hpp"

namespace prvm {

template <typename Fn>
void run_inline(Fn fn) {
  WorkerPool outer(2);
  outer.parallel_for(
      0, 2,
      [&](std::size_t i) {
        if (i == 0) fn();
      },
      1);
}

}  // namespace prvm
