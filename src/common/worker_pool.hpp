// A reusable worker-thread pool for data-parallel loops.
//
// The profile-graph BFS spawns a thread team per frontier wave and the
// experiment harness another per run; at EC2 scale that is thousands of
// thread create/join cycles per bench. This pool keeps one lazily-started
// team alive for the process and hands it index ranges instead. Work is
// claimed in chunks off a shared atomic cursor, so uneven items (BFS waves,
// whole simulation repetitions) self-balance. parallel_for() is re-entrant:
// called from inside a pool task it runs the loop inline, so nested
// parallelism cannot deadlock.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace prvm {

class WorkerPool {
 public:
  /// Creates a pool of `threads` threads, the caller included (0 = one per
  /// CPU the process may run on, as `nproc` counts them).
  /// The worker threads start on the first parallel_for().
  explicit WorkerPool(unsigned threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Workers plus the calling thread.
  unsigned thread_count() const { return worker_target_ + 1; }

  /// Runs fn(i) for every i in [begin, end), splitting work between the
  /// caller and the pool. Blocks until every index is done. At most
  /// `max_threads` threads participate (0 = no limit; the caller always
  /// counts as one). The first exception thrown by fn is rethrown here.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn, std::size_t grain = 0,
                    unsigned max_threads = 0);

  /// Runs fn(lo, hi) over [0, n) cut into consecutive slices of `chunk`
  /// indices (the last one shorter), one slice per pool task. Slice
  /// boundaries depend only on n and chunk, never on the thread count.
  void parallel_chunks(std::size_t n, std::size_t chunk,
                       const std::function<void(std::size_t, std::size_t)>& fn);

  /// The process-wide shared pool, one thread per usable CPU.
  static WorkerPool& shared();

 private:
  void worker_main();
  void run_chunks();

  const unsigned worker_target_;
  std::vector<std::thread> threads_;

  std::mutex caller_mu_;  ///< serializes top-level parallel_for() calls
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  bool stop_ = false;

  // Current job, guarded by mu_ except for the atomic cursor.
  std::uint64_t job_id_ = 0;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::atomic<std::size_t> next_{0};
  std::size_t end_ = 0;
  std::size_t grain_ = 1;
  unsigned extra_slots_ = 0;  ///< how many workers may still join the job
  unsigned busy_ = 0;         ///< workers currently inside the job
  std::exception_ptr error_;
};

}  // namespace prvm
