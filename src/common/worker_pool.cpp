#include "common/worker_pool.hpp"

#include <algorithm>
#include <utility>

#include <sched.h>

namespace prvm {

namespace {
// Set while a thread is executing pool work; nested parallel_for() calls on
// such a thread run inline instead of waiting on the (busy) pool.
thread_local bool t_inside_pool = false;

// The CPUs this process may run on (what `nproc` prints): under
// `taskset -c 0` a pool of hardware_concurrency() threads would only
// time-slice one CPU.
unsigned usable_cpus() {
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}
}  // namespace

WorkerPool::WorkerPool(unsigned threads)
    : worker_target_(std::max(1u, threads == 0 ? usable_cpus() : threads) - 1) {}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

WorkerPool& WorkerPool::shared() {
  static WorkerPool pool;
  return pool;
}

void WorkerPool::run_chunks() {
  const bool was_inside = t_inside_pool;
  t_inside_pool = true;
  for (;;) {
    const std::size_t begin = next_.fetch_add(grain_, std::memory_order_relaxed);
    if (begin >= end_) break;
    const std::size_t end = std::min(begin + grain_, end_);
    try {
      for (std::size_t i = begin; i < end; ++i) (*fn_)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
      next_.store(end_, std::memory_order_relaxed);  // abandon remaining work
      break;
    }
  }
  t_inside_pool = was_inside;
}

void WorkerPool::worker_main() {
  std::uint64_t last_job = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || (fn_ != nullptr && job_id_ != last_job); });
    if (stop_) return;
    last_job = job_id_;
    if (extra_slots_ == 0) continue;  // job is capped; leave it to others
    --extra_slots_;
    ++busy_;
    lock.unlock();
    run_chunks();
    lock.lock();
    --busy_;
    done_cv_.notify_all();
  }
}

void WorkerPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn, std::size_t grain,
                              unsigned max_threads) {
  if (begin >= end) return;
  const std::size_t count = end - begin;
  unsigned helpers = worker_target_;
  if (max_threads != 0) helpers = std::min(helpers, max_threads - 1);
  if (helpers == 0 || count == 1 || t_inside_pool) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  if (grain == 0) {
    grain = std::max<std::size_t>(1, count / (std::size_t{helpers + 1} * 8));
  }

  // One job at a time: concurrent top-level callers queue up here instead of
  // corrupting each other's job state.
  std::lock_guard<std::mutex> caller_lock(caller_mu_);
  std::unique_lock<std::mutex> lock(mu_);
  while (threads_.size() < worker_target_) {
    threads_.emplace_back([this] { worker_main(); });
  }
  fn_ = &fn;
  next_.store(begin, std::memory_order_relaxed);
  end_ = end;
  grain_ = grain;
  extra_slots_ = helpers;
  error_ = nullptr;
  ++job_id_;
  lock.unlock();
  work_cv_.notify_all();

  run_chunks();

  lock.lock();
  extra_slots_ = 0;  // late wakers must not join a drained job
  done_cv_.wait(lock, [&] { return busy_ == 0; });
  fn_ = nullptr;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void WorkerPool::parallel_chunks(std::size_t n, std::size_t chunk,
                                 const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for(
      0, (n + chunk - 1) / chunk,
      [&](std::size_t c) { fn(c * chunk, std::min(n, (c + 1) * chunk)); }, 1);
}

}  // namespace prvm
