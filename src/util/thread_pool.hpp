// Small fixed-size worker pool for batch-parallel fault simulation.
//
// parallel_for(n, fn) invokes fn(task_index, worker_index) for every task
// index in [0, n) and blocks until all tasks finished. The calling thread
// participates as worker 0; a pool of size N uses N-1 spawned threads with
// worker indices 1..N-1, so per-worker scratch arrays of size num_workers()
// are race-free. Task order across workers is unspecified — callers must
// write results only into task-indexed slots, which keeps every consumer of
// the pool bit-identical regardless of thread count.
//
// A parallel_for issued from inside a pool task runs inline on the issuing
// worker (no nested fan-out, no deadlock); the nested call reuses the
// worker's own index so scratch buffers stay private.
#pragma once

#include <cstddef>
#include <functional>

namespace uniscan {

class ThreadPool {
 public:
  /// A pool with `num_workers` total workers (including the caller).
  /// 0 and 1 both mean "no extra threads": parallel_for runs inline.
  explicit ThreadPool(std::size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_workers() const noexcept { return num_workers_; }

  /// Run fn(task_index, worker_index) for all task_index in [0, n);
  /// blocks until every task completed. worker_index < num_workers().
  /// When tasks throw, every remaining task still runs (result slots are
  /// always all written and the pool stays usable), and the exception of the
  /// LOWEST-index failing task is rethrown in the caller — deterministic at
  /// any thread count, not a completion-order race.
  void parallel_for(std::size_t n, const std::function<void(std::size_t, std::size_t)>& fn);

  /// Change the worker count of THIS pool in place: joins the current
  /// threads and spawns a new set. References to the pool stay valid, so
  /// components that captured ThreadPool::global() before a --threads=N
  /// flag was parsed see the new size. Not safe to call while a
  /// parallel_for is in flight.
  void resize(std::size_t num_workers);

  /// The process-wide pool used by the simulators and the compaction
  /// engine. Defaults to 1 worker (fully serial, deterministic).
  static ThreadPool& global();

  /// Largest value any `--threads=N` flag accepts.
  static constexpr std::size_t kMaxThreads = 1024;

  /// Resize the global pool to `n` workers (the `--threads=N` flag).
  /// Equivalent to global().resize(n); the pool object is never replaced.
  static void set_global_threads(std::size_t n);

  /// Worker index of the calling thread while it executes a pool task (the
  /// same value parallel_for passes as fn's second argument); 0 on any
  /// thread outside a task. Lets per-worker state (scratch arrays, counter
  /// shards, trace buffers) be indexed without threading the index through
  /// every call signature.
  static std::size_t worker_id() noexcept;

  /// True while the calling thread is inside a pool task — the condition
  /// under which a nested parallel_for runs inline on this worker.
  static bool in_pool_task() noexcept;

 private:
  struct Impl;
  Impl* impl_ = nullptr;  // null for the inline (<=1 worker) pool
  std::size_t num_workers_ = 1;
};

}  // namespace uniscan
