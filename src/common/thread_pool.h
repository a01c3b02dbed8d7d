/// \file
/// \brief Work-stealing thread pool backing the parallel query-serving
/// layer (docs/DESIGN.md §7): `Smoqe::QueryBatch` fans its DOM items
/// across it, a single DOM `Query` splits its walk over it at the root
/// (`DomEvalOptions::pool`, §3.7), the shared StAX scan
/// (`BatchEvaluator::RunParallel`) advances its plans on it, smoqed runs
/// its wire requests on it (§10.3), and bench_parallel (E13) sweeps its
/// size.

#ifndef SMOQE_COMMON_THREAD_POOL_H_
#define SMOQE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/telemetry/metrics.h"

namespace smoqe {

/// \brief Countdown latch for fork/join sections (C++17 has no
/// std::latch). CountDown may be called from any thread; Wait blocks the
/// caller until the count reaches zero. The count is mutex-guarded (not a
/// lock-free fast path) so that once Wait returns, no CountDown caller
/// can still be touching the latch — a stack-allocated Latch may be
/// destroyed immediately after Wait.
class Latch {
 public:
  explicit Latch(size_t count) : count_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--count_ == 0) cv_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return count_ == 0; });
  }

 private:
  size_t count_;
  std::mutex mu_;
  std::condition_variable cv_;
};

/// \brief Work-stealing thread pool.
///
/// `threads` is the total parallelism including the calling thread, so a
/// pool built with `threads == 1` spawns no workers and runs everything
/// inline — the serial fallback needs no special casing. Each worker owns
/// a deque: submissions land round-robin, a worker pops its own deque
/// LIFO (cache-warm), and an idle worker steals FIFO from the others
/// (oldest task first, the classic Blumofe–Leiserson discipline).
///
/// ParallelFor is the fork/join primitive the engine uses: the calling
/// thread *participates* in the loop, so nested ParallelFor from inside a
/// task can never deadlock — a saturated pool degrades to the caller
/// draining its own iterations inline. Fork splits it in two halves for
/// a caller with its own work to do between fork and join.
///
/// Each `Smoqe` engine owns one pool (sized by
/// `EngineOptions::max_threads`) and hands it to whatever it runs in
/// parallel; standalone callers (tests, benches) build their own.
class ThreadPool {
  struct ForJob;

 public:
  /// A fork in flight (see Fork). Join() runs on the calling thread
  /// every iteration no pool task has claimed yet, then blocks until
  /// the claimed ones finish; the destructor joins too.
  class Forked {
   public:
    Forked() = default;
    Forked(Forked&&) = default;
    Forked& operator=(Forked&&) = delete;
    ~Forked() { Join(); }
    void Join();

   private:
    friend class ThreadPool;
    explicit Forked(std::shared_ptr<ForJob> job) : job_(std::move(job)) {}
    std::shared_ptr<ForJob> job_;
  };

  /// `threads` = total parallelism (callers + workers). 0 means one per
  /// hardware core (`std::thread::hardware_concurrency`).
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism: worker threads + the calling thread.
  int thread_count() const { return static_cast<int>(workers_.size()) + 1; }

  /// Enqueues `fn` for asynchronous execution. With no workers the call
  /// runs `fn` inline before returning.
  void Submit(std::function<void()> fn);

  /// Runs `body(i)` for every i in [0, n), distributing iterations across
  /// the workers via a shared claim counter; the calling thread helps.
  /// Returns when every iteration has finished. `body` must be safe to
  /// call concurrently from multiple threads.
  void ParallelFor(size_t n, const std::function<void(size_t)>& body);

  /// Starts `body(i)` for every i in [0, n) on the pool and returns at
  /// once; the caller joins through the returned handle. Iterations are
  /// claimed through a shared counter, so the join only ever runs its
  /// own iterations (never another caller's task — its latency is
  /// bounded by its own work) and only ever waits on iterations already
  /// running on another thread, which is why it cannot deadlock on a
  /// saturated pool. `body` must outlive the join.
  Forked Fork(size_t n, const std::function<void(size_t)>& body);

  /// Lifetime totals, always collected (relaxed atomics — approximate
  /// cross-counter consistency, exact totals once the pool is quiescent).
  struct Stats {
    uint64_t submitted = 0;  ///< tasks handed to Submit (incl. inline runs)
    uint64_t executed = 0;   ///< tasks that have finished running
    uint64_t steals = 0;     ///< pops from another worker's deque
  };
  Stats stats() const {
    Stats s;
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.executed = executed_.load(std::memory_order_relaxed);
    s.steals = steals_.load(std::memory_order_relaxed);
    return s;
  }

  /// Tasks submitted but not yet started (queue depth); approximate by
  /// nature (relaxed).
  size_t pending() const { return pending_.load(std::memory_order_relaxed); }

  /// Mirrors pool activity into `registry` from now on (docs/DESIGN.md
  /// §8.4): counters `pool.tasks_submitted` / `pool.tasks_executed` /
  /// `pool.steals`, gauge `pool.queue_depth`, histogram
  /// `pool.task_wait_ns` (Submit-to-pop latency; tasks submitted before
  /// attachment carry no timestamp and are not recorded). Safe to call
  /// while the pool is running; nullptr detaches.
  void AttachTelemetry(telemetry::MetricsRegistry* registry);

 private:
  struct Task {
    std::function<void()> fn;
    /// Enqueue time; only stamped (and only read) when the wait-latency
    /// histogram was attached at submit time.
    std::chrono::steady_clock::time_point enqueued;
    bool timed = false;
  };

  struct WorkQueue {
    std::mutex mu;
    std::deque<Task> tasks;
  };

  /// Fork with `helpers` pool tasks claiming iterations.
  Forked Spawn(size_t n, const std::function<void(size_t)>& body,
               size_t helpers);
  void WorkerLoop(size_t self);
  /// Pops one task — own deque back first, then steals another queue's
  /// front. Returns false when every deque is empty.
  bool RunOneTask(size_t self);

  std::vector<std::unique_ptr<WorkQueue>> queues_;
  std::vector<std::thread> workers_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  std::atomic<size_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::atomic<size_t> next_queue_{0};

  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> executed_{0};
  std::atomic<uint64_t> steals_{0};
  // Attached-registry metrics; release-stored by AttachTelemetry,
  // acquire-loaded on use so a worker that sees the pointer also sees the
  // metric object it points at.
  std::atomic<telemetry::Counter*> tm_submitted_{nullptr};
  std::atomic<telemetry::Counter*> tm_executed_{nullptr};
  std::atomic<telemetry::Counter*> tm_steals_{nullptr};
  std::atomic<telemetry::Gauge*> tm_queue_depth_{nullptr};
  std::atomic<telemetry::Histogram*> tm_task_wait_ns_{nullptr};
};

}  // namespace smoqe

#endif  // SMOQE_COMMON_THREAD_POOL_H_
