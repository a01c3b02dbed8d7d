#include "src/common/thread_pool.h"

#include <algorithm>

#include "src/common/guardrail.h"

namespace smoqe {

ThreadPool::ThreadPool(int threads) {
  int total = threads > 0
                  ? threads
                  : static_cast<int>(std::thread::hardware_concurrency());
  if (total < 1) total = 1;
  const size_t workers = static_cast<size_t>(total - 1);
  queues_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    queues_.push_back(std::make_unique<WorkQueue>());
  }
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::AttachTelemetry(telemetry::MetricsRegistry* registry) {
  if (registry == nullptr) {
    tm_task_wait_ns_.store(nullptr, std::memory_order_release);
    tm_queue_depth_.store(nullptr, std::memory_order_release);
    tm_steals_.store(nullptr, std::memory_order_release);
    tm_executed_.store(nullptr, std::memory_order_release);
    tm_submitted_.store(nullptr, std::memory_order_release);
    return;
  }
  tm_submitted_.store(&registry->GetCounter("pool.tasks_submitted"),
                      std::memory_order_release);
  tm_executed_.store(&registry->GetCounter("pool.tasks_executed"),
                     std::memory_order_release);
  tm_steals_.store(&registry->GetCounter("pool.steals"),
                   std::memory_order_release);
  tm_queue_depth_.store(&registry->GetGauge("pool.queue_depth"),
                        std::memory_order_release);
  tm_task_wait_ns_.store(&registry->GetHistogram("pool.task_wait_ns"),
                         std::memory_order_release);
}

void ThreadPool::Submit(std::function<void()> fn) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  if (auto* c = tm_submitted_.load(std::memory_order_acquire)) c->Add();
  if (workers_.empty()) {
    fn();  // no workers: degenerate pool runs inline
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (auto* c = tm_executed_.load(std::memory_order_acquire)) c->Add();
    return;
  }
  Task task;
  task.fn = std::move(fn);
  if (tm_task_wait_ns_.load(std::memory_order_acquire) != nullptr) {
    task.enqueued = std::chrono::steady_clock::now();
    task.timed = true;
  }
  const size_t q =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mu);
    queues_[q]->tasks.push_back(std::move(task));
  }
  if (auto* g = tm_queue_depth_.load(std::memory_order_acquire)) g->Add(1);
  {
    // The increment must happen under wake_mu_ (like stop_ in the
    // destructor): a worker that just evaluated the wait predicate as
    // false but has not yet blocked would otherwise miss the notify and
    // sleep over a queued task.
    std::lock_guard<std::mutex> lock(wake_mu_);
    pending_.fetch_add(1, std::memory_order_release);
  }
  wake_cv_.notify_one();
}

bool ThreadPool::RunOneTask(size_t self) {
  const size_t k = queues_.size();
  for (size_t probe = 0; probe < k; ++probe) {
    const size_t q = (self + probe) % k;
    Task task;
    {
      std::lock_guard<std::mutex> lock(queues_[q]->mu);
      if (queues_[q]->tasks.empty()) continue;
      if (probe == 0) {
        task = std::move(queues_[q]->tasks.back());  // own queue: LIFO
        queues_[q]->tasks.pop_back();
      } else {
        task = std::move(queues_[q]->tasks.front());  // steal: FIFO
        queues_[q]->tasks.pop_front();
      }
    }
    if (probe != 0) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      if (auto* c = tm_steals_.load(std::memory_order_acquire)) c->Add();
    }
    if (auto* g = tm_queue_depth_.load(std::memory_order_acquire)) g->Add(-1);
    if (task.timed) {
      if (auto* h = tm_task_wait_ns_.load(std::memory_order_acquire)) {
        const auto wait = std::chrono::steady_clock::now() - task.enqueued;
        h->Record(static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(wait)
                .count()));
      }
    }
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    // Fault site: a worker that claimed a task but stalls before running
    // it — models a descheduled/oversubscribed worker. Callers must
    // still complete correctly (fork/join waits, deadlines trip).
    if (fault::At("pool.task")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    task.fn();
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (auto* c = tm_executed_.load(std::memory_order_acquire)) c->Add();
    return true;
  }
  return false;
}

void ThreadPool::WorkerLoop(size_t self) {
  while (true) {
    if (RunOneTask(self)) continue;
    std::unique_lock<std::mutex> lock(wake_mu_);
    wake_cv_.wait(lock, [&] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

/// Shared claim-counter state of one fork. Heap-held so helper tasks
/// left in a queue after the join (a saturated pool) touch valid memory
/// when they finally run and find no iterations left; they never touch
/// `body`, which lives only until the join.
struct ThreadPool::ForJob {
  const std::function<void(size_t)>* body;
  size_t n = 0;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;

  /// Claims and runs iterations until none is left unclaimed.
  void Drain() {
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      (*body)(i);
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};

void ThreadPool::Forked::Join() {
  if (job_ == nullptr) return;
  job_->Drain();  // the caller takes over whatever nobody claimed
  if (job_->done.load(std::memory_order_acquire) != job_->n) {
    std::unique_lock<std::mutex> lock(job_->mu);
    job_->cv.wait(lock, [&] {
      return job_->done.load(std::memory_order_acquire) == job_->n;
    });
  }
  job_.reset();
}

ThreadPool::Forked ThreadPool::Spawn(size_t n,
                                     const std::function<void(size_t)>& body,
                                     size_t helpers) {
  if (n == 0) return Forked();
  auto job = std::make_shared<ForJob>();
  job->body = &body;
  job->n = n;
  for (size_t h = 0; h < helpers; ++h) {
    Submit([job] { job->Drain(); });
  }
  return Forked(std::move(job));
}

ThreadPool::Forked ThreadPool::Fork(size_t n,
                                    const std::function<void(size_t)>& body) {
  return Spawn(n, body, std::min(workers_.size(), n));
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t)>& body) {
  if (n == 0) return;
  const size_t helpers = std::min(workers_.size(), n - 1);
  if (helpers == 0) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // The caller participates at once — nesting cannot deadlock.
  Spawn(n, body, helpers).Join();
}

}  // namespace smoqe
