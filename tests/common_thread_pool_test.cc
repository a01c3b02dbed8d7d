#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

namespace smoqe {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "body called for n=0"; });
  std::atomic<int> calls{0};
  pool.ParallelFor(1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> sum{0};
  pool.ParallelFor(100, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 4950);
  // Submit with no workers also runs inline, before returning.
  bool ran = false;
  pool.Submit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, SubmitAndLatch) {
  ThreadPool pool(3);
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  Latch latch(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      done.fetch_add(1);
      latch.CountDown();
    });
  }
  latch.Wait();
  EXPECT_EQ(done.load(), kTasks);
}

TEST(ThreadPoolTest, ParallelForBodyRunsConcurrentWorkSafely) {
  // Each iteration appends into its own slot — no synchronization beyond
  // the fork/join itself; TSan validates the join's happens-before edge.
  ThreadPool pool(4);
  constexpr size_t kN = 512;
  std::vector<size_t> results(kN, 0);
  pool.ParallelFor(kN, [&](size_t i) { results[i] = i * i; });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(results[i], i * i);
}

TEST(ThreadPoolTest, ForkJoinRunsOnlyItsOwnIterations) {
  // The one worker is busy and an unrelated task waits in the queue. The
  // join must run every unclaimed iteration on the calling thread and
  // leave the unrelated task alone — a join that ran any queued task
  // would make its own latency depend on other callers' work.
  ThreadPool pool(2);
  Latch worker_busy(1);
  Latch release(1);
  pool.Submit([&] {
    worker_busy.CountDown();
    release.Wait();
  });
  worker_busy.Wait();
  std::atomic<int> foreign{0};
  pool.Submit([&] { foreign.fetch_add(1); });

  constexpr size_t kN = 4;
  std::vector<std::thread::id> ran_on(kN);
  const std::function<void(size_t)> body = [&](size_t i) {
    ran_on[i] = std::this_thread::get_id();
  };
  ThreadPool::Forked fork = pool.Fork(kN, body);
  fork.Join();
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(ran_on[i], std::this_thread::get_id()) << i;
  }
  EXPECT_EQ(foreign.load(), 0);

  release.CountDown();
  Latch after(1);
  pool.Submit([&] { after.CountDown(); });
  after.Wait();
}

TEST(ThreadPoolTest, ForkOverlapsCallerWorkAndCoversEveryIndex) {
  ThreadPool pool(4);
  constexpr size_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  const std::function<void(size_t)> body = [&](size_t i) {
    hits[i].fetch_add(1);
  };
  for (int round = 0; round < 50; ++round) {
    ThreadPool::Forked fork = pool.Fork(kN, body);
    // The caller's own work between fork and join; the destructor of a
    // never-joined handle joins as well.
    if (round % 2 == 0) fork.Join();
  }
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 50) << i;
}

}  // namespace
}  // namespace smoqe
