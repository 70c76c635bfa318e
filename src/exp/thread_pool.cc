#include "exp/thread_pool.h"

#include <algorithm>
#include <utility>

namespace cnpu {
namespace {

// Written at worker startup, read by current_worker_index(); -1 on every
// thread that is not a pool worker, and inside an InlineScope.
thread_local int t_pool_worker_index = -1;

}  // namespace

int ThreadPool::current_worker_index() { return t_pool_worker_index; }

ThreadPool::InlineScope::InlineScope()
    : saved_(std::exchange(t_pool_worker_index, -1)) {}

ThreadPool::InlineScope::~InlineScope() { t_pool_worker_index = saved_; }

int ThreadPool::recommended_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

ThreadPool::ThreadPool(int threads) {
  const int n = threads > 0 ? threads : recommended_threads();
  threads_.reserve(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    threads_.emplace_back(
        [this, i](std::stop_token stop) { worker_loop(stop, i); });
  }
}

ThreadPool::~ThreadPool() {
  for (auto& t : threads_) t.request_stop();
  work_cv_.notify_all();
  // jthread joins on destruction; workers drain queued tasks before exiting.
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++unfinished_;
  }
  work_cv_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return unfinished_ == 0; });
  if (first_error_) {
    // Surface the first captured task exception exactly once; the pool
    // stays usable for further submit/wait_idle cycles.
    std::exception_ptr err = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::worker_loop(std::stop_token stop, std::size_t self) {
  t_pool_worker_index = static_cast<int>(self);
  // Decrements unfinished_ on scope exit — including when the task throws —
  // so wait_idle() can never deadlock on a lost decrement. (The former
  // post-task decrement ran only on the non-throwing path, and the escaping
  // exception itself would have std::terminate'd the jthread.)
  struct TaskGuard {
    ThreadPool* pool;
    ~TaskGuard() {
      std::lock_guard<std::mutex> lock(pool->mu_);
      --pool->unfinished_;
      if (pool->unfinished_ == 0) pool->idle_cv_.notify_all();
    }
  };
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, stop, [this] { return !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    {
      TaskGuard guard{this};
      try {
        task();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    }
  }
}

}  // namespace cnpu
