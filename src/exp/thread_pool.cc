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
  queues_.resize(static_cast<std::size_t>(n));
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
    queues_[next_queue_].push_back(std::move(task));
    next_queue_ = (next_queue_ + 1) % queues_.size();
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

bool ThreadPool::any_queued() const {
  for (const auto& q : queues_) {
    if (!q.empty()) return true;
  }
  return false;
}

bool ThreadPool::try_pop(std::size_t self, std::function<void()>& out) {
  if (!queues_[self].empty()) {
    out = std::move(queues_[self].front());
    queues_[self].pop_front();
    return true;
  }
  // Steal from the deepest sibling queue to balance remaining work.
  std::size_t victim = self;
  std::size_t depth = 0;
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    if (i != self && queues_[i].size() > depth) {
      victim = i;
      depth = queues_[i].size();
    }
  }
  if (depth == 0) return false;
  out = std::move(queues_[victim].back());
  queues_[victim].pop_back();
  return true;
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
      work_cv_.wait(lock, stop, [this] { return any_queued(); });
      if (!try_pop(self, task)) {
        if (stop.stop_requested()) return;
        continue;  // spurious wake or a sibling won the race
      }
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
