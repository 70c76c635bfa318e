#include "exp/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>
#include <vector>

namespace cnpu {
namespace {

// Written at worker startup, read by current_worker_index(); -1 on every
// thread that is not a run() worker, and inside an InlineScope.
thread_local int t_pool_worker_index = -1;

}  // namespace

int ThreadPool::current_worker_index() { return t_pool_worker_index; }

ThreadPool::InlineScope::InlineScope()
    : saved_(std::exchange(t_pool_worker_index, -1)) {}

ThreadPool::InlineScope::~InlineScope() { t_pool_worker_index = saved_; }

int ThreadPool::recommended_threads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

void ThreadPool::run(int threads, int n,
                     const std::function<void(int)>& eval) {
  if (threads <= 1 || n <= 1) {
    const InlineScope inline_slot;
    for (int i = 0; i < n; ++i) eval(i);
    return;
  }
  std::atomic<int> next{0};
  // Never start more workers than there are indices. The vector's
  // destructor joins every worker, also when starting a later one throws.
  const int count = std::min(threads, n);
  std::vector<std::jthread> workers;
  workers.reserve(static_cast<std::size_t>(count));
  for (int w = 0; w < count; ++w) {
    workers.emplace_back([&next, &eval, n, w] {
      t_pool_worker_index = w;
      for (int i = next++; i < n; i = next++) eval(i);
    });
  }
}

}  // namespace cnpu
