// Thread pool for coarse-grained sweep evaluations.
//
// One FIFO queue under one mutex/condvar pair: submit() appends, and each
// idle worker takes the oldest task. Sweep points are milliseconds to
// seconds of work, so contention on the one lock is negligible at that
// granularity. Workers are std::jthread: the destructor requests stop,
// drains tasks already queued, and joins.
//
// The pool makes no ordering promises between tasks; callers that need
// deterministic output (SweepRunner) write results into preallocated slots
// keyed by task index.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cnpu {

class ThreadPool {
 public:
  // `threads` <= 0 selects recommended_threads(). The workers start
  // immediately and idle until work arrives.
  explicit ThreadPool(int threads = 0);
  // Requests stop, wakes all workers, joins. Workers drain tasks already
  // queued before exiting, so destruction after submit() without wait_idle()
  // still runs everything exactly once.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(threads_.size()); }

  // Enqueues `task` for execution on some worker. A throwing task is
  // contained: the first exception any task raises is captured and
  // re-thrown by the next wait_idle() call (later ones are dropped — the
  // first failure is the one worth diagnosing). Callers that need
  // per-task error attribution still wrap and capture themselves
  // (SweepRunner does).
  void submit(std::function<void()> task);

  // Blocks until every submitted task has finished (queue empty AND no task
  // in flight), then re-throws the first exception captured from a task
  // since the last wait_idle (clearing it, so the pool stays usable). Safe
  // to call repeatedly; submit/wait_idle cycles compose. An error never
  // surfaced before destruction is dropped — the destructor must not throw.
  void wait_idle();

  // std::thread::hardware_concurrency(), floored at 1 (the call may
  // legitimately return 0 on exotic platforms).
  static int recommended_threads();

  // Index of the calling thread within the pool that owns it: 0..N-1 on a
  // pool worker, -1 on any other thread (including the thread that built
  // the pool) and inside an InlineScope. Lets point evaluators key
  // per-worker reusable state — e.g. the sweep layer's per-slot SimEngines
  // — without locking: two live workers never share an index, and a
  // worker's index is stable for its lifetime. Pool-relative; with several
  // pools the index alone does not identify a pool (sweep-shaped code runs
  // one pool at a time).
  static int current_worker_index();

  // While alive, current_worker_index() reports -1 on the thread that made
  // it, as on a thread outside any pool; the destructor restores the index.
  // SweepRunner runs its inline (serial) path under one, so state keyed by
  // slot current_worker_index() + 1 maps that path to slot 0 even when the
  // runner itself was called from a worker of an enclosing pool.
  class InlineScope {
   public:
    InlineScope();
    ~InlineScope();
    InlineScope(const InlineScope&) = delete;
    InlineScope& operator=(const InlineScope&) = delete;

   private:
    int saved_;
  };

 private:
  void worker_loop(std::stop_token stop, std::size_t self);

  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable_any work_cv_;  // _any: waits with a stop_token
  std::condition_variable idle_cv_;
  std::size_t unfinished_ = 0;  // queued + running tasks
  // First exception a task threw since the last wait_idle; guarded by mu_.
  std::exception_ptr first_error_;
  std::vector<std::jthread> threads_;
};

}  // namespace cnpu
