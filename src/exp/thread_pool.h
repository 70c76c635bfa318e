// Parallel index loop for coarse-grained sweep evaluations.
//
// ThreadPool::run(threads, n, eval) calls eval(i) once for every i in
// [0, n). Its workers are std::jthread: each takes the next index from one
// shared atomic counter until the counter reaches n, and all of them are
// joined before run() returns. Sweep points are milliseconds to seconds of
// work, so one counter is all the scheduling they need.
//
// The loop makes no ordering promises between calls; callers that need
// deterministic output (SweepRunner) write results into preallocated slots
// keyed by index.
#pragma once

#include <functional>

namespace cnpu {

class ThreadPool {
 public:
  ThreadPool() = delete;

  // Calls eval(i) for every i in [0, n). With threads <= 1 or n <= 1 the
  // calls run inline on the calling thread, in index order, under an
  // InlineScope (the serial reference path). Otherwise min(threads, n)
  // workers take indices in increasing order from one shared counter;
  // worker w reports current_worker_index() == w. `eval` must not throw:
  // an exception escaping a worker ends the program.
  static void run(int threads, int n, const std::function<void(int)>& eval);

  // std::thread::hardware_concurrency(), floored at 1 (the call may
  // legitimately return 0 on exotic platforms).
  static int recommended_threads();

  // Index of the calling thread within the run() that started it: 0..N-1
  // on a run() worker, -1 on any other thread (including the thread that
  // called run()) and inside an InlineScope. Lets point evaluators key
  // per-worker reusable state — e.g. the sweep layer's per-slot SimEngines
  // — without locking: two workers of one run never share an index, and
  // worker w of every run has index w. Run-relative; with nested parallel
  // runs the index alone does not identify a run (sweep-shaped code runs
  // one loop at a time).
  static int current_worker_index();

  // While alive, current_worker_index() reports -1 on the thread that made
  // it, as on a thread outside any run; the destructor restores the index.
  // run() takes its inline (serial) path under one, so state keyed by slot
  // current_worker_index() + 1 maps that path to slot 0 even when run() is
  // called from a worker of an enclosing run.
  class InlineScope {
   public:
    InlineScope();
    ~InlineScope();
    InlineScope(const InlineScope&) = delete;
    InlineScope& operator=(const InlineScope&) = delete;

   private:
    int saved_;
  };
};

}  // namespace cnpu
