// SweepRunner: fans sweep-point evaluations across ThreadPool::run workers
// with deterministic result ordering.
//
// Results land in a preallocated vector slot keyed by point index, so the
// output is identical for any thread count (1, 2, N) and any completion
// order — parallel runs are bitwise-equal to a serial reference. A point
// evaluation that throws is captured as that point's error string; the rest
// of the sweep still completes. SweepResult renders the sweep as a table of
// axes + metrics and writes CSV/JSON artifacts through the util writers.
//
// Usage:
//   SweepRunner runner({.threads = 0});              // 0 = all cores
//   SweepResult r = runner.run(spec, [](const SweepPoint& p) {
//     SweepRecord rec;
//     rec.set("pipe_ms", evaluate(p).pipe_s * 1e3);
//     return rec;
//   });
//   r.write_csv("sweep.csv");
#pragma once

#include <exception>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "exp/sweep.h"
#include "exp/thread_pool.h"

namespace cnpu {

struct SweepOptions {
  // Worker threads: 0 = ThreadPool::recommended_threads(); 1 = run inline on
  // the calling thread (the serial reference path — no thread is started).
  int threads = 0;
};

// The metrics one evaluation emits: ordered (name, value) pairs plus an
// optional freeform note (e.g. the chosen configuration description).
struct SweepRecord {
  std::vector<std::pair<std::string, double>> metrics;
  std::string note;

  // Appends (overwrites on repeat name) and returns *this for chaining.
  SweepRecord& set(const std::string& name, double value);
  // Value of metric `name`; throws std::out_of_range when absent.
  double get(const std::string& name) const;
};

// Outcome of one sweep point: the enumerated point, its record when `ok`,
// or the captured exception message when not. A point a prune predicate
// rejected is `pruned` (and not `ok`): its evaluation never ran, its error
// carries "pruned: <reason>", and num_failed() does not count it.
struct SweepPointResult {
  SweepPoint point;
  SweepRecord record;
  bool ok = false;
  bool pruned = false;
  std::string error;
};

struct SweepResult {
  std::string name;                      // spec name, threaded into artifacts
  std::vector<SweepPointResult> points;  // ordered by point index
  // Wall-clock of the run() call that produced this result and its
  // throughput (points / elapsed_s; 0 when unmeasured or instantaneous) —
  // the sweep-engine speed metric bench_simspeed tracks across PRs (see
  // docs/METRICS.md). Carried into the JSON artifact; NOT into the CSV,
  // whose rows are per-point. Timing varies run to run, so determinism
  // checks that diff two artifacts normalize these fields first.
  double elapsed_s = 0.0;
  double points_per_sec = 0.0;

  int num_failed() const;  // evaluation errors only; pruned points excluded
  int num_pruned() const;

  // CSV: header "point,<axes...>,<metrics...>,error"; metric columns follow
  // the first successful point's record (sweeps emit a uniform schema).
  // Failed points leave metric cells empty and fill `error`.
  std::string to_csv() const;
  // JSON: {"sweep": name, "elapsed_s": s, "points_per_sec": r,
  // "points": [{"point": i, "params": {...}, "metrics": {...}, "ok": bool,
  // "pruned"?: true, "error"?: str, "note"?: str}, ...]}.
  std::string to_json() const;
  // Artifact writers; false on I/O failure.
  bool write_csv(const std::string& path) const;
  bool write_json(const std::string& path) const;
};

// Evaluates one sweep point into its record. May throw; the runner captures.
using SweepFn = std::function<SweepRecord(const SweepPoint&)>;

// Prune predicate: a non-empty return skips the point's evaluation and
// records the string as the prune reason (e.g. a static-bound verdict from
// analysis::compute_bounds — see bench_bounds). Empty string = evaluate.
// Runs on the worker thread right before the point would evaluate, so it
// may be as cheap or expensive as the caller likes; a throwing predicate
// fails the point like a throwing SweepFn would.
using SweepPruneFn = std::function<std::string(const SweepPoint&)>;

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {}) : options_(options) {}

  // Worker threads a run will use (resolves the 0 default).
  int threads() const;

  // Number of distinct per-worker state slots a run() / map() callback can
  // observe: slot ThreadPool::current_worker_index() + 1, i.e. slot 0 for
  // the inline (serial) path on the calling thread, even when that thread
  // is a worker of an enclosing run, and 1..threads() for workers.
  // Although each run starts its own workers, worker w of every run keys
  // slot w + 1, so per-slot state (e.g. a SimEngine with its
  // compiled-program cache) persists usefully across consecutive sweeps —
  // the bisection rounds of max_sustainable_load rely on exactly that.
  int worker_slots() const { return threads() + 1; }

  // Evaluates every point of `spec`, capturing per-point errors. The points
  // vector of the result is always num_points() long and index-ordered.
  SweepResult run(const SweepSpec& spec, const SweepFn& fn) const;

  // Same, with a prune predicate consulted before each evaluation. Points
  // it rejects come back pruned (not failed) with the reason in `error`.
  SweepResult run(const SweepSpec& spec, const SweepFn& fn,
                  const SweepPruneFn& prune) const;

  // Typed fan-out for callers that want their own result structs: applies
  // `fn` to indices [0, n) and returns results by index. Exceptions are NOT
  // captured per-point here — the lowest-index exception is rethrown after
  // all points finish (deterministic regardless of completion order).
  template <typename Fn>
  auto map(int n, Fn&& fn) const
      -> std::vector<decltype(fn(0))> {
    using R = decltype(fn(0));
    // std::vector<bool> packs bits into shared words, so concurrent writes
    // to distinct indices would race; return int/char instead.
    static_assert(!std::is_same_v<R, bool>,
                  "SweepRunner::map cannot return bool");
    std::vector<R> results(static_cast<std::size_t>(n > 0 ? n : 0));
    std::vector<std::exception_ptr> errors(results.size());
    ThreadPool::run(threads(), n, [&](int i) {
      try {
        results[static_cast<std::size_t>(i)] = fn(i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    });
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    return results;
  }

 private:
  SweepOptions options_;
};

}  // namespace cnpu
