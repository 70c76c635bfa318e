// In-memory span tracer for the benchmark program.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions; nothing inside src/ is instrumented. Each
// span carries a name, start, end, parent span and unit id. Recording is
// off by default: begin() on a disabled tracer returns kNoSpan without
// reading the clock, so untraced runs pay one relaxed atomic load per span
// site.
//
// Every thread appends to its own buffer, so recording takes no lock after
// a thread's first span. A span's parent is the innermost span open on the
// same thread unless the caller names one explicitly (a sweep point's
// parent is the sweep span on the coordinating thread).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using SpanId = std::int64_t;
constexpr SpanId kNoSpan = -1;
constexpr SpanId kInheritParent = -2;
constexpr long long kNoUnit = -1;

// Where in the run a span was recorded.
enum class Phase : int { kSetup = 0, kLoop = 1, kVerify = 2, kProbe = 3 };
const char* phase_name(Phase phase);

struct SpanRecord {
  const char* name = "";  // a string literal: spans never own their name
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  long long unit = kNoUnit;  // unit the span belongs to; kNoUnit outside
  int tid = 0;
  Phase phase = Phase::kSetup;
  double start_us = 0.0;
  double end_us = 0.0;

  double duration_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  // The process-wide tracer every Span records into.
  static Tracer& global();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  // Phase stamped on spans begun from now on. Change it only while no
  // worker thread is recording.
  void set_phase(Phase phase) { phase_.store(phase, std::memory_order_relaxed); }

  // Opens a span on the calling thread. `parent` defaults to the innermost
  // open span of this thread; `unit` defaults to that span's unit.
  SpanId begin(const char* name, SpanId parent = kInheritParent,
               long long unit = kNoUnit);
  // Closes a span opened by begin() on the same thread; kNoSpan is a no-op.
  void end(SpanId id);

  // Every recorded span, grouped by thread in recording order.
  std::vector<SpanRecord> collect() const;

 private:
  // Microseconds since process start (steady clock).
  double now_us() const;

  struct Buffer {
    int tid = 0;
    std::vector<SpanRecord> spans;
    std::vector<SpanId> open;  // stack of spans open on this thread
  };
  Buffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<Phase> phase_{Phase::kSetup};
  mutable std::mutex mu_;  // guards buffers_ (registration and collect)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

// RAII span on the global tracer.
class Span {
 public:
  explicit Span(const char* name, SpanId parent = kInheritParent,
                long long unit = kNoUnit)
      : id_(Tracer::global().begin(name, parent, unit)) {}
  ~Span() { Tracer::global().end(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  SpanId id() const { return id_; }

 private:
  SpanId id_;
};

// Self time of every span: its duration minus the union of its children's
// intervals, clipped to the span. Children may overlap each other (sweep
// points running on parallel workers under one sweep span); the union
// counts overlapped time once. Indexed like `spans`.
std::vector<double> self_times_us(const std::vector<SpanRecord>& spans);

// Chrome trace-event JSON ("X" complete events, microsecond timestamps)
// that Perfetto and chrome://tracing open directly. `metadata` lands in
// the top-level "otherData" object as string members.
std::string chrome_trace_json(
    const std::vector<SpanRecord>& spans,
    const std::vector<std::pair<std::string, std::string>>& metadata);

}  // namespace perfbench
