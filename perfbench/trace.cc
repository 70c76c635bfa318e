#include "trace.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <unordered_map>

#include "util/json.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kEpoch = Clock::now();

// The buffer of the calling thread. Buffers are owned by the tracer and
// outlive their threads (sweep pools spawn fresh workers per run), so the
// thread-local only caches a pointer.
thread_local void* t_buffer = nullptr;

SpanId make_id(int tid, std::size_t index) {
  return (static_cast<SpanId>(tid) << 32) | static_cast<SpanId>(index);
}

}  // namespace

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kSetup: return "setup";
    case Phase::kLoop: return "loop";
    case Phase::kVerify: return "verify";
    case Phase::kProbe: return "probe";
  }
  return "unknown";
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - kEpoch)
      .count();
}

Tracer::Buffer& Tracer::local_buffer() {
  if (t_buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->tid = static_cast<int>(buffers_.size());
    t_buffer = buffers_.back().get();
  }
  return *static_cast<Buffer*>(t_buffer);
}

SpanId Tracer::begin(const char* name, SpanId parent, long long unit) {
  if (!enabled()) return kNoSpan;
  Buffer& buf = local_buffer();
  SpanRecord rec;
  rec.name = name;
  rec.id = make_id(buf.tid, buf.spans.size());
  rec.tid = buf.tid;
  rec.phase = phase_.load(std::memory_order_relaxed);
  const SpanId enclosing = buf.open.empty() ? kNoSpan : buf.open.back();
  rec.parent = parent == kInheritParent ? enclosing : parent;
  rec.unit = unit;
  if (unit == kNoUnit && enclosing != kNoSpan) {
    rec.unit = buf.spans[static_cast<std::size_t>(enclosing & 0xffffffff)].unit;
  }
  buf.open.push_back(rec.id);
  rec.start_us = now_us();
  buf.spans.push_back(rec);
  return rec.id;
}

void Tracer::end(SpanId id) {
  if (id == kNoSpan) return;
  const double t = now_us();
  Buffer& buf = local_buffer();
  buf.spans[static_cast<std::size_t>(id & 0xffffffff)].end_us = t;
  if (!buf.open.empty() && buf.open.back() == id) buf.open.pop_back();
}

std::vector<SpanRecord> Tracer::collect() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& buf : buffers_) {
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  }
  return all;
}

std::vector<double> self_times_us(const std::vector<SpanRecord>& spans) {
  std::unordered_map<SpanId, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;

  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].emplace_back(s.start_us, s.end_us);
  }

  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_us;
    const double hi = spans[i].end_us;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = 0.0;
    bool in_run = false;
    for (const auto& [a0, b0] : kids) {
      const double a = std::max(a0, lo);
      const double b = std::min(b0, hi);
      if (b <= a) continue;
      if (in_run && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (in_run) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      in_run = true;
    }
    if (in_run) covered += run_end - run_start;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::string chrome_trace_json(
    const std::vector<SpanRecord>& spans,
    const std::vector<std::pair<std::string, std::string>>& metadata) {
  cnpu::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const SpanRecord& s : spans) {
    const std::string_view name(s.name);
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value(std::string(name.substr(0, name.find('.'))));
    w.key("ph").value("X");
    w.key("ts").value_precise(s.start_us);
    w.key("dur").value_precise(s.duration_us());
    w.key("pid").value(1);
    w.key("tid").value(s.tid);
    w.key("args").begin_object();
    w.key("id").value_precise(static_cast<double>(s.id));
    w.key("parent").value_precise(static_cast<double>(s.parent));
    w.key("unit").value_precise(static_cast<double>(s.unit));
    w.key("phase").value(phase_name(s.phase));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("displayTimeUnit").value("ms");
  w.key("otherData").begin_object();
  for (const auto& [k, v] : metadata) w.key(k).value(v);
  w.end_object();
  w.end_object();
  return w.str();
}

}  // namespace perfbench
