// cnpu_perfbench: runs one benchmark workload and prints its metrics.
//
//   cnpu_perfbench --workload dse_design|sim_sweep|capacity_search
//                  --seed N --seconds S --trace 0|1
//                  [--trace-out FILE] [--digests FILE]
//                  [--stamp KEY=VALUE ...] [--print-digest]
//
// Set-up is timed several times (fresh workload each time) and reported as
// the median. The timed loop then runs whole cycles until S seconds have
// passed. With --trace 0 the last stdout line reports the end-to-end
// metrics; with --trace 1 cycles alternate untraced/traced and it reports
// the per-layer metrics, computed from the traced cycles' spans, the
// layer probes and the workload counters. See perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "digest.h"
#include "probes.h"
#include "stats.h"
#include "trace.h"
#include "util/json.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// Sweep workers (capacity_search: search threads). Fixed, so every run
// offers the same parallelism; 2 of 4 cores leaves headroom for the rest
// of the machine.
constexpr int kWorkers = 2;
constexpr std::size_t kMinSetupReps = 5;
constexpr std::size_t kMaxSetupReps = 20000;
// Spreading the repetitions over a second keeps a short burst of machine
// noise from moving the median of a sub-millisecond set-up.
constexpr double kMinSetupSeconds = 1.0;
// Host time is CPU time, which other processes taking the cores do not
// advance; they still slow a core down through its caches and siblings, so
// the end-to-end figures read the fastest 5% of the repetitions.
constexpr double kQuietPercentile = 5.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string digests;
  bool print_digest = false;
  std::vector<std::pair<std::string, std::string>> stamp;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "cnpu_perfbench: %s\nusage: cnpu_perfbench --workload "
               "dse_design|sim_sweep|capacity_search --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--digests FILE] "
               "[--stamp KEY=VALUE] [--print-digest]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-digest") {
      a.print_digest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--trace-out") a.trace_out = v;
      else if (flag == "--digests") a.digests = v;
      else if (flag == "--stamp") {
        const auto eq = v.find('=');
        if (eq == std::string::npos) usage("--stamp takes KEY=VALUE");
        a.stamp.emplace_back(v.substr(0, eq), v.substr(eq + 1));
      } else usage("unknown flag " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const RunConfig& cfg) {
  if (name == "dse_design") return make_dse_design(cfg);
  if (name == "sim_sweep") return make_sim_sweep(cfg);
  if (name == "capacity_search") return make_capacity_search(cfg);
  usage("unknown workload '" + name + "'");
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// The run's stamp: caller-supplied keys (git sha, source digest) plus the
// machine fingerprint, worker count and seed.
std::vector<std::pair<std::string, std::string>> stamp_of(const Args& a) {
  auto s = a.stamp;
  s.emplace_back("cpu_model", cpu_model());
  s.emplace_back("nproc", std::to_string(std::thread::hardware_concurrency()));
  s.emplace_back("compiler", std::string("gcc-compatible ") + __VERSION__);
  s.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
  s.emplace_back("workload", a.workload);
  s.emplace_back("workers", std::to_string(kWorkers));
  s.emplace_back("seed", std::to_string(a.seed));
  return s;
}

// Digest shipped for (workload, seed), or "" when none is.
std::string shipped_digest(const std::string& path, const std::string& workload,
                           std::uint64_t seed) {
  if (path.empty()) return "";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read digests file " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  const cnpu::JsonValue doc = cnpu::parse_json(ss.str());
  const cnpu::JsonValue* per_seed = doc.find(workload);
  if (per_seed == nullptr) return "";
  const cnpu::JsonValue* d = per_seed->find(std::to_string(seed));
  return d == nullptr ? "" : d->as_string();
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Counters every traced run reports, with their units; a workload that
// does not exercise a layer reports 0 for its counts and ratios.
const std::pair<const char*, const char*> kCounterUnits[] = {
    {"core.match_steps", "count"},
    {"sim.tasks_per_run", "count"},
    {"sim.ns_per_task", "ns"},
    {"sim.program_build_us", "us"},
    {"sim.cache_hit_ratio", "ratio"},
    {"sim.warm_start_ratio", "ratio"},
    {"analysis.prune_ratio", "ratio"},
    {"serving.rounds_per_search", "count"},
    {"serving.probes_per_search", "count"},
    {"serving.feasible_ratio", "ratio"},
    {"serving.nonmonotone_ratio", "ratio"},
    {"serving.probe_work_share", "ratio"},
    {"exp.noop_sweep_us", "us"},
    {"exp.fanout_us_per_point", "us"},
    {"exp.worker_busy_frac", "ratio"},
    {"exp.fanout_share", "ratio"},
    {"dataflow.analyze_layer.ns_per_call", "ns"},
    {"sim.arrivals.ns_per_frame", "ns"},
    {"core.remap_schedule.us", "us"},
    {"trace.overhead_frac", "ratio"},
};

struct LoopStats {
  std::vector<double> unit_s;   // every unit's CPU time, cycle after cycle
  std::vector<double> cycle_s;  // every cycle's process CPU time
  double wall_s = 0.0;
  double traced_cpu_s = 0.0;
  double untraced_cpu_s = 0.0;
  long long traced_units = 0;
  long long untraced_units = 0;
  int cycles = 0;
  int traced_cycles = 0;
  long long failed = 0;
  std::vector<std::string> errors;
  std::uint64_t run_digest = 0;
};

LoopStats run_loop(Workload& w, const Args& a) {
  Tracer& tracer = Tracer::global();
  tracer.set_phase(Phase::kLoop);
  const int n = w.units_per_cycle();
  std::vector<UnitResult> out(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> first(static_cast<std::size_t>(n));
  LoopStats st;
  // Traced runs alternate untraced and traced cycles, so both rates see the
  // same machine conditions; they need at least one of each.
  const int min_cycles = a.trace ? 2 : 1;
  while (st.cycles < min_cycles || st.wall_s < a.seconds) {
    const bool traced = a.trace && st.cycles % 2 == 1;
    tracer.set_enabled(traced);
    const double t0 = host_now_s();
    const double cpu0 = process_cpu_s();
    w.run_cycle(static_cast<long long>(st.cycles) * n, out);
    const double cpu = process_cpu_s() - cpu0;
    tracer.set_enabled(false);
    st.wall_s += host_now_s() - t0;
    st.cycle_s.push_back(cpu);
    (traced ? st.traced_cpu_s : st.untraced_cpu_s) += cpu;
    (traced ? st.traced_units : st.untraced_units) += n;
    st.traced_cycles += traced ? 1 : 0;
    for (int i = 0; i < n; ++i) {
      const UnitResult& u = out[static_cast<std::size_t>(i)];
      st.unit_s.push_back(u.cpu_s);
      std::string err = u.error;
      if (st.cycles == 0) {
        first[static_cast<std::size_t>(i)] = u.digest;
      } else if (err.empty() && u.digest != first[static_cast<std::size_t>(i)]) {
        err = "output differs from the first cycle's";
      }
      if (!err.empty()) {
        ++st.failed;
        if (st.errors.size() < 8) {
          st.errors.push_back("unit " + std::to_string(i) + " (cycle " +
                              std::to_string(st.cycles) + "): " + err);
        }
      }
    }
    ++st.cycles;
  }
  Digest d;
  for (const std::uint64_t u : first) d.add(static_cast<std::int64_t>(u));
  st.run_digest = d.value();
  return st;
}

std::vector<Metric> layer_metrics(Workload& w, const LoopStats& st, Counters counters) {
  const std::vector<SpanRecord> spans = Tracer::global().collect();
  const std::vector<double> self = self_times_us(spans);
  const std::string unit_name = w.unit_span();

  double unit_us = 0.0;
  long long units = 0;
  for (const SpanRecord& s : spans) {
    if (s.phase == Phase::kLoop && unit_name == s.name) {
      unit_us += s.duration_us();
      ++units;
    }
  }
  std::vector<Metric> m;
  double loop_sim_us = 0.0;
  double point_us = 0.0;
  double sweep_us = 0.0;
  for (const char* name : span::kAll) {
    std::vector<double> loop_dur;
    std::vector<double> any_dur;
    double loop_self = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (std::string_view(spans[i].name) != name) continue;
      any_dur.push_back(spans[i].duration_us());
      if (spans[i].phase != Phase::kLoop) continue;
      loop_dur.push_back(spans[i].duration_us());
      loop_self += self[i];
    }
    double loop_total = 0.0;
    for (const double d : loop_dur) loop_total += d;
    if (name == span::kRunCold || name == span::kRunWarm) loop_sim_us += loop_total;
    if (name == span::kPoint) point_us = loop_total;
    if (name == span::kSweepRun) sweep_us = loop_total;
    // A span the loop never calls is timed from set-up, verify, probe or
    // census calls, so every duration is a measurement.
    const std::vector<double>& durs = loop_dur.empty() ? any_dur : loop_dur;
    const std::string base(name);
    m.push_back({base + ".calls_per_unit",
                 units > 0 ? static_cast<double>(loop_dur.size()) / units : 0.0, "count"});
    m.push_back({base + ".us_p50", durs.empty() ? 0.0 : percentile(durs, 50.0), "us"});
    m.push_back({base + ".self_share", unit_us > 0.0 ? loop_self / unit_us : 0.0, "ratio"});
  }

  long long traced_tasks = 0;
  for (int i = 0; i < w.units_per_cycle(); ++i) traced_tasks += w.unit_tasks(i);
  traced_tasks *= st.traced_cycles;
  if (loop_sim_us > 0.0 && traced_tasks > 0) {
    counters["sim.ns_per_task"] = loop_sim_us * 1e3 / static_cast<double>(traced_tasks);
  }
  if (sweep_us > 0.0) counters["exp.worker_busy_frac"] = point_us / (sweep_us * kWorkers);
  const double noop_us = probe_noop_sweep_us(w.points_per_sweep(), kWorkers);
  counters["exp.noop_sweep_us"] = noop_us;
  counters["exp.fanout_us_per_point"] = noop_us / w.points_per_sweep();
  if (units > 0) {
    counters["exp.fanout_share"] = noop_us * w.sweeps_per_unit() / (unit_us / units);
  }
  const double traced_rate = st.traced_units / st.traced_cpu_s;
  const double untraced_rate = st.untraced_units / st.untraced_cpu_s;
  counters["trace.overhead_frac"] = 1.0 - traced_rate / untraced_rate;
  for (const auto& [name, unit] : kCounterUnits) {
    const auto it = counters.find(name);
    m.push_back({name, it == counters.end() ? 0.0 : it->second, unit});
  }
  return m;
}

void print_record(const std::vector<std::pair<std::string, std::string>>& stamp,
                  const LoopStats& st, int distinct, double failed_frac,
                  const std::string& digest, const std::string& digest_check,
                  int verify_failures) {
  cnpu::JsonWriter w;
  w.begin_object().key("record").begin_object();
  for (const auto& [k, v] : stamp) w.key(k).value(v);
  w.key("cycles").value(st.cycles);
  w.key("traced_cycles").value(st.traced_cycles);
  w.key("unit_samples").value(static_cast<int>(st.unit_s.size()));
  w.key("distinct_units").value(distinct);
  w.key("units_beyond_p99").value(static_cast<int>(samples_beyond(static_cast<std::size_t>(distinct), 99.0)));
  w.key("verify_failures").value(verify_failures);
  w.key("failed_frac").value_precise(failed_frac);
  w.key("run_digest").value(digest);
  w.key("digest_check").value(digest_check);
  w.end_object().end_object();
  std::printf("%s\n", w.str().c_str());
}

int run(const Args& a) {
  const RunConfig cfg{a.seed, kWorkers};
  Tracer& tracer = Tracer::global();
  tracer.set_phase(Phase::kSetup);
  tracer.set_enabled(a.trace);
  // Set-up is repeated (a fresh workload each time, the trace keeping only
  // the first) until enough host time has passed for a stable median.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  const double setup_start = host_now_s();
  while (setup_s.empty() ||
         (!a.print_digest && setup_s.size() < kMaxSetupReps &&
          (setup_s.size() < kMinSetupReps || host_now_s() - setup_start < kMinSetupSeconds))) {
    w.reset();
    const double t0 = process_cpu_s();
    w = make_workload(a.workload, cfg);
    setup_s.push_back(process_cpu_s() - t0);
    tracer.set_enabled(false);
  }

  Args loop_args = a;
  if (a.print_digest) loop_args.seconds = 0.0;  // exactly one cycle
  const LoopStats st = run_loop(*w, loop_args);
  if (a.print_digest) {
    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"digest\": \"%s\", \"failed\": %lld}\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                hex(st.run_digest).c_str(), st.failed);
    return st.failed == 0 ? 0 : 1;
  }

  tracer.set_phase(Phase::kVerify);
  tracer.set_enabled(a.trace);
  std::vector<std::string> verify_failures;
  w->verify(verify_failures);
  Counters counters;
  w->counters(counters);
  std::vector<Metric> metrics;
  if (a.trace) {
    tracer.set_phase(Phase::kProbe);
    w->probe(counters);
    run_census();
    tracer.set_enabled(false);
    metrics = layer_metrics(*w, st, counters);
  }
  tracer.set_enabled(false);

  const auto attempted = static_cast<long long>(st.unit_s.size());
  long long failed = st.failed + static_cast<long long>(verify_failures.size());
  const std::string digest = hex(st.run_digest);
  const std::string expected = shipped_digest(a.digests, a.workload, a.seed);
  std::string digest_check = "no shipped digest for this seed";
  if (!expected.empty()) {
    digest_check = expected == digest ? "match" : "MISMATCH (expected " + expected + ")";
    if (expected != digest) failed = attempted;  // every unit is suspect
  }
  failed = std::min(failed, attempted);
  for (const std::string& e : st.errors) std::fprintf(stderr, "failure: %s\n", e.c_str());
  for (const std::string& e : verify_failures) std::fprintf(stderr, "failure: %s\n", e.c_str());
  if (!expected.empty() && expected != digest) {
    std::fprintf(stderr, "failure: run digest %s != shipped %s\n", digest.c_str(),
                 expected.c_str());
  }

  const auto stamp = stamp_of(a);
  if (a.trace && !a.trace_out.empty()) {
    auto meta = stamp;
    meta.emplace_back("cycles", std::to_string(st.cycles));
    meta.emplace_back("traced_cycles", std::to_string(st.traced_cycles));
    meta.emplace_back("unit_samples", std::to_string(st.unit_s.size()));
    std::ofstream f(a.trace_out);
    f << chrome_trace_json(tracer.collect(), meta);
    if (!f) std::fprintf(stderr, "warning: could not write %s\n", a.trace_out.c_str());
  }
  if (!a.trace) {
    // Every cycle repeats the same work, so each figure reads the quiet end
    // of its repetitions: the rates from the kQuietPercentile-th fastest
    // cycle, and each distinct unit's time as that percentile of its own
    // runs, with unit_p50_ms and unit_p99_ms taken across the distinct
    // units. A percentile that falls between two clusters of units (the
    // short and long streams of sim_sweep split half and half) then reads
    // one unit's time, not the most disturbed sample of a cluster.
    const auto distinct = static_cast<std::size_t>(w->units_per_cycle());
    const std::vector<double> unit_s = per_slot_percentile(st.unit_s, distinct, kQuietPercentile);
    const double cycles_per_s = 1.0 / percentile(st.cycle_s, kQuietPercentile);
    long long cycle_tasks = 0;
    for (int i = 0; i < w->units_per_cycle(); ++i) cycle_tasks += w->unit_tasks(i);
    metrics = {
        {"units_per_s", cycles_per_s * w->units_per_cycle(), "1/s"},
        {"unit_p50_ms", percentile(unit_s, 50.0) * 1e3, "ms"},
        {"unit_p99_ms", percentile(unit_s, 99.0) * 1e3, "ms"},
        {"sim_tasks_per_s", cycles_per_s * static_cast<double>(cycle_tasks), "1/s"},
        {"setup_s", percentile(setup_s, 50.0), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
  }

  print_record(stamp, st, w->units_per_cycle(), static_cast<double>(failed) / static_cast<double>(attempted),
               digest, digest_check, static_cast<int>(verify_failures.size()));
  cnpu::JsonWriter out;
  out.begin_object();
  out.key("correct").value(failed == 0);
  out.key("attempted").value(static_cast<int>(attempted));
  out.key("failed").value(static_cast<int>(failed));
  out.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    out.key(m.name).begin_object();
    out.key("value").value_precise(m.value);
    out.key("unit").value(m.unit);
    out.end_object();
  }
  out.end_object().end_object();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  if (args.workload.empty()) perfbench::usage("--workload is required");
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cnpu_perfbench: %s\n", e.what());
    return 1;
  }
}
