#include "workload.h"

#include <time.h>

#include <chrono>
#include <cmath>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
  return lo + (hi - lo) * u;
}

int Rng::below(int n) {
  return static_cast<int>(next() % static_cast<std::uint64_t>(n));
}

std::string check_conservation(const cnpu::SimResult& r) {
  for (const cnpu::TenantResult& t : r.tenants) {
    if (t.frames != t.frames_completed + t.dropped_frames + t.shed_frames) {
      return "conservation: tenant " + t.name + " offered " +
             std::to_string(t.frames) + " frames but completed " +
             std::to_string(t.frames_completed) + " + dropped " +
             std::to_string(t.dropped_frames) + " + shed " +
             std::to_string(t.shed_frames);
    }
  }
  return "";
}

std::string check_latency_bound(const cnpu::SimResult& r,
                                const std::vector<double>& bound_s) {
  constexpr double kRelEps = 1e-9;  // rounding-order slack, as in bench_bounds
  if (bound_s.size() != r.tenants.size()) return "bound: stream count mismatch";
  for (std::size_t k = 0; k < bound_s.size(); ++k) {
    for (const double lat : r.tenants[k].frame_latency_s) {
      if (!std::isnan(lat) && bound_s[k] > lat * (1.0 + kRelEps)) {
        return "bound: tenant " + r.tenants[k].name + " frame latency " +
               std::to_string(lat) + " s below the static bound " +
               std::to_string(bound_s[k]) + " s";
      }
    }
  }
  return "";
}

double host_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

}  // namespace perfbench
