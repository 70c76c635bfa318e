// Shared helpers for the bench binaries that regenerate the paper's tables
// and figures. Each binary prints its table(s) on stdout and exits non-zero
// when one of its checks fails.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "exp/sweep_runner.h"

namespace cnpu::bench {

inline void print_header(const std::string& what, const std::string& paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", what.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

// Where a bench drops its CSV/JSON artifacts. CNPU_ARTIFACT_DIR (set by CI
// to a directory under build/) prefixes the file name; unset, artifacts land
// in the bench's working directory. Either way the root .gitignore guards
// bench_*.{csv,json}, so a bench run from the repo checkout never dirties
// `git status`.
inline std::string artifact_path(const std::string& file_name) {
  const char* dir = std::getenv("CNPU_ARTIFACT_DIR");
  if (dir == nullptr || dir[0] == '\0') return file_name;
  std::string out(dir);
  if (out.back() != '/') out += '/';
  return out + file_name;
}

// Writes `sweep` to <stem>.csv and <stem>.json under artifact_path, prints
// which files were written, and exits 1 when either write failed, so a
// lost artifact fails the bench.
inline void write_sweep_artifacts(const SweepResult& sweep,
                                  const std::string& stem) {
  const bool csv_ok = sweep.write_csv(artifact_path(stem + ".csv"));
  const bool json_ok = sweep.write_json(artifact_path(stem + ".json"));
  std::printf("sweep artifacts: %s.csv%s, %s.json%s\n\n", stem.c_str(),
              csv_ok ? "" : " (WRITE FAILED)", stem.c_str(),
              json_ok ? "" : " (WRITE FAILED)");
  if (!csv_ok || !json_ok) std::exit(1);
}

// Benches want fail-fast sweeps: a failed point means the reproduction is
// wrong, so surface the captured per-point error and abort instead of
// rendering a table with holes. Pruned points (a static-bound predicate
// skipped them on purpose) are not failures.
inline void require_all_ok(const SweepResult& sweep) {
  if (sweep.num_failed() == 0) return;
  for (const SweepPointResult& p : sweep.points) {
    if (!p.ok && !p.pruned) {
      std::fprintf(stderr, "sweep '%s' point %d (%s) failed: %s\n",
                   sweep.name.c_str(), p.point.index, p.point.label().c_str(),
                   p.error.c_str());
    }
  }
  std::exit(1);
}

// Reads a bench's command line and returns whether `--smoke` was given.
// No argument runs the full reproduction; `--smoke` (the reduced CTest run)
// is accepted only by a bench that has one (`smoke_run`). Any other
// argument exits 2.
inline bool read_args(int argc, char** argv, bool smoke_run = false) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (smoke_run && std::string_view(argv[i]) == "--smoke") {
      smoke = true;
      continue;
    }
    std::fprintf(stderr, "%s: unknown argument '%s'\n", argv[0], argv[i]);
    if (smoke_run) std::fprintf(stderr, "usage: %s [--smoke]\n", argv[0]);
    std::exit(2);
  }
  return smoke;
}

}  // namespace cnpu::bench
