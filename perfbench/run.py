#!/usr/bin/env python3
"""Build and run the cnpu benchmark.

    python3 perfbench/run.py --workload dse_design --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/ (or
$CARGO_TARGET_DIR); later calls rebuild incrementally. The last line of
standard output is the result object; the line before it is the run's
record (git sha, source digest, machine fingerprint, workers, seed and
sample counts), which is also appended to .bench_build/perfbench_records.jsonl.
With --trace 1 the Chrome trace lands in .bench_build/traces/.

Other modes:
    --self-test               build and run the helper tests
    --refresh-digests 0-20    recompute perfbench/digests.json for those seeds
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("dse_design", "sim_sweep", "capacity_search")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build_root():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from a full checkout of the repository")
    out = os.path.join(build_root(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", target])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def git_sha():
    """HEAD's commit, read from .git/ directly (no git process, nothing
    outside the checkout); "none" where the checkout has no .git/."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "none"


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def run_benchmark(args):
    binary = build("cnpu_perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--stamp", "git_sha=" + git_sha(),
           "--stamp", "source_digest=" + source_digest()]
    digests = os.path.join(BENCH_DIR, "digests.json")
    if os.path.isfile(digests):
        cmd += ["--digests", digests]
    if args.trace:
        traces = os.path.join(build_root(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s_seed%d.json" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or len(lines) < 2 or '"correct"' not in lines[-1]:
        fail("benchmark failed (exit %d)" % r.returncode)
    with open(os.path.join(build_root(), "perfbench_records.jsonl"), "a") as f:
        f.write(lines[-2] + "\n" + lines[-1] + "\n")
    print("\n".join(lines))


def refresh_digests(spec):
    lo, _, hi = spec.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    binary = build("cnpu_perfbench")
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = {}
        for seed in seeds:
            r = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                                "--seconds", "0", "--trace", "0", "--print-digest"],
                               capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            if r.returncode != 0:
                fail("%s seed %d failed:\n%s" % (workload, seed, r.stderr))
            digests[workload][str(seed)] = json.loads(r.stdout.strip().splitlines()[-1])["digest"]
            print(workload, seed, digests[workload][str(seed)], file=sys.stderr)
    with open(os.path.join(BENCH_DIR, "digests.json"), "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--refresh-digests", metavar="LO-HI")
    args = p.parse_args()
    if args.self_test:
        sys.exit(subprocess.run([build("perfbench_selftest")]).returncode)
    if args.refresh_digests:
        refresh_digests(args.refresh_digests)
        return
    if not args.workload:
        fail("--workload is required")
    run_benchmark(args)


if __name__ == "__main__":
    main()
