#!/usr/bin/env python3
"""Check the shipped perfbench run digests.

    python3 tools/check_perfbench_digests.py [LO-HI]

Run from the repository root once perfbench/run.py has built the
benchmark binary (any --workload run builds it). For every workload in
perfbench/digests.json and every seed in LO-HI (default 0-20, the shipped
range) this runs one cycle with --print-digest and compares the digest
with the shipped one. A digest covers every simulated double of the
cycle, so a match means the simulator's outputs did not move. Exits 1
when any digest differs or any run fails.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    lo, _, hi = (sys.argv[1] if len(sys.argv) > 1 else "0-20").partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    # Same build location as perfbench/run.py.
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = os.path.join(build_root, "perfbench", "cnpu_perfbench")
    if not os.path.isfile(binary):
        sys.exit("check_perfbench_digests: %s is not built; run perfbench/run.py first" % binary)
    with open(os.path.join(ROOT, "perfbench", "digests.json")) as f:
        shipped = json.load(f)
    checked = 0
    bad = 0
    for workload in sorted(shipped):
        for seed in seeds:
            want = shipped[workload].get(str(seed))
            r = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                                "--seconds", "0", "--trace", "0", "--print-digest"],
                               capture_output=True, text=True)
            lines = r.stdout.strip().splitlines()
            got = json.loads(lines[-1]).get("digest") if lines else None
            checked += 1
            if r.returncode != 0 or got is None or got != want:
                bad += 1
                print("%s seed %d: digest %s, shipped %s (exit %d)"
                      % (workload, seed, got, want, r.returncode))
    print("%d of %d digests match" % (checked - bad, checked))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
