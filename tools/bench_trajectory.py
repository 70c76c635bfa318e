#!/usr/bin/env python3
"""Append perfbench runs to the committed performance trajectory.

    python3 tools/bench_trajectory.py --pr <id> --side change \\
        .bench_build/perfbench_records.jsonl

perfbench/run.py appends two lines per run to its perfbench_records.jsonl:
the run's record ({"record": {...}}: git sha, source digest, machine,
workload, seed, samples) and then its result ({"correct": ..., "metrics":
{...}}). This script reads such a file and appends one entry per
record/result pair to BENCH_perfbench.json at the repository root (or
--out), tagged with the change it measures (--pr) and the side of the
comparison (--side parent for the commit a change starts from, change for
the change itself). A file whose lines do not alternate record and result
is refused whole, and nothing is written.

BENCH_perfbench.json holds {"entries": [...]}, one entry per line in the
order appended: {"pr", "side", "record", "result"}.
"""
import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def fail(msg):
    print("bench_trajectory: " + msg, file=sys.stderr)
    sys.exit(2)


def read_pairs(path):
    """The (record, result) pairs of a perfbench_records.jsonl, in order."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    pairs = []
    for i, line in enumerate(lines):
        try:
            obj = json.loads(line)
        except ValueError as e:
            fail("%s:%d is not JSON (%s)" % (path, i + 1, e))
        is_record = isinstance(obj, dict) and set(obj) == {"record"}
        is_result = isinstance(obj, dict) and "metrics" in obj and "record" not in obj
        if i % 2 == 0 and not is_record:
            fail("%s:%d should be a run record, the first line of a pair" % (path, i + 1))
        if i % 2 == 1 and not is_result:
            fail("%s:%d should be the result of the record before it" % (path, i + 1))
        if i % 2 == 0:
            pairs.append([obj["record"], None])
        else:
            pairs[-1][1] = obj
    if pairs and pairs[-1][1] is None:
        fail("%s ends with a record that has no result" % path)
    return pairs


def load_trajectory(path):
    if not os.path.exists(path):
        return []
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        fail("%s has no \"entries\" list" % path)
    return data["entries"]


def write_trajectory(path, entries):
    # One entry per line, so an append shows as added lines in a diff.
    body = ",\n".join("  " + json.dumps(e, sort_keys=True) for e in entries)
    with open(path, "w") as f:
        f.write('{"entries": [\n' + body + ("\n" if body else "") + "]}\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("records", help="a perfbench_records.jsonl")
    p.add_argument("--pr", required=True, help="the change the runs measure")
    p.add_argument("--side", required=True, choices=SIDES)
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_perfbench.json"))
    args = p.parse_args()
    pairs = read_pairs(args.records)
    if not pairs:
        fail("%s holds no runs" % args.records)
    entries = load_trajectory(args.out)
    for record, result in pairs:
        entries.append({"pr": args.pr, "side": args.side, "record": record, "result": result})
    write_trajectory(args.out, entries)
    print("bench_trajectory: appended %d run(s) to %s" % (len(pairs), args.out))


if __name__ == "__main__":
    main()
