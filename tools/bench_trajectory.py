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
the change itself). Each side is one code version, so a file is refused
whole, and nothing is written, when its lines do not alternate record and
result, when its runs carry more than one source_digest, or when its
digest is already filed under the other side of the same --pr.

BENCH_perfbench.json holds {"entries": [...]}, one entry per line in the
order appended: {"pr", "side", "record", "result"}.

    python3 tools/bench_trajectory.py --summary <id>

prints the parent/change comparison of one --pr instead: one row per
workload and end-to-end metric of BENCHMARK.json, with each side's median,
change/parent, the parent's interquartile range over its median, and the
pairs the change won (a pair is a parent and a change run of one seed;
"better" is the metric's direction in BENCHMARK.json). Traced runs
(traced_cycles > 0) are left out. It exits 2 when either side has no
untraced runs.

    python3 tools/bench_trajectory.py --layers <id>

prints where one --pr's time went instead, from its traced runs only: per
workload, each side's median over its traced runs of every per-layer
metric of BENCHMARK.json (the spans' self_share, us_p50 and
calls_per_unit, and the counters) that is nonzero on either side, and
change/parent. It exits 2 when either side has no traced run.
"""
import argparse
import json
import os
import statistics
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


def check_one_version(path, pairs, entries, pr, side):
    """Refuses runs of several code versions, or of the other side's."""
    digests = sorted({str(record.get("source_digest")) for record, _ in pairs})
    if len(digests) > 1:
        fail("%s holds runs of %d code versions (source digests %s); a side is one version"
             % (path, len(digests), ", ".join(digests)))
    for e in entries:
        filed = str(e.get("record", {}).get("source_digest"))
        if e.get("pr") == pr and e.get("side") != side and filed == digests[0]:
            fail("source digest %s is already filed under --side %s of --pr %s"
                 % (digests[0], e.get("side"), pr))


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


def benchmark_metrics(kind):
    """(name, better) of each "end_to_end" or "per_layer" metric, in
    BENCHMARK.json order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["better"]) for m in json.load(f)[kind]]


def side_runs(entries, pr, traced):
    """Each side's traced or untraced runs of --pr, and their workloads in
    the order first seen; exits 2 when a side has none."""
    runs = {side: [e for e in entries
                   if e.get("pr") == pr and e.get("side") == side
                   and (e.get("record", {}).get("traced_cycles", 0) > 0) == traced]
            for side in SIDES}
    for side in SIDES:
        if not runs[side]:
            fail("--pr %s has no %s %s runs" % (pr, "traced" if traced else "untraced", side))
    workloads = []
    for e in runs["parent"] + runs["change"]:
        if e["record"].get("workload") not in workloads:
            workloads.append(e["record"].get("workload"))
    return runs, workloads


def summarize(entries, pr):
    runs, workloads = side_runs(entries, pr, traced=False)
    print("--pr %s: %d parent and %d change runs, traced runs left out"
          % (pr, len(runs["parent"]), len(runs["change"])))
    print("| workload | metric | parent | change | change/parent "
          "| parent IQR/median | pairs won |")
    print("|---|---|---|---|---|---|---|")
    for workload in workloads:
        for metric, better in benchmark_metrics("end_to_end"):
            by_seed = {}  # side -> {seed: value}, the first run of a seed
            values = {}
            for side in SIDES:
                by_seed[side] = {}
                values[side] = []
                for e in runs[side]:
                    m = e.get("result", {}).get("metrics", {}).get(metric)
                    if e["record"].get("workload") != workload or m is None:
                        continue
                    values[side].append(m["value"])
                    by_seed[side].setdefault(e["record"].get("seed"), m["value"])
            if not values["parent"] or not values["change"]:
                continue
            parent = statistics.median(values["parent"])
            change = statistics.median(values["change"])
            q1, q3 = values["parent"][0], values["parent"][0]
            if len(values["parent"]) > 1:
                q1, _, q3 = statistics.quantiles(values["parent"], n=4,
                                                 method="inclusive")
            seeds = [s for s in by_seed["parent"] if s in by_seed["change"]]
            sign = 1 if better == "higher" else -1
            won = sum(1 for s in seeds
                      if sign * (by_seed["change"][s] - by_seed["parent"][s]) > 0)
            ratio = "%.3f" % (change / parent) if parent else "-"
            iqr = "%.1f%%" % (100.0 * (q3 - q1) / parent) if parent else "-"
            print("| %s | %s | %.4g | %.4g | %s | %s | %d/%d |"
                  % (workload, metric, parent, change, ratio, iqr, won, len(seeds)))


def layers(entries, pr):
    runs, workloads = side_runs(entries, pr, traced=True)
    print("--pr %s: %d parent and %d change traced runs, medians per side"
          % (pr, len(runs["parent"]), len(runs["change"])))
    print("| workload | metric | parent | change | change/parent |")
    print("|---|---|---|---|---|")
    for workload in workloads:
        for metric, _ in benchmark_metrics("per_layer"):
            median = {}
            for side in SIDES:
                values = [e["result"]["metrics"][metric]["value"] for e in runs[side]
                          if e["record"].get("workload") == workload
                          and metric in e.get("result", {}).get("metrics", {})]
                median[side] = statistics.median(values) if values else None
            if not any(median.values()):
                continue  # zero or absent on both sides
            parent, change = median["parent"], median["change"]
            ratio = "%.3f" % (change / parent) if parent and change is not None else "-"
            print("| %s | %s | %s | %s | %s |"
                  % (workload, metric, "-" if parent is None else "%.4g" % parent,
                     "-" if change is None else "%.4g" % change, ratio))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("records", nargs="?", help="a perfbench_records.jsonl")
    p.add_argument("--pr", help="the change the runs measure")
    p.add_argument("--side", choices=SIDES)
    p.add_argument("--summary", metavar="PR",
                   help="print the parent/change comparison of one --pr")
    p.add_argument("--layers", metavar="PR",
                   help="print one --pr's per-layer metrics from its traced runs")
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_perfbench.json"),
                   help="the trajectory: appended to, or read by --summary and --layers")
    args = p.parse_args()
    for mode, report in (("summary", summarize), ("layers", layers)):
        pr = getattr(args, mode)
        if pr is None:
            continue
        if args.records or args.pr or args.side or (args.summary and args.layers):
            p.error("--%s takes no records file, --pr, --side or other mode" % mode)
        report(load_trajectory(args.out), pr)
        return
    if args.records is None or args.pr is None or args.side is None:
        p.error("a records file, --pr and --side are required")
    pairs = read_pairs(args.records)
    if not pairs:
        fail("%s holds no runs" % args.records)
    entries = load_trajectory(args.out)
    check_one_version(args.records, pairs, entries, args.pr, args.side)
    for record, result in pairs:
        entries.append({"pr": args.pr, "side": args.side, "record": record, "result": result})
    write_trajectory(args.out, entries)
    print("bench_trajectory: appended %d run(s) to %s" % (len(pairs), args.out))


if __name__ == "__main__":
    main()
