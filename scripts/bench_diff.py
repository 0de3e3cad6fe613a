#!/usr/bin/env python3
"""Compare two bench JSON artifacts and gate on regressions.

Usage:
  bench_diff.py --base BENCH_net.json --head fresh.json
                [--tolerance 0.15] [--strict]
                [--record trajectory.jsonl --label <sha-or-tag>]
  bench_diff.py --base b1.json --base b2.json --base b3.json
                --head h1.json --head h2.json --head h3.json [...]
  bench_diff.py --selftest

--base and --head may each be given several times (repeated runs of
one build, ideally taken alternately with the other side's runs). Each
side then stands for the per-metric median over its files: one noisy
run on a shared host cannot fail the gate on its own, while a change
that moves every run still does.

Flattens both artifacts to path -> number (list entries are keyed by
their distinguishing field: frame_bytes, round, scenario — index
otherwise) and compares every metric present in BOTH files; keys the
older baseline schema lacks are reported as "new" and never gate, so a
freshly-grown bench section does not need a baseline bump to land.

google-benchmark JSON (micro_core --benchmark_out=... or
--benchmark_format=json) is recognised by its "context" and
"benchmarks" keys. Its rows are keyed by `name`; a row's cpu_time and
real_time become <name>.cpu_time_ns and <name>.real_time_ns
(converted from the row's time_unit), both lower-is-better and gated
under --strict. With --benchmark_repetitions only the median rows
(BM_X_median) count; mean, stddev and cv rows are skipped.

Two gating tiers, because absolute frames/sec only means something when
base and head ran on the same machine:

  default  — gate only scale-free metrics (ratios, speedups, coalesce
             factors): machine-independent, so a committed baseline
             from any host is a valid reference;
  --strict — additionally gate absolute throughput (…_per_sec) and
             latency (…_us) metrics. For CI jobs that build base and
             head back-to-back on one runner.

A gated metric regressing by more than --tolerance (default 0.15 =
15%) fails the run. Direction is inferred from the metric name:
per_sec/ratio/speedup/ops higher-is-better; us/usec/ns/latency/drops/
aborts/lost lower-is-better; anything else is informational only.

--record appends one JSON line (label, UTC time, flattened head
metrics) to a trajectory file, so the perf history of a branch is a
greppable log rather than a pile of artifacts.
"""

import argparse
import datetime
import json
import pathlib
import re
import sys

# A list entry is keyed by the first of these fields it carries.
LIST_KEYS = ("frame_bytes", "round", "scenario", "bench", "name")

HIGHER_BETTER = re.compile(r"(per_sec|ratio|speedup|ops_per|events_per)")
LOWER_BETTER = re.compile(
    r"(_us$|_usec$|_ns$|latency|_drops$|_aborts$|_lost$|_failures$)"
)
SCALE_FREE = re.compile(r"(ratio|speedup|coalesce)")


def flatten(node, prefix="", out=None):
    if out is None:
        out = {}
    if isinstance(node, dict):
        for k, v in sorted(node.items()):
            flatten(v, f"{prefix}.{k}" if prefix else k, out)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            key = str(i)
            if isinstance(v, dict):
                for lk in LIST_KEYS:
                    if lk in v:
                        key = f"{lk}={v[lk]}"
                        break
            flatten(v, f"{prefix}[{key}]", out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix] = float(node)
    return out


# google-benchmark time units, in nanoseconds.
GBENCH_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def is_gbench(raw):
    return (isinstance(raw, dict) and "context" in raw
            and isinstance(raw.get("benchmarks"), list))


def flatten_gbench(raw):
    """google-benchmark JSON -> {"<name>.cpu_time_ns": t, ...}."""
    out = {}
    for row in raw["benchmarks"]:
        if row.get("run_type") == "aggregate" and \
                row.get("aggregate_name") != "median":
            continue  # mean/stddev/cv: the median stands for the runs
        scale = GBENCH_UNIT_NS[row.get("time_unit", "ns")]
        for field in ("cpu_time", "real_time"):
            out[f"{row['name']}.{field}_ns"] = float(row[field]) * scale
    return out


def flatten_any(raw):
    return flatten_gbench(raw) if is_gbench(raw) else flatten(raw)


def median(values):
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


def combine(runs):
    """Flattened runs of one build -> {metric: median over the runs that
    report it}."""
    paths = set().union(*runs) if runs else set()
    return {p: median([r[p] for r in runs if p in r]) for p in paths}


def direction(path):
    leaf = path.rsplit(".", 1)[-1]
    # A spread is lower-is-better whatever it is the spread of
    # ("ratio_iqr" would otherwise match "ratio").
    if leaf.endswith("_iqr"):
        return -1
    if HIGHER_BETTER.search(leaf):
        return +1
    if LOWER_BETTER.search(leaf):
        return -1
    return 0


def gated(path, strict):
    d = direction(path)
    if d == 0:
        return False
    if SCALE_FREE.search(path):
        return True
    return strict


def compare(base, head, tolerance, strict):
    """Returns (failures, report_lines)."""
    failures = []
    lines = []
    for path in sorted(set(base) | set(head)):
        if path not in head:
            lines.append(f"  gone   {path} (base={base[path]:g})")
            continue
        if path not in base:
            lines.append(f"  new    {path} = {head[path]:g}")
            continue
        b, h = base[path], head[path]
        d = direction(path)
        if b == 0:
            delta = 0.0 if h == 0 else float("inf")
        else:
            delta = (h - b) / abs(b)
        marker = " "
        is_gated = gated(path, strict)
        regressed = (d > 0 and delta < -tolerance) or (
            d < 0 and delta > tolerance
        )
        if is_gated and regressed:
            failures.append(
                f"{path}: {b:g} -> {h:g} ({delta:+.1%}, tolerance "
                f"±{tolerance:.0%})"
            )
            marker = "!"
        elif regressed:
            marker = "~"  # informational regression, not gated
        lines.append(
            f"  {marker} {'gate' if is_gated else 'info':4} {path}: "
            f"{b:g} -> {h:g} ({delta:+.1%})"
        )
    return failures, lines


def selftest():
    """The gate must fire on a seeded regression and stay quiet inside
    the tolerance, on both input formats."""

    def gbench(rows):
        return {"context": {"num_cpus": 4}, "benchmarks": rows}

    def row(name, cpu, unit="ns", aggregate=None):
        r = {"name": name, "cpu_time": cpu, "real_time": cpu,
             "time_unit": unit, "iterations": 1000,
             "run_type": "aggregate" if aggregate else "iteration"}
        if aggregate:
            r["aggregate_name"] = aggregate
        return r

    base = flatten_any(gbench([
        row("BM_A_mean", 100, aggregate="mean"),
        row("BM_A_median", 100, aggregate="median"),
        row("BM_A_stddev", 1, aggregate="stddev"),
        row("BM_B/8_median", 2.0, unit="us", aggregate="median"),
    ]))
    assert set(base) == {"BM_A_median.cpu_time_ns",
                         "BM_A_median.real_time_ns",
                         "BM_B/8_median.cpu_time_ns",
                         "BM_B/8_median.real_time_ns"}, base
    assert base["BM_B/8_median.cpu_time_ns"] == 2000.0

    # 30% slower median (and a stddev that tripled, which never gates).
    slow = flatten_any(gbench([
        row("BM_A_median", 130, aggregate="median"),
        row("BM_A_stddev", 3, aggregate="stddev"),
        row("BM_B/8_median", 2000, aggregate="median"),
    ]))
    failures, _ = compare(base, slow, 0.15, strict=True)
    assert len(failures) == 2 and all("BM_A_median" in f for f in failures), \
        failures
    failures, _ = compare(base, slow, 0.15, strict=False)
    assert failures == [], "absolute times gate only under --strict"

    near = flatten_any(gbench([
        row("BM_A_median", 110, aggregate="median"),
        row("BM_B/8_median", 1.9, unit="us", aggregate="median"),
    ]))
    failures, _ = compare(base, near, 0.15, strict=True)
    assert failures == [], failures

    # Plain iteration rows (no repetitions) are keyed by their name.
    plain = flatten_any(gbench([row("BM_C", 5.0)]))
    assert plain == {"BM_C.cpu_time_ns": 5.0, "BM_C.real_time_ns": 5.0}

    # Repeated runs compare per-row medians: one slow head run (or one
    # fast base run) among three stays quiet, a shift in every run
    # still fires, and a row missing from one run keeps the others.
    base3 = combine([base, base, flatten_any(gbench([
        row("BM_A_median", 70, aggregate="median"),
        row("BM_B/8_median", 2.0, unit="us", aggregate="median"),
    ]))])
    assert base3["BM_A_median.cpu_time_ns"] == 100, base3
    outlier = combine([near, slow, near])
    assert outlier["BM_A_median.cpu_time_ns"] == 110, outlier
    failures, _ = compare(base3, outlier, 0.15, strict=True)
    assert failures == [], failures
    shifted = combine([slow, slow, near])
    failures, _ = compare(base3, shifted, 0.15, strict=True)
    assert len(failures) == 2 and all("BM_A_median" in f for f in failures), \
        failures
    partial = combine([plain, flatten_any(gbench([row("BM_C", 7.0)])),
                       flatten_any(gbench([row("BM_D", 1.0)]))])
    assert partial == {"BM_C.cpu_time_ns": 6.0, "BM_C.real_time_ns": 6.0,
                       "BM_D.cpu_time_ns": 1.0,
                       "BM_D.real_time_ns": 1.0}, partial

    # The project's own bench JSON keeps its scale-free gate.
    own_base = flatten_any({"bench": "x", "coalesce_ratio": 4.0,
                            "rtt_us": 10.0})
    own_head = flatten_any({"bench": "x", "coalesce_ratio": 2.0,
                            "rtt_us": 10.0})
    failures, _ = compare(own_base, own_head, 0.15, strict=False)
    assert len(failures) == 1 and "coalesce_ratio" in failures[0], failures

    # A ratio is higher-is-better, the spread of one lower-is-better:
    # rounds that agree more closely than the base's pass, a spread
    # that grew fails, and a ratio that fell fails.
    assert direction("metrics_overhead.ratio") == +1
    assert direction("metrics_overhead.ratio_iqr") == -1
    spread_base = flatten_any({"metrics_overhead": {"ratio": 1.0,
                                                    "ratio_iqr": 0.005}})
    tighter = flatten_any({"metrics_overhead": {"ratio": 1.0,
                                                "ratio_iqr": 0.0031}})
    failures, _ = compare(spread_base, tighter, 0.15, strict=False)
    assert failures == [], failures
    wider = flatten_any({"metrics_overhead": {"ratio": 1.0,
                                              "ratio_iqr": 0.008}})
    failures, _ = compare(spread_base, wider, 0.15, strict=False)
    assert len(failures) == 1 and "ratio_iqr" in failures[0], failures
    lower = flatten_any({"metrics_overhead": {"ratio": 0.8,
                                              "ratio_iqr": 0.005}})
    failures, _ = compare(spread_base, lower, 0.15, strict=False)
    assert len(failures) == 1 and "ratio_iqr" not in failures[0], failures
    print("bench_diff: selftest OK")
    return 0


def record(path, label, head_raw, head_flat):
    entry = {
        "label": label,
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "bench": ("google-benchmark" if is_gbench(head_raw)
                  else head_raw.get("bench", "?")),
        "metrics": head_flat,
    }
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


def main():
    if "--selftest" in sys.argv:
        return selftest()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base", required=True, action="append",
                    help="base run JSON (repeat for several runs)")
    ap.add_argument("--head", required=True, action="append",
                    help="head run JSON (repeat for several runs)")
    ap.add_argument("--tolerance", type=float, default=0.15)
    ap.add_argument("--strict", action="store_true",
                    help="also gate absolute throughput/latency metrics")
    ap.add_argument("--record", help="append head metrics to this JSONL")
    ap.add_argument("--label", default="local",
                    help="label for --record entries (commit sha, tag)")
    args = ap.parse_args()

    def load(paths):
        raws = [json.loads(pathlib.Path(p).read_text()) for p in paths]
        return raws, combine([flatten_any(r) for r in raws])

    _, base = load(args.base)
    head_raws, head = load(args.head)

    failures, lines = compare(base, head, args.tolerance, args.strict)
    print(f"bench_diff: {', '.join(args.base)} -> {', '.join(args.head)} "
          f"({'strict' if args.strict else 'scale-free'} gate, "
          f"tolerance ±{args.tolerance:.0%}"
          f"{', medians over repeated runs' if len(args.base) > 1 or len(args.head) > 1 else ''})")
    for line in lines:
        print(line)

    if args.record:
        record(args.record, args.label, head_raws[0], head)
        print(f"bench_diff: recorded '{args.label}' -> {args.record}")

    if failures:
        print(f"bench_diff: {len(failures)} regression(s):",
              file=sys.stderr)
        for f in failures:
            print(f"  FAIL {f}", file=sys.stderr)
        return 1
    print("bench_diff: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
