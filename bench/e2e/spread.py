#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs `bench/e2e/run.sh --workload W --seed S ...` for seeds seed0..seed0+N-1
(or N times seed0 with --fixed-seed) with the workloads interleaved
(round-robin), then prints, per workload and metric, the median, the
interquartile range and (max - min), each as a share of the median, and
every run's value. The gated metrics are the ones in the last-line JSON;
the diagnostics (client.*, fail_ratio) come from the printed lines.
These spreads set the regression bounds in BENCHMARK.json (see
README.md).

    python3 bench/e2e/spread.py --runs 10 [--seed0 1] [--fixed-seed]
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["put_rf0", "put_rf2", "put_wal_fsync", "mixed_hot"]
RUN = Path(__file__).resolve().parent / "run.sh"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--fixed-seed", action="store_true",
                    help="every run uses seed0 (run-to-run noise only)")
    args = ap.parse_args()

    values = {w: {} for w in WORKLOADS}
    for i in range(args.runs):
        for w in WORKLOADS:
            seed = args.seed0 if args.fixed_seed else args.seed0 + i
            cmd = ["bash", str(RUN), "--workload", w, "--seed", str(seed),
                   "--seconds", "17", "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                sys.exit(f"{w} seed {seed} failed:\n{out.stdout}"
                         f"{out.stderr[-2000:]}")
            gated = result["metrics"]
            for name, m in gated.items():
                values[w].setdefault(name, []).append(m["value"])
            for line in lines[:-1]:
                f = line.split()
                if len(f) == 4 and f[0] == w and f[1] not in gated:
                    values[w].setdefault(f[1], []).append(float(f[2]))
            print(f"# run {i + 1}/{args.runs} {w} done", file=sys.stderr)

    print(f"{'workload':14} {'metric':28} {'median':>12} {'iqr/med':>8} "
          f"{'range/med':>9}  values")
    for w in WORKLOADS:
        for name, vs in values[w].items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med] * 3
            iqr = (q[2] - q[0]) / med if med else 0.0
            rng = (max(vs) - min(vs)) / med if med else 0.0
            runs = " ".join(f"{v:.4g}" for v in vs)
            print(f"{w:14} {name:28} {med:12.4f} {iqr:8.3f} {rng:9.3f}  {runs}")


if __name__ == "__main__":
    main()
