"""Run one workload on several seeds and report each end-to-end metric's spread.

    python3 bench/spread.py --workload curve-128 --seeds 1-10 [--save runs.json]

Each seed runs ``bench/run.py`` in a fresh process, as a caller of the
benchmark would. The spread of a metric is the distance between the first
and third quartiles of its values (``statistics.quantiles(values, n=4)``) as
a share of their median; it is compared with the metric's bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--save", help="write every run's result object here as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    runs = []
    for seed in _seeds(args.seeds):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {values}", flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(runs, indent=1))

    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        flag = "" if spread <= metric["bound"] / 3 else "  > bound/3" if spread <= metric["bound"] else "  > BOUND"
        print(f"{metric['name']:<20} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {metric['bound']:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
