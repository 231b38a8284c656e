"""Run one workload of the qbench benchmark, check every report and print its metrics.

    python3 bench/run.py --workload estimate-u16-256 --seed 1 --seconds 40 --trace 0

Run from the repository root; it benchmarks the sources under ``src/``.
Without ``--workload`` every workload runs in turn. Each run:

1. builds the workload's phantoms from ``--seed`` and writes them as QVOL1
   files; the whole set-up runs SETUP_REPEATS times, each in a fresh
   process, and ``setup_s`` is the median of their times;
2. starts the process that runs the ops: one untimed warm-up pass over the
   inputs, then a closed loop with one client, in whole passes over the
   inputs, for ``--seconds`` and at least the workload's ``tail_passes``;
   a fixed reference computation is timed right before every op;
3. checks every report and prints the metrics, the last line as JSON.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs untraced
and traced passes in turn and prints the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import metrics  # noqa: E402
from bench.checks import KNOWN_DEFECT, known_defect  # noqa: E402
from bench.env import ROOT, SRC  # noqa: E402
from bench.spans import load_spans  # noqa: E402
from bench.workloads import HELD_OUT_SEED, WORKLOADS  # noqa: E402

# the whole set-up runs this many times, each in a fresh process; setup_s is
# the median of their wall times
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# a run must end within 180 s; children get what is left of this budget
RUN_BUDGET_S = 170.0


def _say(text: str) -> None:
    print(f"bench: {text}", flush=True)


# Set in the set-up and op processes, and recorded next to each result.
PINNED_ENV = {
    # OpenBLAS otherwise starts a thread per core that spins while the curve
    # pool runs: up to four busy threads on two cores. With one CPU taken by
    # a busy loop, curve-128 then lost 14% of its ops_per_s; with this, 0%.
    "OPENBLAS_NUM_THREADS": "1",
    # glibc's mmap threshold otherwise moves with every free and sits near
    # the size of a 256x256x60 float64 array, so the same op on the same
    # input took 4k to 38k page faults (8 to 108 ms of system time), set by
    # whichever ops ran before it. Freed memory is kept for reuse instead:
    # after the warm-up pass an op takes almost no page faults.
    "MALLOC_MMAP_THRESHOLD_": str(1 << 30),
    "MALLOC_TRIM_THRESHOLD_": str(1 << 32),
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT), env.get("PYTHONPATH")) if p)
    # the CLI's own default, pinned so that it is recorded and cannot drift
    env["QBENCH_THREADS"] = str(os.cpu_count() or 1)
    env.update(PINNED_ENV)
    return env


def _remaining(started: float) -> float:
    return max(1.0, RUN_BUDGET_S - (time.perf_counter() - started))


def make_plan(workload, seed: int, seconds: float, workdir: Path) -> dict:
    (workdir / "out").mkdir(parents=True)
    items = []
    for inp in workload.inputs(seed):
        path = workdir / f"{inp.name}.qvol"
        output = workdir / "out" / f"{inp.name}.json"
        items.append(
            {
                "name": inp.name,
                "spec": inp.spec,
                "layout": inp.layout,
                "dtype": inp.dtype,
                "path": str(path),
                "output": str(output),
                "argv": workload.argv(str(path), str(output)),
                "expect": {
                    "sigma_expected": inp.sigma_expected,
                    "has_object": inp.has_object,
                    "curve": workload.subcommand[0] == "curve",
                },
            }
        )
    return {"workload": workload.name, "seed": seed, "seconds": seconds, "min_passes": workload.tail_passes, "inputs": items}


def run_setup(plan_path: Path, workdir: Path, started: float) -> tuple[list[float], list[float]]:
    """Set every input up SETUP_REPEATS times, each time in a fresh process.

    Returns each repeat's wall time (process start to exit) and every
    phantom's generate time. Each repeat writes the same files.
    """
    walls, generate_ms = [], []
    timings_path = workdir / "setup_timings.json"
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "bench.setup_inputs", str(plan_path), str(timings_path)],
            cwd=ROOT,
            env=_child_env(),
            check=True,
            timeout=_remaining(started),
        )
        walls.append(time.perf_counter() - t0)
        generate_ms += [t["generate_ms"] for t in json.loads(timings_path.read_text()).values()]
    return walls, generate_ms


def import_ms(started: float) -> float:
    """Median self time of qbench's own modules in ``python -X importtime``, numpy excluded."""
    env = _child_env()
    env["PYTHONPATH"] = str(SRC)
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import qbench.cli"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=_remaining(started),
        )
        total_us = 0
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[0].strip().isdigit():
                module = fields[2].strip()
                if module == "qbench" or module.startswith("qbench."):
                    total_us += int(fields[0])
        runs.append(total_us / 1e3)
    return statistics.median(runs)


def _print_metrics(values: dict, units: dict, notes: dict) -> None:
    for name, value in values.items():
        note = notes.get(name, "")
        _say(f"  {name:<28} {value:>14.4f} {units[name]:<6} {note}".rstrip())


def _checks(failed: dict) -> str:
    return "; ".join(f"{check}: {reason}" for check, reason in failed.items())


def judge(workload: str, items, warmup: dict, ops) -> tuple[bool, int]:
    """Print every failing input by name; returns (correct, number of failed ops).

    A run is correct when every failure is the known defect on an input
    listed for it (see ``checks.KNOWN_DEFECT_INPUTS``). Those failures still
    count as failed ops.
    """
    correct = True
    for name, failed in warmup.items():
        known = known_defect(workload, name, failed)
        correct &= known
        _say(f"warm-up FAILED {name}: {_checks(failed)}" + (" [known defect]" if known else ""))
    per_input = {item["name"]: [0, 0, {}] for item in items}  # failed ops, ops, failed checks
    for op in ops:
        row = per_input[op["input"]]
        row[1] += 1
        if op["failed"]:
            row[0] += 1
            row[2].update(op["failed"])
            correct &= known_defect(workload, op["input"], op["failed"])
    for name, (bad, total, failed) in per_input.items():
        if bad:
            tag = f" [known defect: {KNOWN_DEFECT}]" if known_defect(workload, name, failed) else ""
            _say(f"FAILED {name} ({bad} of {total} ops): {_checks(failed)}{tag}")
    n_failed = sum(row[0] for row in per_input.values())
    _say(f"failed_ratio {n_failed / len(ops):.4f} ({n_failed} failed or wrong of {len(ops)} attempted ops)")
    return correct, n_failed


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload end to end; returns the result object printed as JSON."""
    started = time.perf_counter()
    workload = WORKLOADS[name]
    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        plan = make_plan(workload, seed, seconds, workdir)
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        held_out = " (the held-out seed)" if seed == HELD_OUT_SEED else f" (held-out seed: {HELD_OUT_SEED})"
        _say(f"workload {name}, seed {seed}{held_out}, {seconds:g} s, trace {int(trace)}")
        _say(f"why: {workload.why}")

        setup_walls, generate_ms = run_setup(plan_path, workdir, started)
        _say(
            f"set-up: {len(plan['inputs'])} phantoms generated and written as QVOL1, {SETUP_REPEATS} times, "
            "each in a fresh process apart from the op process: " + ", ".join(f"{s:.3f} s" for s in setup_walls)
        )
        imp = import_ms(started) if trace else None

        result_path = workdir / "result.json"
        spans_path = workdir / "spans.jsonl" if trace else None
        cmd = [sys.executable, "-m", "bench.worker", str(plan_path), str(result_path)]
        if spans_path:
            cmd.append(str(spans_path))
        subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True, timeout=_remaining(started))
        result = json.loads(result_path.read_text())
        _say("env " + json.dumps(result["env"], sort_keys=True))
        ops = result["ops"]
        _say(
            f"one untimed warm-up pass over the {len(plan['inputs'])} inputs, then a closed loop with 1 client: "
            f"{len(ops)} ops in {result['passes']} passes, {sum(op['seconds'] for op in ops):.2f} s inside ops"
        )

        correct, n_failed = judge(name, plan["inputs"], result["warmup"], ops)

        if trace:
            spans = load_spans(spans_path)
            values, notes = metrics.per_layer(spans, ops, imp, generate_ms)
            units = {k: v[0] for k, v in metrics.PER_LAYER.items()}
            _say("per-layer metrics (per-op medians over the traced ops):")
            _print_metrics({k: values[k] for k in metrics.PER_LAYER}, units, notes)
            shares, total = metrics.self_time_shares(spans, ops)
            _say("self time as a share of the traced op wall time (median per op):")
            for span_name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
                gap = "  <- the gap no wrapped layer covers" if span_name == "cli.main" else ""
                _say(f"  {span_name:<24} {share:6.1f} %{gap}")
            _say(f"  {'sum':<24} {total:6.1f} %")
        else:
            sigma_expected = {item["name"]: item["expect"]["sigma_expected"] for item in plan["inputs"]}
            values, notes = metrics.end_to_end(ops, setup_walls, result["peak_rss_mb"], sigma_expected, workload.tail_passes)
            notes["peak_rss_mb"] = "the op process, set-up excluded"
            units = {k: v[0] for k, v in metrics.END_TO_END.items()}
            _say("end-to-end metrics (tracing off), gated in BENCHMARK.json:")
            _print_metrics({k: values[k] for k in units}, units, notes)
            _say("wall-clock timings as measured, and the machine's speed, not gated:")
            _print_metrics({k: values[k] for k in metrics.UNGATED}, metrics.UNGATED, notes)
            medians = sorted(metrics.input_medians(ops).items(), key=lambda kv: -kv[1])
            _say("median latency per input, ms: " + ", ".join(f"{k} {v * 1e3:.0f}" for k, v in medians))
        return {
            "correct": correct,
            "attempted": len(ops),
            "failed": n_failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items() if k in units},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload in turn")
    parser.add_argument("--seed", type=int, default=1, help=f"workload seed; {HELD_OUT_SEED} is held out for claims")
    parser.add_argument("--seconds", type=float, default=40.0, help="how long the closed loop measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run with per-layer metrics")
    args = parser.parse_args(argv)
    if not (SRC / "qbench" / "__init__.py").is_file():
        print(f"bench: no qbench sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
