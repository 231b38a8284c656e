"""The process that runs the ops: a closed loop with one client calling ``qbench.cli.main``.

Usage: ``python3 -m bench.worker PLAN.json RESULT.json [SPANS.jsonl]``. Runs
one untimed warm-up pass over the plan's inputs, then measures whole passes
over them until the plan's seconds are up and at least its ``min_passes``
have run, checking every report, and times a fixed reference computation
right before every op (``metrics.at_reference_speed``). Passes
always follow the plan's order: a per-seed op order changed the allocator
and cache state each op starts from, and moved throughput by 13% between
seeds. With a spans path it alternates untraced and traced passes and writes
the spans when the run ends. The set-up ran in another process, so this
process's peak RSS excludes it.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr

from bench.checks import check_report
from bench.env import environment, use_source_tree
from bench.spans import Tracer, instrument


def run_op(main, item: dict) -> tuple[int | None, float, bytes | None, str | None]:
    """One in-process CLI call: (exit code, seconds, report bytes, traceback)."""
    output = item["output"]
    if os.path.exists(output):
        os.unlink(output)  # a stale report must not pass for this op's
    sink = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with redirect_stderr(sink):
            code = main(item["argv"])
    except Exception:
        code, error = None, traceback.format_exc()
    seconds = time.perf_counter() - t0
    try:
        with open(output, "rb") as fh:
            report = fh.read()
    except OSError:
        report = None
    return code, seconds, report, error


def reference_seconds(data) -> float:
    """Time of a fixed computation, sort and Python loop, that shows the machine's current speed.

    It runs right before every op, outside the op's time; ``metrics``
    scales the op latencies by it.
    """
    t0 = time.perf_counter()
    data.sort(kind="quicksort")
    total = 0
    for i in range(50_000):
        total += i * i
    return time.perf_counter() - t0


def _check(item, code, report, error, reference):
    if error is not None:
        return {"exception": error.strip().splitlines()[-1]}, None
    return check_report(code, report, reference, item["expect"])


def main(plan_path: str, result_path: str, spans_path: str | None = None) -> int:
    use_source_tree()
    import numpy as np
    from qbench import cli, noise
    from qbench.qvol import load_volume

    ref_input = np.random.default_rng(0).random(1 << 20, dtype=np.float32)

    with open(plan_path) as fh:
        plan = json.load(fh)
    items = plan["inputs"]
    for item in items:
        with open(item["path"], "rb") as fh:
            item["expect"]["sha256"] = hashlib.sha256(fh.read()).hexdigest()
    env = environment(plan["seed"])

    references, warmup = {}, {}
    for item in items:
        code, _, report, error = run_op(cli.main, item)
        failed, _ = _check(item, code, report, error, None)
        if failed:
            warmup[item["name"]] = failed
        if code == 0 and report is not None:
            references[item["name"]] = report

    tracer = Tracer() if spans_path else None
    ops = []
    passes = 0
    deadline = time.perf_counter() + plan["seconds"]
    # whole passes only, so that every input weighs the same in every metric
    while passes < max(plan["min_passes"], 2 if tracer else 1) or time.perf_counter() < deadline:
        traced = tracer is not None and passes % 2 == 1
        restore = instrument(tracer) if traced else None
        pass_ops = []
        try:
            for item in items:
                op_id = len(ops)
                ref_seconds = reference_seconds(ref_input.copy())
                if traced:
                    tracer.op = op_id  # instrument() wraps cli.main in the op's root span
                code, seconds, report, error = run_op(cli.main, item)
                failed, sigma = _check(item, code, report, error, references.get(item["name"]))
                ops.append(
                    {
                        "input": item["name"],
                        "pass": passes,
                        "seconds": seconds,
                        "ref_seconds": ref_seconds,
                        "traced": traced,
                        "failed": failed,
                        "sigma": sigma,
                    }
                )
                pass_ops.append((op_id, item))
        finally:
            if restore:
                restore()
        if traced:
            # find_t_lower is not on the CLI's path; time it apart from the op
            for op_id, item in pass_ops:
                volume = load_volume(item["path"])
                tracer.op = op_id
                with tracer.span("noise.find_t_lower"):
                    noise.find_t_lower(volume)
            tracer.op = None
        passes += 1

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.dump(spans_path)
    with open(result_path, "w") as fh:
        json.dump({"env": env, "warmup": warmup, "ops": ops, "passes": passes, "peak_rss_mb": peak_rss_kb / 1024}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
