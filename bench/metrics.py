"""Metric definitions and their computation from one run's ops and spans.

``PER_LAYER`` is the layer -> end-to-end -> workload map: for every
per-layer metric, the end-to-end metrics it should move and the workloads
on which it should (or should not) move them.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from bench.spans import self_times

# A tail percentile is reported only where this many samples lie beyond it.
TAIL_BEYOND = 10

# The reference computation's time (``worker.reference_seconds``) on the
# 2-vCPU VM the benchmark was defined on, at its fastest. The ``_at_ref``
# timings scale every op to the machine speed at which the reference takes
# this long.
REF_NOMINAL_S = 0.008

# name: (unit, better); these are gated in BENCHMARK.json
END_TO_END = {
    "ops_per_s_at_ref": ("1/s", "higher"),
    "latency_p50_ms_at_ref": ("ms", "lower"),
    "latency_tail_ms_at_ref": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
    "sigma_err_p50_pct": ("%", "lower"),
}

# name: unit; printed next to the gated metrics but not gated: the wall-clock
# timings as measured, and the machine speed they were measured at
UNGATED = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ref_ms": "ms",
}

_ALL = "estimate-u16-256, estimate-f32-mixed, curve-128"

# name: (unit, end-to-end metrics it moves, where it moves them)
PER_LAYER = {
    "noise.find_t_opt_ms": ("ms", "latency_p50_ms, ops_per_s", "estimate-u16-256 >> estimate-f32-mixed; x5 per op on curve-128"),
    "noise.curve_points": ("count", "latency_p50_ms, ops_per_s", "estimate-u16-256 >> estimate-f32-mixed; x5 per op on curve-128"),
    "noise.find_t_lower_ms": ("ms", "latency_p50_ms, ops_per_s", "estimate-u16-256 >> estimate-f32-mixed; curve-128 (probe on the input only)"),
    "noise.estimate_self_ms": ("ms", "latency_p50_ms", _ALL),
    "noise.estimate_calls": ("count", "latency_p50_ms", "curve-128 (5 -> 4 under ROADMAP item 2); 1 on the estimate workloads"),
    "noise.find_t_opt_calls": ("count", "latency_p50_ms", "curve-128 (5 -> 4 under ROADMAP item 2); 1 on the estimate workloads"),
    "noise.bracketed_ratio": ("ratio", "latency_p50_ms", _ALL + " (n/a once mode_used is gone)"),
    "qvol.load_ms": ("ms", "ops_per_s", "estimate-u16-256; small on curve-128"),
    "qvol.bytes_read": ("bytes", "ops_per_s", "estimate-u16-256; small on curve-128"),
    "volume.from_array_calls": ("count", "peak_rss_mb, latency_p50_ms", _ALL + "; largest share on curve-128"),
    "volume.from_array_ms": ("ms", "peak_rss_mb, latency_p50_ms", _ALL + "; largest share on curve-128"),
    "volume.from_array_mb": ("MB", "peak_rss_mb, latency_p50_ms", _ALL + "; computed from array sizes"),
    "resolution.downsample_calls": ("count", "latency_p50_ms, latency_tail_ms", "curve-128 only; no change on the estimate workloads"),
    "resolution.downsample_ms": ("ms", "latency_p50_ms, latency_tail_ms", "curve-128 only; no change on the estimate workloads"),
    "resolution.curve_self_ms": ("ms", "latency_p50_ms, latency_tail_ms", "curve-128 only; no change on the estimate workloads"),
    "resolution.parallel_ratio": ("ratio", "latency_p50_ms, latency_tail_ms", "curve-128 only; no change on the estimate workloads"),
    "report.digest_ms": ("ms", "ops_per_s", "estimate-u16-256, where CLI overhead is about a quarter of an op"),
    "report.bytes_hashed": ("bytes", "ops_per_s", "estimate-u16-256"),
    "report.build_ms": ("ms", "ops_per_s", "estimate-u16-256"),
    "report.write_ms": ("ms", "ops_per_s", "estimate-u16-256"),
    "cli.self_ms": ("ms", "ops_per_s", "estimate-u16-256; the part of an op no wrapped layer covers"),
    "init.import_ms": ("ms", "setup_s", _ALL),
    "phantom.generate_ms": ("ms", "setup_s", _ALL),
    "trace.op_ms": ("ms", "-", _ALL + "; traced op wall time, the base of the self-time shares"),
    "trace.overhead_pct": ("%", "-", _ALL),
}


def tail(samples) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count): the value is the
    (TAIL_BEYOND + 1)-th largest sample and the percentile is the share of
    samples at or below it. With too few samples the maximum is returned at
    percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n


def input_medians(ops) -> dict[str, float]:
    """Each input's median latency in seconds."""
    by_input = defaultdict(list)
    for op in ops:
        by_input[op["input"]].append(op["seconds"])
    return {name: statistics.median(v) for name, v in by_input.items()}


def at_reference_speed(ops) -> list[dict]:
    """The ops with each latency scaled to the reference machine speed.

    An op's scale is REF_NOMINAL_S over the reference time measured right
    before it: the host this runs on slows every process on it by up to half,
    for single ops or for minutes, and the reference slows with it. Over
    four runs per workload, scaling by each op's own reference cut the
    spread of ops_per_s from 0.13 to 0.004 on estimate-u16-256 and from 0.15
    to 0.05 on curve-128; scaling by each pass's median reference did less
    well (0.02 and 0.09 over three runs).
    """
    return [dict(op, seconds=op["seconds"] * REF_NOMINAL_S / op["ref_seconds"]) for op in ops]


def _timings(ops, tail_passes, suffix) -> tuple[dict[str, float], dict]:
    medians = input_medians(ops)
    tail_s, tail_pct, n = tail(op["seconds"] for op in ops if op["pass"] < tail_passes)
    values = {
        f"ops_per_s{suffix}": len(medians) / sum(medians.values()),
        f"latency_p50_ms{suffix}": statistics.median(op["seconds"] for op in ops) * 1e3,
        f"latency_tail_ms{suffix}": tail_s * 1e3,
    }
    notes = {
        f"ops_per_s{suffix}": f"1 / mean over the {len(medians)} inputs of each one's median latency",
        f"latency_tail_ms{suffix}": f"p{tail_pct:.1f} of {n} samples (first {tail_passes} passes), {min(TAIL_BEYOND, n - 1)} beyond",
    }
    return values, notes


def end_to_end(ops, setup_seconds, peak_rss_mb, sigma_expected, tail_passes) -> tuple[dict[str, float], dict]:
    """The end-to-end metrics of an untraced run, gated and not, plus notes on how they were formed.

    The tail is taken over the first ``tail_passes`` passes only, so that
    every run, fast or slow, puts it at the same percentile of the same
    number of samples.
    """
    values, notes = _timings(at_reference_speed(ops), tail_passes, "_at_ref")
    raw, raw_notes = _timings(ops, tail_passes, "")
    errors = [100.0 * abs(op["sigma"] - sigma_expected[op["input"]]) / sigma_expected[op["input"]] for op in ops if op["sigma"] is not None]
    values |= raw | {
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_seconds),
        "sigma_err_p50_pct": statistics.median(errors) if errors else float("nan"),
        "ref_ms": statistics.median(op["ref_seconds"] for op in ops) * 1e3,
    }
    notes |= raw_notes | {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setup_seconds) + " s, each a whole set-up",
        "sigma_err_p50_pct": f"median over {len(errors)} reports",
        "ref_ms": f"median reference time before an op; the _at_ref timings assume {REF_NOMINAL_S * 1e3:g}",
    }
    return values, notes


def _per_op(spans) -> dict[int, dict[str, float]]:
    """Per op id: calls, ms, self_ms and summed numeric attributes of each span name."""
    selfs = self_times(spans)
    by_id = {sp.id: sp for sp in spans}
    rows: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for sp in spans:
        if sp.op is None:
            continue
        row = rows[sp.op]
        row[f"{sp.name}.calls"] += 1
        row[f"{sp.name}.ms"] += sp.duration * 1e3
        row[f"{sp.name}.self_ms"] += selfs[sp.id] * 1e3
        for key, value in sp.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row[f"{sp.name}.{key}"] += value
        parent = by_id.get(sp.parent)
        if parent is not None:
            row[f"{parent.name}.child_ms"] += sp.duration * 1e3
    return rows


# per-layer metric -> per-op row key: the span name, then what is summed
_FROM_ROWS = {
    "noise.find_t_opt_ms": "noise.find_t_opt.ms",
    "noise.curve_points": "noise.find_t_opt.curve_points",
    "noise.find_t_lower_ms": "noise.find_t_lower.ms",
    "noise.estimate_self_ms": "noise.estimate.self_ms",
    "noise.estimate_calls": "noise.estimate.calls",
    "noise.find_t_opt_calls": "noise.find_t_opt.calls",
    "qvol.load_ms": "qvol.load.self_ms",
    "qvol.bytes_read": "qvol.load.bytes",
    "volume.from_array_calls": "volume.from_array.calls",
    "volume.from_array_ms": "volume.from_array.self_ms",
    "volume.from_array_mb": "volume.from_array.mb",
    "resolution.downsample_calls": "resolution.downsample.calls",
    "resolution.downsample_ms": "resolution.downsample.self_ms",
    "resolution.curve_self_ms": "resolution.curve.self_ms",
    "report.digest_ms": "report.digest.self_ms",
    "report.bytes_hashed": "report.digest.bytes",
    "report.build_ms": "report.build.self_ms",
    "report.write_ms": "report.write.self_ms",
    "cli.self_ms": "cli.main.self_ms",
    "trace.op_ms": "cli.main.ms",
}

# spans that only some workloads open; their metrics read 0 (a true count or
# time) where the span is absent, and ratios built on them read n/a
_WORKLOAD_SPECIFIC = {"resolution.downsample", "resolution.curve"}


def per_layer(spans, ops, import_ms, generate_ms) -> tuple[dict[str, float], dict[str, str]]:
    """Per-op medians over the traced ops; returns (values, notes), n/a reasons among the notes."""
    rows = _per_op(spans)
    traced = [op_id for op_id, op in enumerate(ops) if op["traced"]]
    seen = {sp.name for sp in spans}
    values, notes = {}, {}

    for name, key in _FROM_ROWS.items():
        span_name = key.rsplit(".", 1)[0]
        values[name] = statistics.median(rows[op_id].get(key, 0.0) for op_id in traced)
        if span_name in seen:
            continue
        if span_name in _WORKLOAD_SPECIFIC:
            notes[name] = "0: this workload runs no curve"
        else:
            notes[name] = f"n/a: no {span_name} span, the program no longer exposes that call"

    curve_ops = [rows[i] for i in traced if rows[i].get("resolution.curve.ms")]
    if curve_ops:
        values["resolution.parallel_ratio"] = statistics.median(r["resolution.curve.child_ms"] / r["resolution.curve.ms"] for r in curve_ops)
        notes["resolution.parallel_ratio"] = "summed downsample + estimate time / curve wall time"
    else:
        values["resolution.parallel_ratio"] = 0.0
        notes["resolution.parallel_ratio"] = "n/a: this workload runs no curve"

    modes = [sp.attrs.get("mode") for sp in spans if sp.name == "noise.find_t_opt"]
    known = [m for m in modes if m is not None]
    if known:
        hits = sum(m == "bracketed" for m in known)
        values["noise.bracketed_ratio"] = hits / len(known)
        notes["noise.bracketed_ratio"] = f"{hits} bracketed of {len(known)} find_t_opt calls"
    else:
        values["noise.bracketed_ratio"] = 0.0
        notes["noise.bracketed_ratio"] = "n/a: find_t_opt results carry no mode_used"

    values["init.import_ms"] = import_ms
    values["phantom.generate_ms"] = statistics.median(generate_ms)
    notes["init.import_ms"] = "qbench's own modules, self times from python -X importtime, median of runs"
    notes["phantom.generate_ms"] = f"median over {len(generate_ms)} phantoms, set-up only"

    traced_s = [op["seconds"] for op in ops if op["traced"]]
    untraced_s = [op["seconds"] for op in ops if not op["traced"]]
    values["trace.overhead_pct"] = 100.0 * (statistics.mean(traced_s) / statistics.mean(untraced_s) - 1.0)
    notes["trace.overhead_pct"] = f"{len(traced_s)} traced vs {len(untraced_s)} untraced ops in alternating whole passes"
    return values, notes


def self_time_shares(spans, ops) -> tuple[dict[str, float], float]:
    """Median per-op share (%) of the op wall time spent in each span name's own code,
    and the median share the shares sum to. cli.main's share is the gap no
    wrapped layer covers; parallel pool work can push the sum past 100."""
    selfs = self_times(spans)
    per_op = defaultdict(lambda: defaultdict(float))
    wall = {}
    for sp in spans:
        if sp.op is None or sp.name == "noise.find_t_lower":
            continue
        per_op[sp.op][sp.name] += selfs[sp.id]
        if sp.name == "cli.main":
            wall[sp.op] = sp.duration
    traced = [op_id for op_id, op in enumerate(ops) if op["traced"] and op_id in wall]
    names = sorted({name for op_id in traced for name in per_op[op_id]})
    shares = {name: statistics.median(100.0 * per_op[i][name] / wall[i] for i in traced) for name in names}
    total = statistics.median(100.0 * sum(per_op[i].values()) / wall[i] for i in traced)
    return shares, total
