"""Tests of the benchmark's own logic: spans and self time, the tail rule, report checks, workloads."""

import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import metrics  # noqa: E402
from bench.checks import check_report, known_defect  # noqa: E402
from bench.run import judge  # noqa: E402
from bench.spans import Span, Tracer, covered, instrument, self_times  # noqa: E402
from bench.workloads import HELD_OUT_SEED, WORKLOADS, rician_std  # noqa: E402


def _clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def _span(id, start, end, parent=None, name="s"):
    return Span(id=id, name=name, start=start, end=end, parent=parent, op=0, thread=0)


class TestSelfTime:
    def test_nested_spans_subtract_only_direct_children(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 7]
        tracer = Tracer(clock=_clock(0, 1, 2, 3, 4, 5, 7, 10))
        tracer.op = 3
        with tracer.span("root"):
            with tracer.span("a"):
                with tracer.span("a1"):
                    pass
            with tracer.span("b"):
                pass
        selfs = self_times(tracer.spans)
        by_name = {sp.name: sp for sp in tracer.spans}
        assert selfs[by_name["root"].id] == 10 - 3 - 2
        assert selfs[by_name["a"].id] == 3 - 1
        assert selfs[by_name["a1"].id] == 1
        assert by_name["a1"].parent == by_name["a"].id
        assert {sp.op for sp in tracer.spans} == {3}

    def test_overlapping_pool_children_are_subtracted_once(self):
        spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 6.0, parent=0), _span(2, 2.0, 8.0, parent=0)]
        assert self_times(spans)[0] == pytest.approx(10.0 - 7.0)

    def test_children_outside_the_parent_interval_are_clipped(self):
        assert covered([(-2.0, 1.0), (9.0, 12.0), (3.0, 4.0)], 0.0, 10.0) == pytest.approx(3.0)
        assert covered([], 0.0, 10.0) == 0.0

    def test_pool_threads_attach_to_the_submitting_span(self):
        tracer = Tracer()
        tracer.op = 7

        def task():
            with tracer.span("task"):
                pass

        with tracer.span("curve") as curve:
            with tracer.executor(ThreadPoolExecutor)(max_workers=2) as pool:
                for future in [pool.submit(task) for _ in range(4)]:
                    future.result()
        tasks = [sp for sp in tracer.spans if sp.name == "task"]
        assert len(tasks) == 4
        assert all(sp.parent == curve.id and sp.op == 7 for sp in tasks)

    def test_adopt_restores_the_thread_stack(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.adopt(root):
                assert tracer.current() is root
            assert tracer.current() is root
        assert tracer.current() is None


class TestTail:
    def test_ten_samples_lie_beyond_the_tail(self):
        samples = [float(i) for i in range(100)]
        value, pct, n = metrics.tail(reversed(samples))
        assert n == 100
        assert sum(s > value for s in samples) == 10
        assert value == 89.0 and pct == 90.0

    def test_smallest_sample_count_with_a_tail(self):
        value, pct, n = metrics.tail([5.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
        assert value == 1.0 and pct == pytest.approx(100 / 11) and n == 11

    def test_end_to_end_tail_uses_only_the_leading_passes(self):
        # 12 inputs; a third pass, run only because the machine was fast, must not move the tail
        ops = [
            {"input": f"i{k}", "pass": p, "seconds": 0.1 * (k + 1), "ref_seconds": metrics.REF_NOMINAL_S, "sigma": 1.0}
            for p in range(3)
            for k in range(12)
        ]
        sigma = {f"i{k}": 1.0 for k in range(12)}
        two, notes = metrics.end_to_end(ops[:24], [1.0], 50.0, sigma, tail_passes=2)
        three, _ = metrics.end_to_end(ops, [1.0], 50.0, sigma, tail_passes=2)
        assert two["latency_tail_ms"] == three["latency_tail_ms"] == pytest.approx(700.0)
        assert two["latency_tail_ms_at_ref"] == three["latency_tail_ms_at_ref"] == pytest.approx(700.0)
        assert "of 24 samples" in notes["latency_tail_ms"]


class TestReferenceSpeed:
    def _ops(self, slow: set[int]):
        # 4 inputs x 6 passes; ops in a slow pass take 1.5x as long, and so does the reference before them
        return [
            {
                "input": f"i{k}",
                "pass": p,
                "seconds": 0.1 * (k + 1) * (1.5 if p in slow else 1.0),
                "ref_seconds": metrics.REF_NOMINAL_S * (1.5 if p in slow else 1.0),
                "sigma": 1.0,
            }
            for p in range(6)
            for k in range(4)
        ]

    def test_scaled_timings_do_not_follow_the_machine(self):
        sigma = {f"i{k}": 1.0 for k in range(4)}
        quiet, _ = metrics.end_to_end(self._ops(set()), [1.0], 50.0, sigma, tail_passes=6)
        busy, _ = metrics.end_to_end(self._ops({0, 2, 3, 5}), [1.0], 50.0, sigma, tail_passes=6)
        for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms"):
            assert busy[f"{name}_at_ref"] == pytest.approx(quiet[f"{name}_at_ref"])
        assert busy["ops_per_s"] == pytest.approx(quiet["ops_per_s"] / 1.5)
        assert busy["latency_p50_ms"] > 1.2 * quiet["latency_p50_ms"]
        assert quiet["ops_per_s_at_ref"] == pytest.approx(4 / 1.0)
        assert busy["ref_ms"] == pytest.approx(1.5 * metrics.REF_NOMINAL_S * 1e3)

    def test_json_carries_only_the_gated_metrics(self):
        assert not set(metrics.UNGATED) & set(metrics.END_TO_END)

    def test_too_few_samples_fall_back_to_the_maximum(self):
        assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
        with pytest.raises(ValueError):
            metrics.tail([])


def _report(sigma=100.0, no_object=False, sha="ab" * 32, gradient=None):
    report = {"input": {"sha256": sha}, "noise": {"sigma": sigma}, "threshold": {"no_object": no_object}}
    if gradient is not None:
        report["resolution_curve"] = {"gradient_m": gradient}
    return json.dumps(report, sort_keys=True).encode()


EXPECT = {"sha256": "ab" * 32, "sigma_expected": 100.0, "has_object": True}


class TestChecks:
    def test_correct_report_passes(self):
        good = _report(sigma=103.0)
        assert check_report(0, good, good, EXPECT) == ({}, 103.0)

    def test_wrong_sigma_is_rejected(self):
        failed, sigma = check_report(0, _report(sigma=106.0), None, EXPECT)
        assert set(failed) == {"sigma"} and sigma == 106.0

    def test_tampered_report_is_rejected(self):
        reference = _report()
        tampered = reference.replace(b"100.0", b"100.5")
        failed, _ = check_report(0, tampered, reference, EXPECT)
        assert "repeat" in failed
        failed, _ = check_report(0, _report(sha="cd" * 32), None, EXPECT)
        assert set(failed) == {"digest"}
        failed, _ = check_report(0, reference[:-3], reference, EXPECT)
        assert set(failed) == {"parse"}

    def test_no_object_must_match_the_phantom(self):
        failed, _ = check_report(0, _report(no_object=True), None, EXPECT)
        assert set(failed) == {"no_object"}

    def test_curve_gradient_range(self):
        expect = {**EXPECT, "curve": True}
        assert check_report(0, _report(gradient=1.5), None, expect)[0] == {}
        assert set(check_report(0, _report(gradient=1.75), None, expect)[0]) == {"gradient"}
        assert set(check_report(0, _report(), None, expect)[0]) == {"parse"}

    def test_failed_exit_and_missing_report(self):
        assert set(check_report(4, None, None, EXPECT)[0]) == {"exit"}
        assert set(check_report(0, None, None, EXPECT)[0]) == {"parse"}

    def test_only_a_silent_no_object_on_a_listed_input_is_the_known_defect(self):
        wl, listed = "estimate-f32-mixed", "disk-x0.01-s100"
        assert known_defect(wl, listed, {"sigma": "x", "no_object": "y"})
        assert known_defect(wl, "rect-x0.01-s100", {"no_object": "y"})
        assert not known_defect(wl, "disk-x0.1-s100", {"sigma": "x", "no_object": "y"})
        assert not known_defect("estimate-u16-256", listed, {"sigma": "x", "no_object": "y"})
        assert not known_defect(wl, listed, {"sigma": "x"})
        assert not known_defect(wl, listed, {"no_object": "y", "repeat": "z"})
        assert not known_defect(wl, listed, {})

    def test_the_known_defect_on_an_unlisted_input_fails_the_run(self):
        items = [{"name": n} for n in ("disk-x0.01-s100", "disk-x0.1-s100", "noobj-x1-s50")]
        defect = {"sigma": "x", "no_object": "y"}

        def ops(bad):
            return [{"input": it["name"], "failed": defect if it["name"] in bad else {}} for it in items]

        assert judge("estimate-f32-mixed", items, {}, ops({"disk-x0.01-s100"})) == (True, 1)
        assert judge("estimate-f32-mixed", items, {}, ops({"disk-x0.1-s100"})) == (False, 1)
        assert judge("estimate-f32-mixed", items, {"disk-x0.1-s100": defect}, ops(set())) == (False, 0)
        assert judge("estimate-u16-256", items, {}, ops({"disk-x0.01-s100"})) == (False, 1)


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_seed_relays_the_same_phantoms_out(self, name):
        wl = WORKLOADS[name]
        a, b, held = wl.inputs(1), wl.inputs(2), wl.inputs(HELD_OUT_SEED)
        assert [i.layout for i in a] == [i.layout for i in wl.inputs(1)]
        assert [(i.name, i.spec) for i in a] == [(i.name, i.spec) for i in b] == [(i.name, i.spec) for i in held]
        assert all(x.layout != y.layout for x, y in zip(a, b))

    def test_object_fraction_and_scales(self):
        u16 = WORKLOADS["estimate-u16-256"].inputs(5)
        assert sum(not i.has_object for i in u16) / len(u16) == 0.25
        assert {i.spec["sigma"] for i in u16} == {50.0, 100.0, 200.0}
        mixed = WORKLOADS["estimate-f32-mixed"].inputs(5)
        assert {i.name.split("-x")[1].split("-s")[0] for i in mixed} == {"0.01", "0.1", "1", "16"}
        assert any(i.spec["background_value"] > 0 and not i.has_object for i in mixed)

    def test_layout_permutes_slices_and_orients_the_plane(self):
        np = pytest.importorskip("numpy")
        from bench.setup_inputs import laid_out

        data = np.arange(4 * 3 * 5, dtype=float).reshape(4, 3, 5)
        layout = {"slice_order": [2, 0, 3, 1], "flip_rows": True, "flip_cols": False, "transpose": True}
        out = laid_out(data, layout)
        assert out.shape == (4, 5, 3)
        for k, src in enumerate(layout["slice_order"]):
            assert np.array_equal(out[k], data[src][::-1, :].T)

    def test_rician_std_reduces_to_rayleigh(self):
        assert rician_std(0.0, 100.0) == pytest.approx(100.0 * math.sqrt(2 - math.pi / 2), rel=1e-6)
        assert rician_std(2000.0, 100.0) == pytest.approx(100.0, rel=2e-3)


def test_per_layer_reports_every_named_metric():
    spans = [
        _span(0, 0.0, 1.0, name="cli.main"),
        _span(1, 0.1, 0.4, parent=0, name="qvol.load"),
        _span(2, 0.5, 0.9, parent=0, name="noise.find_t_opt"),
    ]
    spans[2].attrs = {"curve_points": 7, "mode": "exhaustive-fallback"}
    ops = [{"traced": True, "seconds": 1.0}, {"traced": False, "seconds": 0.8}]
    values, notes = metrics.per_layer(spans, ops, import_ms=30.0, generate_ms=[5.0, 7.0])
    assert set(values) == set(metrics.PER_LAYER)
    assert values["cli.self_ms"] == pytest.approx(300.0)
    assert values["noise.curve_points"] == 7
    assert values["noise.bracketed_ratio"] == 0.0 and "0 bracketed of 1" in notes["noise.bracketed_ratio"]
    assert notes["resolution.parallel_ratio"].startswith("n/a")
    assert notes["report.digest_ms"].startswith("n/a")
    assert values["trace.overhead_pct"] == pytest.approx(25.0)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w for w in WORKLOADS.values() if w.gated]
    assert [w["name"] for w in spec["workloads"]] == [w.name for w in gated]
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in gated]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v[0] for k, v in metrics.PER_LAYER.items()}


def test_traced_estimate_accounts_for_the_op(tmp_path):
    pytest.importorskip("numpy")
    sys.path.insert(0, str(ROOT / "src"))
    from qbench import cli
    from qbench.phantom import PhantomObject, PhantomSpec, generate
    from qbench.qvol import write_container

    obj = PhantomObject("disk", (16.0, 16.0), 8.0, 1000.0)
    path = tmp_path / "v.qvol"
    write_container(path, generate(PhantomSpec(width=32, height=32, n_slices=6, objects=(obj,), sigma=100.0, seed=1)))
    originals = (cli.main, cli.load_volume, cli.estimate)
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        tracer.op = 0
        assert cli.main(["estimate", str(path), "--output", str(tmp_path / "r.json")]) == 0
    finally:
        restore()
    assert (cli.main, cli.load_volume, cli.estimate) == originals
    names = {sp.name for sp in tracer.spans}
    assert {"cli.main", "qvol.load", "volume.from_array", "noise.estimate", "noise.find_t_opt", "report.digest"} <= names
    digest = next(sp for sp in tracer.spans if sp.name == "report.digest")
    assert digest.attrs["bytes"] == path.stat().st_size
    assert hashlib.sha256(path.read_bytes()).hexdigest() in (tmp_path / "r.json").read_text()
    selfs = self_times(tracer.spans)
    root = tracer.spans[0]
    assert root.name == "cli.main" and root.parent is None and root.op == 0
    assert sum(selfs.values()) == pytest.approx(root.duration, rel=1e-9)
