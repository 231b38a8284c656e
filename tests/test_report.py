import json

import pytest

from qbench import SearchConfig, effective_resolution, estimate, noise_resolution_curve, normalize_quality
from qbench.qvol import read_input
from qbench.report import UNITS, build_report, curve_csv, report_json
from conftest import const_phantom, disk_phantom, resolved_digest, volume_from

import numpy as np


@pytest.fixture(scope="module")
def report_volume():
    return disk_phantom(radius=14, value=1000.0, sigma=80.0, seed=61, width=48, height=48, n_slices=10)


@pytest.fixture(scope="module")
def disk_curve(report_volume):
    return noise_resolution_curve(report_volume, [1.0, 1.5, 2.0], SearchConfig())


@pytest.fixture(scope="module")
def disk_report(report_volume, disk_curve):
    cfg = SearchConfig()
    est = estimate(report_volume, cfg)
    return build_report(digest="0" * 64, input_format="qvol", volume=report_volume, cfg=cfg, est=est, curve=disk_curve)


def numeric_leaves(node, path=()):
    """The dotted path of every number in ``node``; a list's items take the list's path."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, (*path, key))
    elif isinstance(node, list):
        for value in node:
            yield from numeric_leaves(value, path)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield ".".join(path)


class TestBuildReport:
    def test_core_sections_present(self, disk_report):
        for key in ("schema", "tool", "input", "config", "threshold", "noise", "warnings", "units"):
            assert key in disk_report
        assert disk_report["input"]["sha256"] == "0" * 64

    def test_units_cover_numeric_fields(self, disk_report):
        # a curve report with a failure and a quality score, and an estimate
        # report whose guard rejected a minimum, hold every numeric field
        assert disk_report["units"] is UNITS
        cfg = SearchConfig()
        vol = disk_phantom(radius=4, value=1000.0, sigma=80.0, seed=61, width=16, height=16, n_slices=6)
        curve = noise_resolution_curve(vol, [1.0, 1.5, 2.0, 9.0], cfg)
        score = normalize_quality(curve.full.snr, effective_resolution(vol.voxel_size), 1.0, 1.0)
        flat = const_phantom(value=400.0, sigma=100.0, seed=1)
        reports = [
            build_report(digest="x", input_format="qvol", volume=vol, cfg=cfg, est=curve.full, curve=curve, score=score),
            build_report(digest="x", input_format="qvol", volume=flat, cfg=cfg, est=estimate(flat, cfg)),
        ]
        assert reports[0]["resolution_curve"]["failures"] and reports[1]["threshold"]["t_rejected"] is not None
        fields = set()
        for report in reports:
            fields |= set(numeric_leaves({k: v for k, v in json.loads(report_json(report)).items() if k != "units"}))
        assert fields == set(UNITS)

    def test_analytic_correction_factor_noted(self, disk_report):
        cfgs = disk_report["config"]
        assert cfgs["correction_factor"] == 1.53
        assert cfgs["correction_factor_analytic"] == pytest.approx(1.5264, abs=1e-4)

    def test_serialization_is_canonical(self, disk_report):
        text1 = report_json(disk_report)
        text2 = report_json(json.loads(text1))
        assert text1 == text2
        assert text1.endswith("\n")

    def test_masked_zero_warning(self):
        data = np.zeros((2, 10, 10))
        data[:, :2, :] = 50.0
        vol = volume_from(data)
        est = estimate(vol, SearchConfig(t_start=1.0))
        assert est.zero_fraction == 0.8
        report = build_report(digest="x", input_format="qvol", volume=vol, cfg=SearchConfig(), est=est)
        assert any("exactly zero" in w for w in report["warnings"])

    def test_no_object_warning_present(self):
        vol = const_phantom(value=400.0, sigma=100.0, seed=62, width=32, height=32, n_slices=8)
        est = estimate(vol)
        report = build_report(digest="x", input_format="qvol", volume=vol, cfg=SearchConfig(), est=est)
        assert any("no object" in w for w in report["warnings"])
        assert report["threshold"]["no_object"] is True

    @pytest.mark.parametrize("n_slices", [1, 2])
    def test_single_slice_warning(self, n_slices):
        # one slice: every threshold ties at variance 0, and the tie rule picks t_opt
        vol = disk_phantom(radius=20, value=1000.0, sigma=80.0, seed=63, n_slices=n_slices)
        est = estimate(vol)
        report = build_report(digest="x", input_format="qvol", volume=vol, cfg=SearchConfig(), est=est)
        assert any("one slice only" in w for w in report["warnings"]) == (n_slices == 1)

    def test_pgm_stack_voxel_size_note_comes_first(self):
        # a no-object volume: the PGM note precedes the report's own warnings
        vol = const_phantom(value=400.0, sigma=100.0, seed=62, width=32, height=32, n_slices=8)
        est = estimate(vol)
        reports = {fmt: build_report(digest="x", input_format=fmt, volume=vol, cfg=SearchConfig(), est=est) for fmt in ("pgm-stack", "qvol")}
        note = "PGM stacks carry no voxel size; defaulting to 1 mm isotropic"
        assert reports["pgm-stack"]["warnings"] == [note, *reports["qvol"]["warnings"]]
        assert reports["qvol"]["warnings"] and note not in reports["qvol"]["warnings"]


class TestCurveCsv:
    def test_header_and_rows(self, disk_curve, disk_report):
        # the header, then one row of repr floats per point, in the report's point order
        header, *rows = curve_csv(disk_curve).splitlines()
        assert header == "resolution_mm,noise,snr"
        points = disk_report["resolution_curve"]["points"]
        assert len(points) == 3 and [p["resolution_mm"] for p in points] == [1.0, 1.5, 2.0]
        assert rows == [",".join(repr(p[k]) for k in ("resolution_mm", "noise", "snr")) for p in points]

    def test_format(self):
        from qbench import CurvePoint, ResolutionCurve

        curve = ResolutionCurve(
            (CurvePoint(1.0, 100.0, 10.0), CurvePoint(2.0, 35.36, 28.0)),
            1.5,
            100.0,
            0.0,
        )
        text = curve_csv(curve)
        lines = text.splitlines()
        assert lines[0] == "resolution_mm,noise,snr"
        assert lines[1] == "1.0,100.0,10.0"
        assert len(lines) == 3


class TestInputDigest:
    def test_pgm_stack_hashes_only_the_slices_it_loads(self, tmp_path):
        for i in range(2):
            (tmp_path / f"s{i}.PGM").write_bytes(b"P5\n2 1\n255\n" + bytes([i, 7]))
        before = resolved_digest(tmp_path, read_input(tmp_path))
        (tmp_path / "README").write_text("notes")
        (tmp_path / "report.json").write_text("{}")
        assert resolved_digest(tmp_path, read_input(tmp_path)) == before
        (tmp_path / "s1.PGM").write_bytes(b"P5\n2 1\n255\n" + bytes([1, 8]))
        assert resolved_digest(tmp_path, read_input(tmp_path)) != before
