import json

import pytest

from qbench import SearchConfig, estimate, noise_resolution_curve
from qbench.report import UNITS, build_report, curve_csv, input_digest, masked_zero_fraction, report_json
from conftest import const_phantom, disk_phantom, volume_from

import numpy as np


@pytest.fixture(scope="module")
def disk_report():
    vol = disk_phantom(radius=14, value=1000.0, sigma=80.0, seed=61, width=48, height=48, n_slices=10)
    cfg = SearchConfig()
    est = estimate(vol, cfg)
    curve = noise_resolution_curve(vol, [1.0, 1.5, 2.0], cfg)
    return build_report(digest="0" * 64, input_format="qvol", volume=vol, cfg=cfg, est=est, curve=curve)


class TestBuildReport:
    def test_core_sections_present(self, disk_report):
        for key in ("schema", "tool", "input", "config", "threshold", "noise", "warnings", "units"):
            assert key in disk_report
        assert disk_report["input"]["sha256"] == "0" * 64

    def test_units_cover_numeric_fields(self, disk_report):
        assert disk_report["units"] is UNITS
        for key in ("noise.sigma", "threshold.t_opt", "resolution_curve.gradient_m"):
            assert key in UNITS

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
        assert masked_zero_fraction(vol) == pytest.approx(0.8)
        est = estimate(vol, SearchConfig(t_start=1.0))
        report = build_report(digest="x", input_format="qvol", volume=vol, cfg=SearchConfig(), est=est)
        assert any("exactly zero" in w for w in report["warnings"])

    def test_no_object_warning_present(self):
        vol = const_phantom(value=400.0, sigma=100.0, seed=62, width=32, height=32, n_slices=8)
        est = estimate(vol)
        report = build_report(digest="x", input_format="qvol", volume=vol, cfg=SearchConfig(), est=est)
        assert any("no object" in w for w in report["warnings"])
        assert report["threshold"]["no_object"] is True


class TestCurveCsv:
    def test_header_and_rows(self, disk_report):
        pass  # covered via CLI test; format itself below

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
        before = input_digest(tmp_path)
        (tmp_path / "README").write_text("notes")
        (tmp_path / "report.json").write_text("{}")
        assert input_digest(tmp_path) == before
        (tmp_path / "s1.PGM").write_bytes(b"P5\n2 1\n255\n" + bytes([1, 8]))
        assert input_digest(tmp_path) != before
