import json

import numpy as np
import pytest

from qbench import PhantomSpec, generate, write_container
from qbench.cli import EXIT_ESTIMATION, EXIT_LOAD, EXIT_OK, EXIT_USAGE, main
from qbench.report import REPORT_SCHEMA


def write_spec(path, **overrides):
    spec = {
        "width": 48,
        "height": 48,
        "n_slices": 12,
        "voxel_size_mm": [1.0, 1.0, 1.0],
        "background_value": 400.0,
        "objects": [],
        "sigma": 100.0,
        "seed": 7,
        "quantize": True,
    }
    spec.update(overrides)
    path.write_text(json.dumps(spec))
    return spec


@pytest.fixture
def const_container(tmp_path):
    spec_path = tmp_path / "spec.json"
    write_spec(spec_path)
    out = tmp_path / "vol.qvol"
    assert main(["synth", str(spec_path), "--output", str(out)]) == EXIT_OK
    return out


@pytest.fixture
def disk_container(tmp_path):
    spec_path = tmp_path / "disk_spec.json"
    write_spec(
        spec_path,
        background_value=0.0,
        objects=[{"shape": "disk", "center": [24, 24], "radius": 14, "value": 1200.0}],
        seed=21,
        quantize=False,
    )
    out = tmp_path / "disk.qvol"
    assert main(["synth", str(spec_path), "--output", str(out)]) == EXIT_OK
    return out


class TestSynth:
    def test_deterministic_output(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        out1, out2 = tmp_path / "a.qvol", tmp_path / "b.qvol"
        assert main(["synth", str(spec_path), "--output", str(out1)]) == EXIT_OK
        assert main(["synth", str(spec_path), "--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_sigma_writes_exact_template(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, sigma=0.0, background_value=123.0)
        out = tmp_path / "flat.qvol"
        assert main(["synth", str(spec_path), "--output", str(out)]) == EXIT_OK
        from qbench import load_volume

        vol = load_volume(out)
        assert np.all(vol.data == 123.0)

    def test_invalid_spec_is_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, sigma=-5.0)
        assert main(["synth", str(spec_path), "--output", str(tmp_path / "x.qvol")]) == EXIT_USAGE
        assert "invalid phantom spec" in capsys.readouterr().err

    def test_missing_spec_file_is_load_error(self, tmp_path):
        assert main(["synth", str(tmp_path / "none.json"), "--output", str(tmp_path / "x.qvol")]) == EXIT_LOAD


class TestEstimate:
    def test_report_to_stdout(self, const_container, capsys):
        assert main(["estimate", str(const_container)]) == EXIT_OK
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["schema"] == REPORT_SCHEMA
        assert report["threshold"]["no_object"] is True
        assert report["noise"]["snr"] == 0.0
        assert "WARNING" in captured.err

    def test_disk_report_values(self, disk_container, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["estimate", str(disk_container), "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["threshold"]["no_object"] is False
        assert report["noise"]["sigma"] == pytest.approx(100.0, rel=0.05)
        assert report["noise"]["snr"] > 0
        assert report["quality_score"]["snr_normalized"] == report["quality_score"]["snr_measured"]
        assert report["input"]["dims"] == [48, 48, 12]
        assert len(report["noise"]["per_slice_sigma"]) == 12

    def test_flags_echoed_in_report(self, disk_container, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "estimate",
                str(disk_container),
                "--t-start",
                "30",
                "--epsilon",
                "5",
                "--grid-step",
                "0.5",
                "--correction-factor",
                "1.5264",
                "--search-mode",
                "exhaustive",
                "--ref-resolution",
                "2.0",
                "--exponent-m",
                "1.4",
                "--output",
                str(out),
            ]
        )
        assert code == EXIT_OK
        cfgs = json.loads(out.read_text())["config"]
        assert cfgs["t_start"] == 30.0
        assert cfgs["epsilon"] == 5.0
        assert cfgs["grid_step"] == 0.5
        assert cfgs["correction_factor"] == 1.5264
        assert cfgs["search_mode"] == "exhaustive"
        score = json.loads(out.read_text())["quality_score"]
        assert score["reference_resolution_mm"] == 2.0
        assert score["exponent_m"] == 1.4

    def test_report_reproducible_byte_identical(self, disk_container, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["estimate", str(disk_container), "--output", str(out1)]) == EXIT_OK
        assert main(["estimate", str(disk_container), "--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_input_is_load_error(self, tmp_path, capsys):
        assert main(["estimate", str(tmp_path / "none.qvol")]) == EXIT_LOAD
        assert "cannot load" in capsys.readouterr().err

    def test_malformed_container_is_load_error(self, tmp_path):
        bad = tmp_path / "bad.qvol"
        bad.write_bytes(b"not a container\n1234")
        assert main(["estimate", str(bad)]) == EXIT_LOAD

    def test_all_zero_volume_is_estimation_error(self, tmp_path, capsys):
        from qbench import Volume

        zero = Volume.from_array(np.zeros((2, 4, 4)))
        path = tmp_path / "zero.qvol"
        write_container(path, zero, dtype="u16")
        assert main(["estimate", str(path)]) == EXIT_ESTIMATION
        assert "estimation failed" in capsys.readouterr().err


class TestCurve:
    def test_full_run_writes_report_and_csv(self, const_container, tmp_path):
        out = tmp_path / "curve.json"
        code = main(["curve", str(const_container), "--factors", "1,1.5,2", "--output", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert len(report["resolution_curve"]["points"]) == 3
        assert report["resolution_curve"]["gradient_m"] > 0
        csv_path = out.with_suffix(".csv")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "resolution_mm,noise,snr"
        assert len(lines) == 4

    @pytest.mark.parametrize("factors, calls", [("1,1.5,2,3", 4), ("1.5,2", 3)])
    def test_input_volume_is_estimated_once(self, const_container, tmp_path, monkeypatch, factors, calls):
        from qbench import cli, noise, resolution

        made = []
        counted = lambda v, cfg: made.append(v) or noise.estimate(v, cfg)  # noqa: E731
        monkeypatch.setattr(cli, "estimate", counted)
        monkeypatch.setattr(resolution, "estimate", counted)
        out = tmp_path / "c.json"
        assert main(["curve", str(const_container), "--factors", factors, "--output", str(out)]) == EXIT_OK
        assert len(made) == calls

    def test_single_factor_is_usage_error(self, const_container, tmp_path, capsys):
        code = main(["curve", str(const_container), "--factors", "2", "--output", str(tmp_path / "c.json")])
        assert code == EXIT_USAGE
        assert "at least 2" in capsys.readouterr().err

    def test_bad_factor_value_is_usage_error(self, const_container, tmp_path):
        code = main(["curve", str(const_container), "--factors", "1,abc", "--output", str(tmp_path / "c.json")])
        assert code == EXIT_USAGE


class TestPgmInputWarning:
    def test_pgm_stack_warning_lands_in_report(self, tmp_path, capsys):
        vol = generate(PhantomSpec(width=16, height=16, n_slices=3, background_value=300.0, sigma=60.0, seed=5, quantize=True))
        stack = tmp_path / "stack"
        stack.mkdir()
        for i, pixels in enumerate(vol.data):
            img = pixels.astype(">u2")
            header = f"P5\n16 16\n65535\n".encode()
            (stack / f"s{i}.pgm").write_bytes(header + img.tobytes())
        assert main(["estimate", str(stack)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["input"]["format"] == "pgm-stack"
        assert any("voxel size" in w for w in report["warnings"])
