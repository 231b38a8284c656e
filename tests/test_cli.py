import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbench
from qbench import PhantomObject, PhantomSpec, SearchConfig, Volume, generate, load_volume, write_container
from qbench import cli, qvol, report, resolution
from qbench.cli import EXIT_ESTIMATION, EXIT_INTERNAL, EXIT_LOAD, EXIT_OK, EXIT_USAGE, main
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

    def test_quantized_pixel_beyond_u16_is_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        disk = {"shape": "disk", "center": [24, 24], "radius": 10, "value": 70000.0}
        write_spec(spec_path, background_value=0.0, objects=[disk])
        out = tmp_path / "vol.qvol"
        assert main(["synth", str(spec_path), "--output", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"qbench: {spec_path}: ") and err.count("\n") == 1 and "65535" in err
        assert list(tmp_path.iterdir()) == [spec_path]

    def test_pixel_beyond_float32_is_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, background_value=1e39, quantize=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["synth", str(spec_path), "--output", str(tmp_path / "vol.qvol")]) == EXIT_USAGE
        assert caught == []
        err = capsys.readouterr().err
        assert err == f"qbench: {spec_path}: f32 container requires pixel values within the float32 range\n"
        assert list(tmp_path.iterdir()) == [spec_path]

    @pytest.mark.parametrize(
        "field, value",
        [("voxel_size_mm", [float("nan"), 1.0, 1.0]), ("sigma", float("nan")), ("background_value", float("inf"))],
        ids=["voxel_size_mm-nan", "sigma-nan", "background_value-inf"],
    )
    def test_non_finite_spec_value_is_usage_error(self, tmp_path, capsys, field, value):
        # json writes NaN and Infinity, and reads them back
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, **{field: value})
        out = tmp_path / "x.qvol"
        assert main(["synth", str(spec_path), "--output", str(out)]) == EXIT_USAGE
        assert "invalid phantom spec" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"voxel_size_mm": "123"},
            {"quantize": "false"},
            {"objects": [{"shape": "disk", "center": "88", "radius": 2, "value": 500.0}]},
            {"objects": [{"shape": "rect", "center": [24, 24], "size": "46", "value": 500.0}]},
            {"width": 32.7},
            {"seed": 1.9},
            {"n_slices": "4"},
        ],
        ids=["voxel_size_mm-string", "quantize-string", "center-string", "size-string", "width-float", "seed-float", "n_slices-string"],
    )
    def test_spec_value_of_the_wrong_json_type_is_usage_error(self, tmp_path, capsys, overrides):
        # a string is not read as its characters, a float not truncated, a string not read as a bool
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, **overrides)
        out = tmp_path / "x.qvol"
        assert main(["synth", str(spec_path), "--output", str(out)]) == EXIT_USAGE
        assert "must be a JSON" in capsys.readouterr().err
        assert not out.exists()

    def test_spec_that_is_not_json_is_usage_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text("{width: 48")
        out = tmp_path / "x.qvol"
        assert main(["synth", str(spec_path), "--output", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"qbench: {spec_path}: invalid JSON: ") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_spec_file_is_load_error(self, tmp_path):
        assert main(["synth", str(tmp_path / "none.json"), "--output", str(tmp_path / "x.qvol")]) == EXIT_LOAD


def unwritable_outputs(tmp_path):
    """An output in a directory that does not exist, and one that is an existing directory."""
    taken = tmp_path / "taken"
    taken.mkdir()
    return [tmp_path / "missing" / "r.json", taken]


class TestUnwritableOutput:
    """An output that cannot be written is an I/O error, not a load error,
    and leaves no temp file beside the target."""

    def assert_io_error(self, argv, tmp_path, capsys, before):
        assert main(argv) == EXIT_LOAD
        assert capsys.readouterr().err.startswith("qbench: I/O error: ")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", [["estimate"], ["curve", "--factors", "1,2"]])
    def test_estimate_and_curve(self, disk_container, tmp_path, capsys, command):
        for out in unwritable_outputs(tmp_path):
            before = sorted(tmp_path.rglob("*"))
            self.assert_io_error([command[0], str(disk_container), *command[1:], "--output", str(out)], tmp_path, capsys, before)

    @pytest.mark.parametrize("command", [["estimate"], ["curve", "--factors", "1,2"]])
    def test_found_before_the_input_is_read(self, disk_container, tmp_path, monkeypatch, capsys, command):
        """The target, and for ``curve`` the CSV sidecar beside it, is checked
        before the input is read: nothing is estimated, and the message names
        the path that cannot be written, not a temp file."""
        monkeypatch.setattr(cli, "estimate", lambda *a, **k: pytest.fail("estimated"))
        monkeypatch.setattr(cli, "read_input", lambda *a: pytest.fail("read the input"))
        targets = {out: out for out in unwritable_outputs(tmp_path)}
        if command[0] == "curve":
            (tmp_path / "sidecar.csv").mkdir()
            targets[tmp_path / "sidecar.json"] = tmp_path / "sidecar.csv"
        for out, named in targets.items():
            argv = [command[0], str(disk_container), *command[1:], "--output", str(out)]
            assert main(argv) == EXIT_LOAD
            assert capsys.readouterr().err.startswith(f"qbench: I/O error: {named}: ")

    def test_directory_not_writable(self, disk_container, tmp_path, monkeypatch, capsys):
        # os.access grants root write access to every directory, so the denial is patched in
        locked = tmp_path / "locked"
        locked.mkdir()
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: Path(path) != locked and access(path, mode))
        assert main(["estimate", str(disk_container), "--output", str(locked / "r.json")]) == EXIT_LOAD
        err = capsys.readouterr().err
        assert err.startswith("qbench: I/O error: ") and f"directory not writable: {locked}" in err
        assert not list(locked.iterdir())

    @pytest.mark.parametrize("command", [["estimate"], ["curve", "--factors", "1,2"]])
    def test_output_under_a_file(self, disk_container, tmp_path, capsys, command):
        afile = tmp_path / "afile"
        afile.write_bytes(b"")
        argv = [command[0], str(disk_container), *command[1:], "--output", str(afile / "r.json")]
        assert main(argv) == EXIT_LOAD
        assert capsys.readouterr().err == f"qbench: I/O error: {afile / 'r.json'}: not a directory: {afile}\n"
        assert afile.read_bytes() == b""

    def test_synth(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path)
        for out in unwritable_outputs(tmp_path):
            before = sorted(tmp_path.rglob("*"))
            self.assert_io_error(["synth", str(spec_path), "--output", str(out)], tmp_path, capsys, before)


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
        score = json.loads(out.read_text())["quality_score"]
        assert score["reference_resolution_mm"] == 2.0
        assert score["exponent_m"] == 1.4

    def test_one_parser_per_process_keeps_no_flag_between_runs(self, disk_container, tmp_path):
        assert cli._build_parser() is cli._build_parser()
        out, curve_out = tmp_path / "r.json", tmp_path / "c.json"
        assert main(["estimate", str(disk_container), "--t-start", "80", "--output", str(out)]) == EXIT_OK
        assert main(["curve", str(disk_container), "--factors", "1,2", "--output", str(curve_out)]) == EXIT_OK
        assert json.loads(out.read_text())["config"]["t_start"] == 80.0
        assert json.loads(curve_out.read_text())["config"]["t_start"] == SearchConfig.t_start == 40.0

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

    @pytest.mark.parametrize("command", [["estimate"], ["curve", "--factors", "1,2"]])
    @pytest.mark.parametrize("voxel", ["nan", "inf"])
    def test_non_finite_voxel_size_is_load_error(self, const_container, tmp_path, capsys, command, voxel):
        raw = const_container.read_bytes().replace(b"voxel_size_mm=1.0,", f"voxel_size_mm={voxel},".encode(), 1)
        bad = tmp_path / "bad.qvol"
        bad.write_bytes(raw)
        assert main([command[0], str(bad), *command[1:], "--output", str(tmp_path / "r.json")]) == EXIT_LOAD
        assert "voxel_size_mm must be three finite positive reals" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("estimate", "--ref-resolution", "0"),
            ("estimate", "--ref-resolution", "-1"),
            ("curve", "--ref-resolution", "inf"),
            ("estimate", "--exponent-m", "nan"),
            ("curve", "--t-start", "inf"),
            ("estimate", "--epsilon", "nan"),
        ],
    )
    def test_bad_number_flag_is_usage_error_before_loading(self, tmp_path, capsys, command, flag, value):
        # the input does not exist: a usage error proves the check runs first
        argv = [command, str(tmp_path / "none.qvol"), f"{flag}={value}"]
        if command == "curve":
            argv += ["--factors", "1,2", "--output", str(tmp_path / "c.json")]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("qbench: ") and err.count("\n") == 1

    def test_search_over_the_step_cap_is_estimation_error(self, disk_container, capsys):
        assert main(["estimate", str(disk_container), "--grid-step", "1e-6"]) == EXIT_ESTIMATION
        err = capsys.readouterr().err
        assert err.startswith("qbench: estimation failed: ") and err.count("\n") == 1
        assert "over the cap" in err

    def test_float_volume_beyond_two_to_the_twenty_estimates_at_default_flags(self, tmp_path):
        spec_path, volume, out = tmp_path / "bright.json", tmp_path / "bright.qvol", tmp_path / "report.json"
        disk = {"shape": "disk", "center": [24, 24], "radius": 14, "value": 1.2e6}
        write_spec(spec_path, background_value=0.0, objects=[disk], sigma=90000.0, quantize=False)
        assert main(["synth", str(spec_path), "--output", str(volume)]) == EXIT_OK
        assert main(["estimate", str(volume), "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["input"]["intensity_max"] > 2**20 and not report["threshold"]["no_object"]

    def test_tiny_epsilon_snaps_to_one_grid_step(self, disk_container, tmp_path):
        reports = []
        for epsilon in ("1e-6", "1"):
            out = tmp_path / f"eps-{epsilon}.json"
            assert main(["estimate", str(disk_container), "--epsilon", epsilon, "--output", str(out)]) == EXIT_OK
            reports.append(json.loads(out.read_text()))
        assert reports[0]["config"]["epsilon"] == 1e-6
        assert reports[0]["threshold"] == reports[1]["threshold"]

    def test_all_zero_slice_is_skipped_with_a_warning(self, tmp_path, capsys):
        spec = PhantomSpec(
            width=64, height=64, n_slices=8, sigma=100.0, seed=3, quantize=True,
            objects=(PhantomObject("disk", (32, 32), 20, 1000.0),),
        )
        data = generate(spec).data.copy()
        data[3] = 0
        path, out = tmp_path / "vol.qvol", tmp_path / "r.json"
        write_container(path, Volume.from_array(data), dtype="u16")
        assert main(["estimate", str(path), "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        sigmas = report["noise"]["per_slice_sigma"]
        assert sigmas[3] is None and all(v is not None for i, v in enumerate(sigmas) if i != 3)
        assert report["noise"]["skipped_slices"] == 1 and not report["threshold"]["no_object"]
        assert "1 slice(s) kept no positive pixel at t_opt and were skipped in the noise mean" in report["warnings"]

    def test_all_zero_volume_is_estimation_error(self, tmp_path, capsys):
        from qbench import Volume

        zero = Volume.from_array(np.zeros((2, 4, 4)))
        path = tmp_path / "zero.qvol"
        write_container(path, zero, dtype="u16")
        assert main(["estimate", str(path)]) == EXIT_ESTIMATION
        assert "estimation failed" in capsys.readouterr().err


class TestInternalError:
    @pytest.mark.parametrize("command", [["estimate"], ["curve", "--factors", "1,2"]])
    def test_unexpected_exception_is_one_line_without_traceback(
        self, disk_container, tmp_path, monkeypatch, capsys, command
    ):
        def fail(*args, **kwargs):
            raise RuntimeError("scan\nfailed")

        # ``curve`` estimates inside the curve, on its worker thread
        monkeypatch.setattr(resolution if command[0] == "curve" else cli, "estimate", fail)
        output = tmp_path / "r.json"
        argv = [command[0], str(disk_container), *command[1:], "--output", str(output)]
        assert main(argv) == EXIT_INTERNAL
        assert capsys.readouterr().err == "qbench: internal error: RuntimeError: scan failed\n"
        assert not output.exists()


class TestHashingThread:
    """``estimate`` and ``curve`` each start one worker thread, which every
    exit joins. ``estimate`` hashes the input on it; ``curve`` hashes on the
    calling thread after its last downsample, while the curve's worker
    estimates and carries the mask."""

    @staticmethod
    def raise_runtime_error(*args, **kwargs):
        raise RuntimeError("scan\nfailed")

    @pytest.mark.parametrize(
        "case, code",
        [("estimate", EXIT_OK), ("curve", EXIT_OK), ("truncated", EXIT_LOAD), ("step-cap", EXIT_ESTIMATION), ("raises", EXIT_INTERNAL)],
    )
    def test_no_thread_outlives_main(self, disk_container, tmp_path, monkeypatch, case, code):
        path, extra = disk_container, []
        if case == "curve":
            extra = ["--factors", "1,2"]
        elif case == "truncated":
            path = tmp_path / "cut.qvol"
            path.write_bytes(disk_container.read_bytes()[:-100])
        elif case == "step-cap":
            extra = ["--grid-step", "1e-6"]
        elif case == "raises":
            monkeypatch.setattr(cli, "estimate", self.raise_runtime_error)
        command = "curve" if case == "curve" else "estimate"
        before = set(threading.enumerate())
        assert main([command, str(path), *extra, "--output", str(tmp_path / "r.json")]) == code
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("command", ["estimate", "curve"])
    def test_exception_on_the_hashing_thread_is_one_line_internal_error(self, disk_container, tmp_path, monkeypatch, capsys, command):
        hashing = []

        def fail(*args):
            hashing.append(threading.current_thread())
            self.raise_runtime_error()

        # ``estimate`` hashes through ``report.input_digest``, ``curve`` calls the hash itself
        monkeypatch.setattr(report, "input_sha256", fail)
        monkeypatch.setattr(cli, "input_sha256", fail)
        output = tmp_path / "r.json"
        extra = ["--factors", "1,2"] if command == "curve" else []
        before = set(threading.enumerate())
        assert main([command, str(disk_container), *extra, "--output", str(output)]) == EXIT_INTERNAL
        assert set(threading.enumerate()) == before
        assert capsys.readouterr().err == "qbench: internal error: RuntimeError: scan failed\n"
        assert len(hashing) == 1 and (hashing[0] is threading.main_thread()) == (command == "curve")
        assert not output.exists()

    def test_a_failed_curve_supersedes_a_failed_hash(self, disk_container, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "input_sha256", self.raise_runtime_error)
        argv = ["curve", str(disk_container), "--factors", "1,2", "--grid-step", "1e-6", "--output", str(tmp_path / "r.json")]
        assert main(argv) == EXIT_ESTIMATION
        assert capsys.readouterr().err.startswith("qbench: estimation failed: ")

    @pytest.mark.parametrize("command", ["estimate", "curve"])
    def test_an_op_starts_one_thread(self, disk_container, tmp_path, monkeypatch, command):
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        extra = ["--factors", "1,1.5,2"] if command == "curve" else []
        assert main([command, str(disk_container), *extra, "--output", str(tmp_path / "r.json")]) == EXIT_OK
        assert len(started) == 1

    def test_curve_hashes_on_the_caller_after_its_last_downsample(self, disk_container, tmp_path, monkeypatch):
        events = []
        estimate, carry, downsample, input_sha256 = resolution.estimate, resolution._carry, resolution.downsample, cli.input_sha256

        def traced(name, fn):
            def call(*args):
                result = fn(*args)
                events.append((name, threading.current_thread()))
                return result

            return call

        monkeypatch.setattr(resolution, "estimate", traced("estimate", estimate))
        monkeypatch.setattr(resolution, "_carry", traced("carry", carry))
        monkeypatch.setattr(resolution, "downsample", traced("downsample", downsample))
        monkeypatch.setattr(cli, "input_sha256", traced("hash", input_sha256))
        output = tmp_path / "r.json"
        assert main(["curve", str(disk_container), "--factors", "1,1.5,2,3", "--output", str(output)]) == EXIT_OK
        caller = [name for name, thread in events if thread is threading.main_thread()]
        worker = [name for name, thread in events if thread is not threading.main_thread()]
        assert caller == ["downsample", "downsample", "downsample", "hash"]
        assert worker == ["estimate", "carry", "carry", "carry"]
        assert len({thread for _, thread in events}) == 2
        assert json.loads(output.read_text())["input"]["sha256"] == hashlib.sha256(disk_container.read_bytes()).hexdigest()

    def test_pgm_stack_report_hashes_names_and_bytes(self, tmp_path, capsys):
        vol = generate(PhantomSpec(width=16, height=12, n_slices=3, background_value=300.0, sigma=60.0, seed=5, quantize=True))
        stack = tmp_path / "stack"
        stack.mkdir()
        expected = hashlib.sha256()
        for i, pixels in enumerate(vol.data):
            raw = b"P5\n16 12\n65535\n" + pixels.astype(">u2").tobytes()
            (stack / f"s{i}.pgm").write_bytes(raw)
            expected.update(f"s{i}.pgm".encode() + b"\x00" + raw)
        assert main(["estimate", str(stack)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["input"]["sha256"] == expected.hexdigest()

    def test_pgm_stack_with_a_name_that_is_not_utf8_hashes_the_stored_name(self, tmp_path, capsys):
        # b"\xff" is no UTF-8 byte; Python holds the name as a surrogate escape
        stack = tmp_path / "stack"
        stack.mkdir()
        expected = hashlib.sha256()
        for name in (b"s00.pgm", b"s01\xff.pgm"):
            raw = b"P5\n4 3\n255\n" + bytes(range(12))
            (stack / os.fsdecode(name)).write_bytes(raw)
            expected.update(name + b"\x00" + raw)
        assert sorted(os.listdir(os.fsencode(stack))) == [b"s00.pgm", b"s01\xff.pgm"]
        assert main(["estimate", str(stack)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["input"]["sha256"] == expected.hexdigest()


class TestWarningsAreLeftAlone:
    """A run reads no warning of the process and leaves its warning machinery as it was."""

    def test_another_threads_warning_during_the_load_is_not_in_the_report(self, disk_container, monkeypatch, capsys):
        loading, warned = threading.Event(), threading.Event()
        real_load = cli.load_volume

        def load_volume(*args):
            loading.set()
            assert warned.wait(30)
            return real_load(*args)

        def warn():
            loading.wait()
            warnings.warn("raised by another thread")
            warned.set()

        monkeypatch.setattr(cli, "load_volume", load_volume)
        other = threading.Thread(target=warn)
        other.start()
        with pytest.warns(UserWarning, match="another thread"):
            assert main(["estimate", str(disk_container)]) == EXIT_OK
        other.join()
        report = json.loads(capsys.readouterr().out)
        assert not any("another thread" in w for w in report["warnings"])

    def test_overlapping_runs_leave_the_warning_machinery_as_they_found_it(self, disk_container, tmp_path, monkeypatch):
        # run a loads, run b loads, a finishes its load, then b does
        second = tmp_path / "second.qvol"
        second.write_bytes(disk_container.read_bytes())
        a_loading, b_loading, a_loaded = threading.Event(), threading.Event(), threading.Event()
        real_load, real_estimate = cli.load_volume, cli.estimate

        def load_volume(path, read):
            if Path(path) == second:
                b_loading.set()
                assert a_loaded.wait(30)
            else:
                a_loading.set()
                assert b_loading.wait(30)
            return real_load(path, read)

        def estimate(*args):
            a_loaded.set()  # run a estimates once its load has returned
            return real_estimate(*args)

        def run_b():
            a_loading.wait()
            codes.append(main(["estimate", str(second), "--output", str(tmp_path / "b.json")]))

        monkeypatch.setattr(cli, "load_volume", load_volume)
        monkeypatch.setattr(cli, "estimate", estimate)
        filters, show = list(warnings.filters), warnings._showwarnmsg_impl
        codes = []
        b = threading.Thread(target=run_b)
        b.start()
        codes.append(main(["estimate", str(disk_container), "--output", str(tmp_path / "a.json")]))
        b.join()
        assert codes == [EXIT_OK, EXIT_OK]
        assert warnings.filters == filters
        assert warnings._showwarnmsg_impl is show
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


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

    @pytest.mark.parametrize("name", ["out.csv", "out.CSV", "out.json.Csv"])
    def test_csv_output_is_usage_error_before_loading(self, const_container, tmp_path, monkeypatch, capsys, name):
        """An output ending in .csv would be its own CSV sidecar, which would
        overwrite the report: it is rejected before the input is read, and
        nothing is written."""
        monkeypatch.setattr(cli, "read_input", lambda *a: pytest.fail("read the input"))
        before = sorted(tmp_path.rglob("*"))
        argv = ["curve", str(const_container), "--factors", "1,1.5,2", "--output", str(tmp_path / name)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"qbench: --output {tmp_path / name} ends in .csv") and err.count("\n") == 1
        assert sorted(tmp_path.rglob("*")) == before

    def test_output_without_suffix_writes_report_and_csv(self, const_container, tmp_path):
        out = tmp_path / "r"
        assert main(["curve", str(const_container), "--factors", "1,1.5,2", "--output", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["resolution_curve"]["gradient_m"] > 0
        assert (tmp_path / "r.csv").read_text().startswith("resolution_mm,noise,snr\n")

    @pytest.mark.parametrize("factors, calls", [("1,1.5,2,3", 4), ("1.5,2", 3)])
    def test_input_volume_is_estimated_once(self, const_container, tmp_path, monkeypatch, factors, calls):
        """One estimate, of the input volume, and one downsample per other
        factor: ``calls`` volumes in all."""
        from qbench import cli, noise, resolution

        estimated, made, downsample = [], [], resolution.downsample
        counted = lambda v, cfg: estimated.append(v) or noise.estimate(v, cfg)  # noqa: E731
        monkeypatch.setattr(cli, "estimate", counted)
        monkeypatch.setattr(resolution, "estimate", counted)
        monkeypatch.setattr(resolution, "downsample", lambda v, f: made.append(f) or downsample(v, f))
        out = tmp_path / "c.json"
        assert main(["curve", str(const_container), "--factors", factors, "--output", str(out)]) == EXIT_OK
        assert len(estimated) == 1 and len(estimated) + len(made) == calls

    @pytest.mark.parametrize(
        "case, code",
        [("success", EXIT_OK), ("full-fails", EXIT_ESTIMATION), ("factor-fails", EXIT_OK), ("raises", EXIT_INTERNAL)],
    )
    def test_no_thread_outlives_main(self, const_container, tmp_path, monkeypatch, capsys, case, code):
        """The curve's estimates run on a worker thread, which every exit joins."""
        factors, extra = "1,1.5,2", []
        if case == "full-fails":
            extra = ["--grid-step", "1e-6"]
        elif case == "factor-fails":
            factors = "1,1.5,100"  # 100 collapses every axis
        elif case == "raises":
            monkeypatch.setattr(resolution, "estimate", TestHashingThread.raise_runtime_error)
        out = tmp_path / "c.json"
        before = set(threading.enumerate())
        assert main(["curve", str(const_container), "--factors", factors, *extra, "--output", str(out)]) == code
        assert set(threading.enumerate()) == before
        err = capsys.readouterr().err
        if case == "factor-fails":
            assert [f["factor"] for f in json.loads(out.read_text())["resolution_curve"]["failures"]] == [100.0]
        elif case == "raises":
            assert err == "qbench: internal error: RuntimeError: scan failed\n"
        elif case == "full-fails":
            assert err.startswith("qbench: estimation failed: ")

    def test_collapsed_curve_is_estimation_error_naming_the_factor(self, const_container, tmp_path, capsys):
        # 100 collapses the 12 slices of the volume, so one point survives
        out = tmp_path / "c.json"
        assert main(["curve", str(const_container), "--factors", "1,100", "--output", str(out)]) == EXIT_ESTIMATION
        err = capsys.readouterr().err
        assert err.startswith("qbench: estimation failed: resolution curve collapsed: only 1 usable points")
        assert "factor 100.0 collapses axis 0 (size 12) to zero" in err and err.count("\n") == 1
        assert not out.exists()

    def test_constant_volume_has_no_positive_noise(self, tmp_path, monkeypatch, capsys):
        # its full-resolution noise is 0, and a resampled noise would be the
        # rounding of the filter's weight sums: the curve ends before any fit
        fitted = []
        monkeypatch.setattr(resolution, "fit_power_law", lambda *args: fitted.append(args))
        constant = Volume.from_array(np.full((12, 16, 16), 500.0))
        out = tmp_path / "c.json"
        for dtype in ("u16", "f32", "f64"):
            path = tmp_path / f"const-{dtype}.qvol"
            write_container(path, constant, dtype="u16" if dtype == "u16" else "f32")
            with monkeypatch.context() as m:
                if dtype == "f64":
                    m.setattr(qvol, "Volume", _WideningLoader)
                assert load_volume(path).data.dtype == {"u16": np.uint16, "f32": np.float32, "f64": np.float64}[dtype]
                for factors in ("1,1.5,3", "1,2", "1,1.5,2,3"):
                    assert main(["curve", str(path), "--factors", factors, "--output", str(out)]) == EXIT_ESTIMATION
                    err = capsys.readouterr().err
                    assert err == "qbench: estimation failed: resolution curve has no noise to measure: the full-resolution noise 0.0 is not positive\n"
        assert fitted == [] and not out.exists() and not out.with_suffix(".csv").exists()

    def test_single_factor_is_usage_error(self, const_container, tmp_path, capsys):
        code = main(["curve", str(const_container), "--factors", "2", "--output", str(tmp_path / "c.json")])
        assert code == EXIT_USAGE
        assert "at least 2" in capsys.readouterr().err

    def test_bad_factor_value_is_usage_error(self, const_container, tmp_path):
        code = main(["curve", str(const_container), "--factors", "1,abc", "--output", str(tmp_path / "c.json")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("factors", ["1,1", "1,2,2"])
    def test_repeated_factor_is_usage_error_before_loading(self, tmp_path, capsys, factors):
        # the input does not exist: a usage error proves the check runs first
        code = main(["curve", str(tmp_path / "none.qvol"), "--factors", factors, "--output", str(tmp_path / "c.json")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "qbench: --factors must not repeat a value\n"

    @pytest.mark.parametrize("factors", ["1,nan", "1,inf", "1,-inf"])
    def test_non_finite_factor_is_usage_error_before_loading(self, tmp_path, capsys, factors):
        # at 1,nan and 1,inf the curve used to fail only after a full estimate (exit 4)
        code = main(["curve", str(tmp_path / "none.qvol"), "--factors", factors, "--output", str(tmp_path / "c.json")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "qbench: --factors must all be finite\n"


def one_line_error(capsys) -> str:
    """The stderr of the last run: one ``qbench:`` line that is no internal error."""
    err = capsys.readouterr().err
    assert err.startswith("qbench: ") and err.count("\n") == 1 and "internal error" not in err
    return err


def with_voxel_size(container, tmp_path, voxel: str):
    path = tmp_path / "voxel.qvol"
    path.write_bytes(container.read_bytes().replace(b"voxel_size_mm=1.0,1.0,1.0", f"voxel_size_mm={voxel}".encode(), 1))
    return path


class TestBeyondTheFloatRange:
    """Finite inputs and flags whose products overflow or underflow end in a
    named error, not in an internal one after the whole analysis."""

    @pytest.mark.parametrize("command", [["estimate"], ["curve", "--factors", "1,2"]])
    @pytest.mark.parametrize("voxel", ["1e300,1e300,1e300", "1e-300,1e-300,1e-300"])
    def test_container_voxel_volume_is_load_error(self, const_container, tmp_path, capsys, command, voxel):
        bad = with_voxel_size(const_container, tmp_path, voxel)
        assert main([command[0], str(bad), *command[1:], "--output", str(tmp_path / "r.json")]) == EXIT_LOAD
        assert "has a voxel volume of" in one_line_error(capsys)

    @pytest.mark.parametrize("voxel", [[1e300, 1e300, 1e300], [1e-300, 1e-300, 1e-300]])
    def test_spec_voxel_volume_is_usage_error(self, tmp_path, capsys, voxel):
        spec_path = tmp_path / "spec.json"
        write_spec(spec_path, voxel_size_mm=voxel)
        out = tmp_path / "x.qvol"
        assert main(["synth", str(spec_path), "--output", str(out)]) == EXIT_USAGE
        assert "has a voxel volume of" in one_line_error(capsys)
        assert not out.exists()

    def test_downsampled_voxel_volume_is_a_curve_failure(self, disk_container, tmp_path):
        # (4e102 mm)^3 is finite, and so is its edge at factor 1.2; at factor 2 the voxel volume overflows
        path = with_voxel_size(disk_container, tmp_path, "4e102,4e102,4e102")
        out = tmp_path / "c.json"
        assert main(["curve", str(path), "--factors", "1,1.2,2", "--output", str(out)]) == EXIT_OK
        curve = json.loads(out.read_text())["resolution_curve"]
        assert len(curve["points"]) == 2
        [failure] = curve["failures"]
        assert failure["factor"] == 2.0 and "has a voxel volume of inf" in failure["reason"]

    @pytest.mark.parametrize("command", [["estimate"], ["curve", "--factors", "1,2"]])
    def test_projected_snr_overflow_is_usage_error(self, disk_container, tmp_path, capsys, command):
        out = tmp_path / "r.json"
        argv = [command[0], str(disk_container), *command[1:], "--exponent-m", "400", "--ref-resolution", "1e3", "--output", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "projects beyond the float range" in one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("command", [["estimate"], ["curve", "--factors", "1,2"]])
    @pytest.mark.parametrize("factor, figure", [("1e308", "sigma inf"), ("1e-320", "SNR inf")])
    def test_non_finite_sigma_or_snr_is_estimation_error(self, disk_container, tmp_path, capsys, command, factor, figure):
        out = tmp_path / "r.json"
        argv = [command[0], str(disk_container), *command[1:], "--correction-factor", factor, "--output", str(out)]
        assert main(argv) == EXIT_ESTIMATION
        err = one_line_error(capsys)
        assert err.startswith("qbench: estimation failed: ") and figure in err
        assert not out.exists()

    def test_a_factor_whose_snr_overflows_is_a_curve_failure(self, disk_container, tmp_path):
        # a correction factor between the two that take the factor-1.5 SNR and
        # the factor-2 SNR beyond the float range; the SNR grows as the noise
        # falls with the resolution, so the factor-1 SNR stays finite
        curve = resolution.noise_resolution_curve(load_volume(disk_container), [1.5, 2])
        lower, highest = (p.snr for p in curve.points)
        assert lower < highest
        top = sys.float_info.max
        factor = math.sqrt(lower / top) * math.sqrt(highest / top) * SearchConfig().correction_factor
        out = tmp_path / "c.json"
        argv = ["curve", str(disk_container), "--factors", "1,1.5,2", "--correction-factor", repr(factor), "--output", str(out)]
        assert main(argv) == EXIT_OK
        [failure] = json.loads(out.read_text())["resolution_curve"]["failures"]
        assert failure["factor"] == 2.0 and "SNR inf" in failure["reason"]


class _WideningLoader:
    """Stands in for ``Volume`` in ``qvol``: hands every loaded volume over as a float64 copy."""

    @staticmethod
    def from_array(data, voxel_size):
        return Volume.from_array(np.asarray(data, dtype=np.float64), voxel_size)


class TestFloat32Containers:
    """An f32 container loads as a float32 volume. Its estimate report is
    that of its float64 copy, and its curve that copy's within the float32
    resampling's bound: each noise and SNR within 1e-6 relative, the fit
    within 1e-6. For integral samples its reports are those of the u16
    container, byte for byte apart from the digest."""

    @staticmethod
    def outputs(directory, container):
        """Report bytes of ``estimate`` and ``curve`` on the container, and the curve CSV."""
        texts = []
        for command in ("estimate", "curve"):
            out = directory / f"{container.stem}-{command}.json"
            argv = [command, str(container), "--output", str(out)]
            assert main(argv + (["--factors", "1,1.5,2"] if command == "curve" else [])) == EXIT_OK
            texts.append(out.read_text())
        return texts + [out.with_suffix(".csv").read_text()]

    @staticmethod
    def assert_curve_within_bound(texts, wide):
        """The outputs ``texts`` equal ``wide``'s, apart from the curve floats, which lie within the bound."""
        assert texts[0] == wide[0]
        report, wide_report = json.loads(texts[1]), json.loads(wide[1])
        curve, exact = report.pop("resolution_curve"), wide_report.pop("resolution_curve")
        assert report == wide_report and curve["failures"] == exact["failures"]
        for key in ("gradient_m", "residual"):
            assert curve[key] == pytest.approx(exact[key], rel=0, abs=1e-6)
        assert curve["y0"] == pytest.approx(exact["y0"], rel=1e-6, abs=0)
        rows = [[p["resolution_mm"], p["noise"], p["snr"]] for p in curve["points"]]
        exact_rows = [[p["resolution_mm"], p["noise"], p["snr"]] for p in exact["points"]]
        csv = [[float(v) for v in line.split(",")] for line in texts[2].splitlines()[1:]]
        assert csv == rows and texts[2].splitlines()[0] == wide[2].splitlines()[0]
        for (r, noise, snr), (r_exact, noise_exact, snr_exact) in zip(rows, exact_rows, strict=True):
            assert r == r_exact and noise == pytest.approx(noise_exact, rel=1e-6, abs=0) and snr == pytest.approx(snr_exact, rel=1e-6, abs=0)

    @staticmethod
    def without_digest(texts):
        reports = [json.loads(t) for t in texts[:2]]
        for report in reports:
            del report["input"]["sha256"]
        return reports, texts[2]

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), sigma=st.sampled_from([4.0, 90.0, 2500.0]), has_object=st.booleans())
    def test_f32_reports_equal_the_float64_and_u16_reports(self, seed, sigma, has_object):
        objects = [{"shape": "disk", "center": [16, 16], "radius": 9, "value": 12.0 * sigma}] if has_object else []
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            for quantize in (False, True):
                spec = directory / "spec.json"
                shape = dict(width=32, height=32, n_slices=8, background_value=0.0)
                write_spec(spec, **shape, objects=objects, sigma=sigma, seed=seed, quantize=quantize)
                container = directory / ("u16.qvol" if quantize else "f32.qvol")
                assert main(["synth", str(spec), "--output", str(container)]) == EXIT_OK
            u16, f32 = directory / "u16.qvol", directory / "f32.qvol"
            assert load_volume(f32).data.dtype == np.float32
            texts = self.outputs(directory, f32)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(qvol, "Volume", _WideningLoader)
                self.assert_curve_within_bound(texts, self.outputs(directory, f32))
            # the quantized phantom as f32: per-pixel bins against the u16 level fold
            quantized = directory / "quantized.qvol"
            write_container(quantized, load_volume(u16), dtype="f32")
            as_u16 = self.without_digest(self.outputs(directory, u16))
            assert self.without_digest(self.outputs(directory, quantized)) == as_u16


def write_pgm_stack(directory, volume):
    """``volume``'s integral slices as a new PGM stack ``directory``, one 16-bit file a slice."""
    directory.mkdir()
    for i, pixels in enumerate(volume.data):
        h, w = pixels.shape
        (directory / f"s{i:02d}.pgm").write_bytes(f"P5\n{w} {h}\n65535\n".encode() + pixels.astype(">u2").tobytes())


class TestPgmInputWarning:
    def test_pgm_stack_warning_lands_in_report(self, tmp_path, capsys):
        vol = generate(PhantomSpec(width=16, height=16, n_slices=3, background_value=300.0, sigma=60.0, seed=5, quantize=True))
        stack = tmp_path / "stack"
        write_pgm_stack(stack, vol)
        assert main(["estimate", str(stack)]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["input"]["format"] == "pgm-stack"
        assert any("voxel size" in w for w in report["warnings"])


class TestInputKind:
    """``qvol.read_input`` is the one code that asks the file system what
    the input is; the parse, the hash and the report's ``input.format`` take
    its answer."""

    @pytest.mark.parametrize("kind", ["qvol", "pgm-stack"])
    @pytest.mark.parametrize("command", [["estimate"], ["curve", "--factors", "1,1.5,2"]])
    def test_the_input_path_is_queried_once(self, const_container, tmp_path, monkeypatch, command, kind):
        path = const_container
        if kind == "pgm-stack":
            path = tmp_path / "stack"
            write_pgm_stack(path, load_volume(const_container))
        queried, is_dir = [], Path.is_dir

        def spy(self):
            queried.append(self)
            return is_dir(self)

        monkeypatch.setattr(Path, "is_dir", spy)
        output = tmp_path / "r.json"
        assert main([command[0], str(path), *command[1:], "--output", str(output)]) == EXIT_OK
        assert queried.count(path) == 1
        # the rest are ``check_writable``'s queries of the output paths
        assert set(queried) - {path} <= {output, output.with_suffix(".csv"), tmp_path}
        assert json.loads(output.read_text())["input"]["format"] == kind


def fresh_process(*args) -> str:
    """The stdout of a new Python process that runs ``args`` with this qbench on its path."""
    src = str(Path(qbench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=True).stdout


def test_a_fresh_import_of_the_cli_after_numpy_loads_no_queue():
    """The curve's one worker needs no queue: a new process that imports
    numpy, then ``qbench.cli``, loads neither ``queue`` nor ``heapq``."""
    code = "import sys, numpy; before = set(sys.modules); import qbench.cli; print(*sorted(set(sys.modules) - before))"
    loaded = set(fresh_process("-c", code).split())
    assert "qbench.cli" in loaded
    assert not loaded & {"queue", "_queue", "heapq", "_heapq"}


def test_a_first_curve_op_imports_no_numpy_ma(disk_container, tmp_path):
    """A process's first ``curve`` op leaves ``numpy.ma`` unimported: its
    first import took 7.7-10.1 ms, when ``fit_power_law`` called ``np.unique``."""
    code = (
        "import sys; from qbench.cli import main; "
        "rc = main(['curve', sys.argv[1], '--factors', '1,1.5,2,3', '--output', sys.argv[2]]); "
        "print(rc, 'numpy.ma' in sys.modules)"
    )
    output = tmp_path / "curve.json"
    assert fresh_process("-c", code, str(disk_container), str(output)).split() == [str(EXIT_OK), "False"]
    assert len(json.loads(output.read_text())["resolution_curve"]["points"]) == 4
