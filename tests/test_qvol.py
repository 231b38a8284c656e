import hashlib
import os
import re
import stat
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbench import Volume, VolumeFormatError, load_volume, qvol, read_input, write_container
from qbench.cli import EXIT_LOAD, main
from qbench.qvol import Input, write_bytes_atomic
from qbench.report import write_text_atomic
from conftest import resolved_digest, volume_from

# the same examples on every run, so the suite cannot flake
EXAMPLES = dict(deadline=None, derandomize=True)


def write_pgm(path, image, maxval=65535):
    image = np.asarray(image)
    header = f"P5\n{image.shape[1]} {image.shape[0]}\n{maxval}\n".encode()
    if maxval > 255:
        payload = image.astype(">u2").tobytes()
    else:
        payload = image.astype("u1").tobytes()
    path.write_bytes(header + payload)


class TestContainerRoundTrip:
    def test_u16_round_trip_byte_identical(self, tmp_path):
        vol = volume_from(np.array([[[0.0, 1.0], [3.0, 0.0]]]), voxel=(1.0, 1.0, 2.5))
        path = tmp_path / "vol.qvol"
        write_container(path, vol, dtype="u16")
        loaded = load_volume(path)
        assert loaded.intensity_max == 3.0
        assert np.array_equal(loaded.data, vol.data)
        assert loaded.voxel_size == vol.voxel_size
        again = tmp_path / "again.qvol"
        write_container(again, loaded, dtype="u16")
        assert path.read_bytes() == again.read_bytes()

    def test_f32_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        vol = volume_from(rng.random((4, 6, 5)).astype(np.float32).astype(np.float64) * 100)
        path = tmp_path / "vol.qvol"
        write_container(path, vol, dtype="f32")
        loaded = load_volume(path)
        again = tmp_path / "again.qvol"
        write_container(again, loaded, dtype="f32")
        assert path.read_bytes() == again.read_bytes()

    def test_header_contents(self, tmp_path):
        vol = volume_from(np.zeros((2, 3, 4)), voxel=(0.5, 1.0, 2.0))
        path = tmp_path / "vol.qvol"
        write_container(path, vol, dtype="u16")
        header = path.read_bytes().split(b"\n", 1)[0].decode()
        assert header == "QVOL1 dims=4,3,2 voxel_size_mm=0.5,1.0,2.0 dtype=u16 byteorder=le"

    def test_u16_requires_integral_values(self, tmp_path):
        vol = volume_from(np.array([[[0.5]]]))
        with pytest.raises(ValueError, match="integral"):
            write_container(tmp_path / "x.qvol", vol, dtype="u16")
        for beyond in (65535.5, 65536.0, 70000.0):
            with pytest.raises(ValueError, match=r"integral pixel values in \[0, 65535\]"):
                write_container(tmp_path / "y.qvol", volume_from(np.array([[[1.0, beyond]]])), dtype="u16")
        assert not list(tmp_path.iterdir())

    def test_f32_requires_values_within_the_float32_range(self, tmp_path):
        # 3.4028235e38 lies above the float32 maximum but rounds down to it;
        # 2**128 - 2**103, halfway to the next power of two, rounds to infinity
        path = tmp_path / "max.qvol"
        write_container(path, volume_from(np.array([[[1.0, 3.4028235e38]]])), dtype="f32")
        assert load_volume(path).data[0, 0, 1] == np.finfo(np.float32).max
        with pytest.raises(ValueError, match="f32 container requires pixel values within the float32 range"):
            write_container(tmp_path / "inf.qvol", volume_from(np.array([[[1.0, 2.0**128 - 2.0**103]]])), dtype="f32")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["max.qvol"]


_GOOD_HEADER = b"QVOL1 dims=2,2,1 voxel_size_mm=1.0,1.0,1.0 dtype=u16 byteorder=le\n"
_GOOD_PAYLOAD = struct.pack("<4H", 0, 1, 3, 0)


class TestContainerErrors:
    def good_bytes(self):
        return _GOOD_HEADER + _GOOD_PAYLOAD

    def test_example_decode(self, tmp_path):
        path = tmp_path / "ok.qvol"
        path.write_bytes(self.good_bytes())
        vol = load_volume(path)
        assert vol.shape == (1, 2, 2)
        assert vol.intensity_max == 3.0

    def test_short_payload(self, tmp_path):
        path = tmp_path / "short.qvol"
        path.write_bytes(self.good_bytes()[:-1])
        with pytest.raises(VolumeFormatError, match="payload"):
            load_volume(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.qvol"
        path.write_bytes(b"QVOL9" + self.good_bytes()[5:])
        with pytest.raises(VolumeFormatError, match="magic"):
            load_volume(path)

    def test_bad_dtype(self, tmp_path):
        path = tmp_path / "bad.qvol"
        path.write_bytes(self.good_bytes().replace(b"dtype=u16", b"dtype=i32"))
        with pytest.raises(VolumeFormatError, match="dtype"):
            load_volume(path)

    def test_missing_header_key(self, tmp_path):
        path = tmp_path / "bad.qvol"
        path.write_bytes(self.good_bytes().replace(b" byteorder=le", b""))
        with pytest.raises(VolumeFormatError, match="header keys"):
            load_volume(path)

    @pytest.mark.parametrize("voxel", [b"nan,1.0,1.0", b"1.0,inf,1.0"])
    def test_non_finite_voxel_size_rejected(self, tmp_path, voxel):
        path = tmp_path / "bad.qvol"
        path.write_bytes(self.good_bytes().replace(b"voxel_size_mm=1.0,1.0,1.0", b"voxel_size_mm=" + voxel))
        with pytest.raises(VolumeFormatError, match="finite"):
            load_volume(path)

    def test_negative_f32_rejected(self, tmp_path):
        header = b"QVOL1 dims=2,1,1 voxel_size_mm=1.0,1.0,1.0 dtype=f32 byteorder=le\n"
        payload = struct.pack("<2f", 1.0, -2.0)
        path = tmp_path / "neg.qvol"
        path.write_bytes(header + payload)
        with pytest.raises(VolumeFormatError, match="negative"):
            load_volume(path)

    def test_nonfinite_f32_rejected(self, tmp_path):
        header = b"QVOL1 dims=2,1,1 voxel_size_mm=1.0,1.0,1.0 dtype=f32 byteorder=le\n"
        payload = struct.pack("<2f", 1.0, float("nan"))
        path = tmp_path / "nan.qvol"
        path.write_bytes(header + payload)
        with pytest.raises(VolumeFormatError, match="non-finite"):
            load_volume(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(VolumeFormatError, match="no such file"):
            load_volume(tmp_path / "absent.qvol")

    def test_no_temp_files_left_behind(self, tmp_path):
        vol = volume_from(np.zeros((1, 2, 2)))
        write_container(tmp_path / "v.qvol", vol)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["v.qvol"]


class TestPgmStack:
    def test_stack_import(self, tmp_path):
        rng = np.random.default_rng(9)
        slices = (rng.random((8, 10)) * 1000).astype(int)
        for i in range(3):
            write_pgm(tmp_path / f"slice_{i:03d}.pgm", slices + i)
        # the voxel-size default is report data, not a warning of the library
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vol = load_volume(tmp_path)
        assert vol.shape == (3, 8, 10)
        assert vol.voxel_size == (1.0, 1.0, 1.0)
        assert np.array_equal(vol.data[0], slices.astype(float))

    def test_lexicographic_order(self, tmp_path):
        write_pgm(tmp_path / "b.pgm", np.full((2, 2), 2))
        write_pgm(tmp_path / "a.pgm", np.full((2, 2), 1))
        vol = load_volume(tmp_path)
        assert vol.data[0, 0, 0] == 1.0 and vol.data[1, 0, 0] == 2.0

    def test_eight_bit_pgm(self, tmp_path):
        write_pgm(tmp_path / "only.pgm", np.arange(4).reshape(2, 2), maxval=255)
        vol = load_volume(tmp_path)
        assert vol.intensity_max == 3.0

    @pytest.mark.parametrize("maxval, top", [(200, 201), (1000, 65535)], ids=["8-bit", "16-bit"])
    def test_a_sample_may_reach_maxval_but_not_exceed_it(self, tmp_path, maxval, top):
        write_pgm(tmp_path / "s0.pgm", np.full((2, 3), maxval), maxval=maxval)
        assert load_volume(tmp_path).intensity_max == maxval
        write_pgm(tmp_path / "s1.pgm", np.array([[0, top, 1], [maxval, 2, 3]]), maxval=maxval)
        with pytest.raises(VolumeFormatError) as caught:
            load_volume(tmp_path)
        assert str(caught.value) == f"{tmp_path / 's1.pgm'}: sample {top} exceeds maxval {maxval}"

    def test_dimension_mismatch(self, tmp_path):
        write_pgm(tmp_path / "a.pgm", np.zeros((2, 2)))
        write_pgm(tmp_path / "b.pgm", np.zeros((3, 3)))
        with pytest.raises(VolumeFormatError, match="expected"):
            load_volume(tmp_path)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(VolumeFormatError, match="no .pgm"):
            load_volume(tmp_path)

    def test_load_volume_dispatches_to_directory(self, tmp_path):
        write_pgm(tmp_path / "s0.pgm", np.ones((4, 4)))
        vol = load_volume(tmp_path)
        assert isinstance(vol, Volume)
        assert vol.n_slices == 1

    def test_comment_in_header(self, tmp_path):
        img = np.full((2, 2), 7)
        header = b"P5\n# scanner export\n2 2\n65535\n"
        (tmp_path / "c.pgm").write_bytes(header + img.astype(">u2").tobytes())
        vol = load_volume(tmp_path)
        assert np.all(vol.data == 7.0)


class TestOneRead:
    """The loader reads an input once; the volume keeps u8/u16/f32 samples and the digest hashes the same bytes."""

    @settings(max_examples=30, **EXAMPLES)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.tuples(st.integers(1, 6), st.integers(1, 9), st.integers(1, 9)),
        top=st.sampled_from([1, 255, 65535]),
        dtype=st.sampled_from(["u16", "f32"]),
    )
    def test_container_keeps_its_dtype_and_hashes_its_bytes(self, seed, shape, top, dtype):
        data = np.random.default_rng(seed).integers(0, top + 1, shape)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "vol.qvol"
            write_container(path, volume_from(data), dtype=dtype)
            read = read_input(path)
            assert read.kind == "qvol" and [p for p, _ in read.files] == [path]
            vol = load_volume(path, read)
            assert vol.data.dtype == (np.uint16 if dtype == "u16" else np.float32)
            assert np.array_equal(vol.data, data)
            assert load_volume(path).data.dtype == vol.data.dtype
            expected = hashlib.sha256(path.read_bytes()).hexdigest()
            assert resolved_digest(path, read) == expected

    @pytest.mark.parametrize("dtype", ["u16", "f32"])
    def test_container_volume_is_a_readonly_view_of_the_bytes_read(self, tmp_path, dtype):
        path = tmp_path / "vol.qvol"
        write_container(path, volume_from(np.arange(60.0).reshape(3, 4, 5)), dtype=dtype)
        read = read_input(path)
        vol = load_volume(path, read)
        [(_, raw)] = read.files
        assert np.shares_memory(vol.data, np.frombuffer(raw, dtype=np.uint8))
        assert not vol.data.flags.writeable
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 1

    @settings(max_examples=30, **EXAMPLES)
    @given(seed=st.integers(0, 2**32 - 1), n_slices=st.integers(1, 4), eight_bit=st.booleans())
    def test_pgm_stack_keeps_native_samples_and_hashes_names_and_bytes_in_load_order(self, seed, n_slices, eight_bit):
        rng = np.random.default_rng(seed)
        maxval = 255 if eight_bit else 65535
        images = rng.integers(0, maxval + 1, (n_slices, 3, 4))
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            # written in reverse, some with an upper-case suffix, next to a file the loader skips
            names = [f"s{i}.{'PGM' if i % 2 else 'pgm'}" for i in range(n_slices)]
            for name, image in reversed(list(zip(names, images))):
                write_pgm(directory / name, image, maxval=maxval)
            (directory / "notes.txt").write_text("not a slice")
            read = read_input(directory)
            assert read.kind == "pgm-stack" and [p.name for p, _ in read.files] == sorted(names)
            vol = load_volume(directory, read)
            assert vol.data.dtype == (np.uint8 if eight_bit else np.uint16) and vol.data.dtype.isnative
            assert np.array_equal(vol.data, images)
            expected = hashlib.sha256()
            for name in sorted(names):
                expected.update(name.encode() + b"\x00" + (directory / name).read_bytes())
            assert resolved_digest(directory, read) == expected.hexdigest()


# one malformed container per message of the QVOL1 parser: (bytes, message)
MALFORMED_CONTAINERS = {
    "not-ascii": (_GOOD_HEADER.replace(b"dtype", b"dt\xffpe") + _GOOD_PAYLOAD, "header is not ASCII"),
    "token-without-equals": (_GOOD_HEADER.replace(b" dtype", b" junk dtype") + _GOOD_PAYLOAD, "malformed header token 'junk'"),
    "duplicate-token": (_GOOD_HEADER.replace(b" dtype=u16", b" dtype=u16 dtype=u16") + _GOOD_PAYLOAD, "malformed header token 'dtype=u16'"),
    "unparsable-dims": (_GOOD_HEADER.replace(b"dims=2,2,1", b"dims=2,x,1") + _GOOD_PAYLOAD, "unparsable dims/voxel_size_mm"),
    "unparsable-voxel": (_GOOD_HEADER.replace(b"voxel_size_mm=1.0,", b"voxel_size_mm=mm,") + _GOOD_PAYLOAD, "unparsable dims/voxel_size_mm"),
    "two-dims": (_GOOD_HEADER.replace(b"dims=2,2,1", b"dims=4,1") + _GOOD_PAYLOAD, "dims must be three positive integers, got '4,1'"),
    "zero-dim": (_GOOD_HEADER.replace(b"dims=2,2,1", b"dims=2,2,0") + _GOOD_PAYLOAD, "dims must be three positive integers, got '2,2,0'"),
    "big-endian": (_GOOD_HEADER.replace(b"byteorder=le", b"byteorder=be") + _GOOD_PAYLOAD, "byteorder must be 'le'"),
    "no-newline": (b"QVOL1 " + b"x" * 5000 + b"\n" + _GOOD_PAYLOAD, "missing header line"),
}

# one malformed PGM slice per message of the PGM parser: (bytes, message)
MALFORMED_PGMS = {
    "empty": (b"", "truncated PGM header"),
    "truncated-header": (b"P5\n2 2\n", "truncated PGM header"),
    "not-p5": (b"P2\n2 2\n255\n0 1 2 3\n", "not a binary (P5) PGM file"),
    "unparsable-header": (b"P5\n2 two\n255\n\x00\x01\x02\x03", "unparsable PGM header"),
    "zero-width": (b"P5\n0 2\n255\n", "invalid PGM dimensions or maxval"),
    "maxval-beyond-16-bit": (b"P5\n2 2\n65536\n" + bytes(8), "invalid PGM dimensions or maxval"),
    "short-payload": (b"P5\n2 2\n255\n\x00\x01\x02", "PGM payload is 3 bytes, expected 4"),
    "sample-above-8-bit-maxval": (b"P5\n2 2\n200\n\x00\xc9\xc8\x03", "sample 201 exceeds maxval 200"),
    "sample-above-16-bit-maxval": (
        b"P5\n2 2\n1000\n" + np.array([0, 65535, 1000, 3], ">u2").tobytes(),
        "sample 65535 exceeds maxval 1000",
    ),
}


def malformed_input(directory, kind, raw):
    """The path of a malformed input of ``kind`` in the empty ``directory``:
    a container holding ``raw``, or the directory as a stack of one slice."""
    path = directory / "bad.qvol" if kind == "qvol" else directory / "s0.pgm"
    path.write_bytes(raw)
    return path if kind == "qvol" else directory


MALFORMED = [("qvol", *case) for case in MALFORMED_CONTAINERS.values()] + [("pgm", *case) for case in MALFORMED_PGMS.values()]
MALFORMED_IDS = [f"qvol-{k}" for k in MALFORMED_CONTAINERS] + [f"pgm-{k}" for k in MALFORMED_PGMS]


class TestMalformedInput:
    """Each message of the QVOL1 and PGM parsers, through the loader and through ``qbench estimate``."""

    @pytest.mark.parametrize("kind, raw, message", MALFORMED, ids=MALFORMED_IDS)
    def test_loader_raises_the_message(self, tmp_path, kind, raw, message):
        path = malformed_input(tmp_path, kind, raw)
        with pytest.raises(VolumeFormatError) as caught:
            load_volume(path)
        assert str(caught.value).endswith(message)

    @pytest.mark.parametrize("kind, raw, message", MALFORMED, ids=MALFORMED_IDS)
    def test_estimate_exits_3_with_one_load_error_line(self, tmp_path, capsys, kind, raw, message):
        path = malformed_input(tmp_path, kind, raw)
        assert main(["estimate", str(path)]) == EXIT_LOAD
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("qbench: cannot load input: ") and err.endswith(f"{message}\n") and err.count("\n") == 1


class TestWriteErrors:
    def test_unknown_container_dtype(self, tmp_path):
        with pytest.raises(ValueError, match=r"dtype must be one of \['f32', 'u16'\]"):
            write_container(tmp_path / "v.qvol", volume_from(np.zeros((1, 2, 2))), dtype="u8")
        assert not list(tmp_path.iterdir())

    def test_failed_rename_removes_the_temp_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError(f"cannot rename {src}")

        monkeypatch.setattr(qvol.os, "replace", fail)
        with pytest.raises(OSError, match="cannot rename"):
            write_bytes_atomic(tmp_path / "v.qvol", b"payload")
        assert not list(tmp_path.iterdir())

    def test_directory_not_writable(self, tmp_path, monkeypatch):
        # os.access grants root write access to every directory, so the denial is patched in
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode: Path(path) != tmp_path and access(path, mode))
        with pytest.raises(OSError, match=re.escape(f"{tmp_path / 'v.qvol'}: directory not writable: {tmp_path}")):
            qvol.check_writable(tmp_path / "v.qvol")
        (tmp_path / "sub").mkdir()
        qvol.check_writable(tmp_path / "sub" / "v.qvol")


class TestFileMode:
    """Written files take the process umask, as ``open`` would create them."""

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask-022", "umask-077"])
    def test_written_files_take_the_umask(self, tmp_path, umask, mode):
        path = tmp_path / "report.json"
        path.write_text("old")
        os.chmod(path, 0o640)  # an overwritten file takes the new file's mode
        previous = os.umask(umask)
        try:
            write_text_atomic(path, "{}\n")
            write_container(tmp_path / "vol.qvol", volume_from(np.zeros((1, 2, 2))))
        finally:
            os.umask(previous)
        assert path.read_text() == "{}\n"
        assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()} == {"report.json": mode, "vol.qvol": mode}


def _valid_container(dtype):
    data = np.arange(12.0).reshape(3, 2, 2)
    header = f"QVOL1 dims=2,2,3 voxel_size_mm=1.0,0.5,2.0 dtype={dtype} byteorder=le\n".encode()
    return header + data.astype("<u2" if dtype == "u16" else "<f4").tobytes()


def _valid_pgm(maxval):
    image = np.arange(6).reshape(2, 3) * (maxval // 6)
    return f"P5\n3 2\n{maxval}\n".encode() + image.astype(">u2" if maxval > 255 else "u1").tobytes()


@st.composite
def mutated(draw, valid):
    """``valid`` after one to four byte insertions, deletions and replacements."""
    raw = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        at = draw(st.integers(0, len(raw) if op == "insert" else max(len(raw) - 1, 0)))
        if op == "insert":
            raw[at:at] = bytes([draw(st.integers(0, 255))])
        elif raw and op == "delete":
            del raw[at]
        elif raw:
            raw[at] = draw(st.integers(0, 255))
    return bytes(raw)


class TestMutatedInput:
    """Byte mutations of a valid input load as a Volume or raise VolumeFormatError, nothing else."""

    @settings(max_examples=150, **EXAMPLES)
    @given(st.sampled_from(["u16", "f32"]).flatmap(lambda dtype: mutated(_valid_container(dtype))))
    def test_container(self, raw):
        path = Path("mutated.qvol")  # never read: the bytes are handed to the loader
        try:
            volume = load_volume(path, Input("qvol", [(path, raw)]))
        except VolumeFormatError:
            return
        assert isinstance(volume, Volume)

    @settings(max_examples=150, **EXAMPLES)
    @given(st.sampled_from([255, 65535]).flatmap(lambda maxval: mutated(_valid_pgm(maxval))))
    def test_pgm_slice(self, raw):
        path = Path("mutated")  # never read: the bytes are handed to the loader
        try:
            volume = load_volume(path, Input("pgm-stack", [(path / "s0.pgm", raw)]))
        except VolumeFormatError:
            return
        assert isinstance(volume, Volume)
