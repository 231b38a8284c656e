"""Volume file formats: the QVOL1 container and 16-bit PGM slice stacks.

QVOL1 is a minimal bit-exact container: one ASCII header line followed by the
raw little-endian pixel payload, slice-major then row-major:

    QVOL1 dims=W,H,N voxel_size_mm=X,Y,Z dtype=u16 byteorder=le\\n
    <W*H*N samples, u16 or f32, little-endian>

Floats in the header are written in repr form, which round-trips exactly;
files written by :func:`write_container` re-serialize byte-identically after
a load. PGM stacks are directories of binary (P5) PGM files, imported in
lexicographic filename order with a default voxel size of 1 mm isotropic.

u16 and PGM samples load as native u16 or u8 volumes, f32 samples as
float32 ones. A container's volume is a read-only view of the bytes the
loader read, not a copy. The parsers check the file structure; the pixel
and voxel-size contracts are ``volume``'s, and a violation of them is a
:class:`VolumeFormatError` here. :func:`read_input` alone asks the file
system what an input is: it reads its bytes once and names its kind,
``"qvol"`` or ``"pgm-stack"``. :func:`load_volume`, the one loader, parses
them by that kind; the report hashes the same bytes and names the kind.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .volume import Volume, voxel_size_mm

__all__ = ["VolumeFormatError", "write_container", "read_input", "load_volume"]

_MAGIC = "QVOL1"
_DTYPES = {"u16": np.dtype("<u2"), "f32": np.dtype("<f4")}
_HEADER_LIMIT = 4096


class VolumeFormatError(ValueError):
    """Malformed or inconsistent volume file."""


def _parse_header(line: bytes, path: Path) -> tuple[tuple[int, int, int], tuple[float, float, float], str]:
    try:
        text = line.decode("ascii").rstrip("\n")
    except UnicodeDecodeError as exc:
        raise VolumeFormatError(f"{path}: header is not ASCII") from exc
    tokens = text.split(" ")
    if not tokens or tokens[0] != _MAGIC:
        raise VolumeFormatError(f"{path}: bad magic, expected {_MAGIC!r}")
    fields = {}
    for tok in tokens[1:]:
        key, sep, value = tok.partition("=")
        if not sep or key in fields:
            raise VolumeFormatError(f"{path}: malformed header token {tok!r}")
        fields[key] = value
    required = {"dims", "voxel_size_mm", "dtype", "byteorder"}
    if set(fields) != required:
        raise VolumeFormatError(f"{path}: header keys {sorted(fields)} != {sorted(required)}")
    try:
        dims = tuple(int(v) for v in fields["dims"].split(","))
        voxel = tuple(float(v) for v in fields["voxel_size_mm"].split(","))
    except ValueError as exc:
        raise VolumeFormatError(f"{path}: unparsable dims/voxel_size_mm") from exc
    if len(dims) != 3 or any(d < 1 for d in dims):
        raise VolumeFormatError(f"{path}: dims must be three positive integers, got {fields['dims']!r}")
    try:
        voxel = voxel_size_mm(voxel)
    except ValueError as exc:
        raise VolumeFormatError(f"{path}: {exc}") from exc
    if fields["dtype"] not in _DTYPES:
        raise VolumeFormatError(f"{path}: dtype must be one of {sorted(_DTYPES)}")
    if fields["byteorder"] != "le":
        raise VolumeFormatError(f"{path}: byteorder must be 'le'")
    return dims, voxel, fields["dtype"]


def _parse_container(path: Path, raw: bytes) -> Volume:
    nl = raw.find(b"\n", 0, _HEADER_LIMIT)
    if nl < 0:
        raise VolumeFormatError(f"{path}: missing header line")
    (w, h, n), voxel, dtype = _parse_header(raw[: nl + 1], path)
    payload_bytes = len(raw) - (nl + 1)
    expected = w * h * n * _DTYPES[dtype].itemsize
    if payload_bytes != expected:
        raise VolumeFormatError(f"{path}: payload is {payload_bytes} bytes, expected {expected}")
    # a read-only view of the payload, which Volume.from_array adopts without a
    # copy; it checks the samples, so a non-finite or negative f32 pixel fails there
    samples = np.frombuffer(raw, dtype=_DTYPES[dtype], offset=nl + 1)
    try:
        return Volume.from_array(samples.reshape(n, h, w), voxel)
    except ValueError as exc:
        raise VolumeFormatError(f"{path}: {exc}") from exc


def write_bytes_atomic(path: Path, blob: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn
    file; the temp file is removed when the write fails. The file is created
    with mode 0o666, which the kernel narrows by the process umask."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def check_writable(path) -> None:
    """Raise OSError, naming ``path``, when :func:`write_bytes_atomic`
    cannot write it: its directory is missing or takes no new file, or
    ``path`` is a directory."""
    path = Path(path)
    parent = path.parent
    if not parent.is_dir():
        raise OSError(f"{path}: no such directory: {parent}")
    if path.is_dir():
        raise OSError(f"{path}: is a directory")
    if not os.access(parent, os.W_OK | os.X_OK):
        raise OSError(f"{path}: directory not writable: {parent}")


def write_container(path, volume: Volume, dtype: str = "f32") -> None:
    """Write a QVOL1 container atomically (temp file + rename).

    dtype 'u16' requires every pixel to be an integer in [0, 65535]; 'f32'
    stores the values rounded to single precision, and requires each to
    round to a finite one (at most about 3.4028235e38).
    """
    path = Path(path)
    if dtype not in _DTYPES:
        raise ValueError(f"dtype must be one of {sorted(_DTYPES)}")
    data = volume.data
    if dtype == "u16":
        # up to 65535 the cast truncates each non-negative pixel, so the cast
        # equals the data exactly when every pixel is integral; it is the payload
        if data.max() > 65535 or not np.array_equal(samples := data.astype("<u2"), data):
            raise ValueError("u16 container requires integral pixel values in [0, 65535]")
        payload = samples.tobytes()
    else:
        try:
            with np.errstate(over="raise"):
                payload = data.astype("<f4").tobytes()
        except FloatingPointError:
            raise ValueError("f32 container requires pixel values within the float32 range") from None
    n, h, w = volume.shape
    header = "{} dims={},{},{} voxel_size_mm={} dtype={} byteorder=le\n".format(
        _MAGIC, w, h, n, ",".join(repr(float(v)) for v in volume.voxel_size), dtype
    )
    write_bytes_atomic(path, header.encode("ascii") + payload)


def _read_pgm(path: Path, raw: bytes) -> np.ndarray:
    """Binary (P5) PGM, a read-only view of its samples: big-endian 16-bit
    when maxval > 255, else 8-bit; no sample may exceed maxval."""
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(raw):
            if raw[pos : pos + 1].isspace():
                pos += 1
            elif raw[pos : pos + 1] == b"#":
                while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise VolumeFormatError(f"{path}: truncated PGM header")
        return raw[start:pos]

    if token() != b"P5":
        raise VolumeFormatError(f"{path}: not a binary (P5) PGM file")
    # read before the parse: a missing token is a truncated header, not an unparsable one
    fields = token(), token(), token()
    try:
        width, height, maxval = map(int, fields)
    except ValueError as exc:
        raise VolumeFormatError(f"{path}: unparsable PGM header") from exc
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise VolumeFormatError(f"{path}: invalid PGM dimensions or maxval")
    pos += 1  # single whitespace after maxval
    sample = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    expected = width * height * sample.itemsize
    payload = raw[pos : pos + expected]
    if len(payload) != expected:
        raise VolumeFormatError(f"{path}: PGM payload is {len(payload)} bytes, expected {expected}")
    samples = np.frombuffer(payload, dtype=sample).reshape(height, width)
    # only a maxval below the sample type's maximum can be exceeded, so 255 and 65535 skip the pass
    if maxval < np.iinfo(sample).max and (top := int(samples.max())) > maxval:
        raise VolumeFormatError(f"{path}: sample {top} exceeds maxval {maxval}")
    return samples


def _parse_pgm_stack(files: list[tuple[Path, bytes]]) -> Volume:
    images = [_read_pgm(p, raw) for p, raw in files]
    shape = images[0].shape
    for (p, _), img in zip(files, images):
        if img.shape != shape:
            raise VolumeFormatError(
                f"{p}: slice is {img.shape[1]}x{img.shape[0]}, expected {shape[1]}x{shape[0]}"
            )
    # np.stack copies into native byte order, so 16-bit samples stay u16 in the Volume
    return Volume.from_array(np.stack(images), (1.0, 1.0, 1.0))


class Input(NamedTuple):
    """An input as :func:`read_input` read it: its kind, ``"qvol"`` or
    ``"pgm-stack"``, and the ``(path, bytes)`` of each file read, in load order."""

    kind: str
    files: list[tuple[Path, bytes]]


def read_input(path) -> Input:
    """The kind and the bytes of an input, each file read once: ``"qvol"``
    for a QVOL1 container file, ``"pgm-stack"`` for a directory, whose slice
    files are its ``*.pgm`` files (suffix in any case) sorted by name."""
    path = Path(path)
    if path.is_dir():
        paths = sorted(p for p in path.iterdir() if p.is_file() and p.suffix.lower() == ".pgm")
        if not paths:
            raise VolumeFormatError(f"{path}: no .pgm files found")
        return Input("pgm-stack", [(p, p.read_bytes()) for p in paths])
    if not path.exists():
        raise VolumeFormatError(f"{path}: no such file")
    return Input("qvol", [(path, path.read_bytes())])


def load_volume(path, read: Input | None = None) -> Volume:
    """Load either a QVOL1 container file or a directory of PGM slices.

    ``read`` is what :func:`read_input` returned for ``path``, parsed by its
    kind; when it is omitted, the input is read here.
    """
    if read is None:
        read = read_input(path)
    if read.kind == "pgm-stack":
        return _parse_pgm_stack(read.files)
    [(path, raw)] = read.files
    return _parse_container(path, raw)
