"""Synthetic magnitude volumes with complex Gaussian noise.

Ground-truth phantoms for calibrating and testing the estimators: a noiseless
template (uniform background plus painted objects, identical across slices)
whose pixel values act as the real channel of a complex signal, corrupted by
independent zero-mean Gaussian noise on both channels. The magnitude of the
result is Rician per pixel, Rayleigh where the template is zero.

Determinism contract: the noise stream comes from numpy's PCG64 bit generator
seeded with the spec seed, drawing the full real-channel block first and the
imaginary block second, each in C order over (slice, row, column). Identical
(spec, seed) therefore reproduce volumes bit-exactly on the same numpy build.

``generate`` is the one builder. It paints the template, adds the noise and
optionally rounds, all in one float64 buffer: on the calling thread the real
block is drawn into it and scaled and offset in place, then the imaginary
block is drawn. The rest (scaling the imaginary block, ``np.hypot`` into the
buffer and the optional rounding) is elementwise and split by rows over the
cores the process may use, so the bytes do not depend on the core count.
Every thread is joined before the call returns. ``generate`` holds two
volume-sized float64 blocks at its peak: 63 MB for 256x256x60.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._threads import split_rows
from .volume import Volume, voxel_size_mm

__all__ = ["PhantomObject", "PhantomSpec", "generate"]

# The Python types ``json.loads`` decodes each JSON type of a spec field to;
# a bool is not an integer or a number here.
_JSON_TYPES = {"integer": (int,), "number": (int, float), "bool": (bool,), "array of numbers": (list,)}


def _json_field(d: dict, key: str, kind: str, default=None):
    """``d[key]``, which must be of JSON type ``kind`` (a TypeError otherwise);
    ``default`` when the key is absent and a default is given."""
    if key not in d and default is not None:
        return default
    value = d[key]
    items = value if type(value) is list else ()
    if type(value) not in _JSON_TYPES[kind] or any(type(v) not in _JSON_TYPES["number"] for v in items):
        raise TypeError(f"{key} must be a JSON {kind}")
    return value


@dataclass(frozen=True)
class PhantomObject:
    """One painted object: a disk (size = radius) or an axis-aligned rect
    (size = (width, height)), centered at (cx, cy) in pixel coordinates."""

    shape: str
    center: tuple[float, float]
    size: float | tuple[float, float]
    value: float

    def __post_init__(self):
        if self.shape not in ("disk", "rect"):
            raise ValueError("object shape must be 'disk' or 'rect'")
        if not 0 <= self.value < math.inf:
            raise ValueError("object value must be finite and >= 0")
        if self.shape == "disk":
            if not np.isscalar(self.size) or not 0 < self.size < math.inf:
                raise ValueError("disk size is a finite positive radius")
            object.__setattr__(self, "size", float(self.size))
        else:
            try:
                w, h = (float(v) for v in self.size)
            except (TypeError, ValueError):
                raise ValueError("rect size is a finite positive (width, height) pair") from None
            if not (0 < w < math.inf and 0 < h < math.inf):
                raise ValueError("rect size is a finite positive (width, height) pair")
            object.__setattr__(self, "size", (w, h))
        center = tuple(float(c) for c in self.center)
        if not all(map(math.isfinite, center)):
            raise ValueError("object center must be finite")
        object.__setattr__(self, "center", center)

    def bounds(self) -> tuple[float, float, float, float]:
        """(x_min, x_max, y_min, y_max) of the painted extent."""
        cx, cy = self.center
        if self.shape == "disk":
            r = float(self.size)
            return cx - r, cx + r, cy - r, cy + r
        w, h = self.size
        return cx - w / 2, cx + w / 2, cy - h / 2, cy + h / 2

    @classmethod
    def from_dict(cls, d: dict) -> "PhantomObject":
        shape = d["shape"]
        size = _json_field(d, "radius", "number") if shape == "disk" else _json_field(d, "size", "array of numbers")
        center = _json_field(d, "center", "array of numbers")
        return cls(shape=shape, center=center, size=size, value=float(_json_field(d, "value", "number")))


@dataclass(frozen=True)
class PhantomSpec:
    """Complete description of a reproducible synthetic volume."""

    width: int
    height: int
    n_slices: int
    voxel_size: tuple[float, float, float] = (1.0, 1.0, 1.0)
    background_value: float = 0.0
    objects: tuple[PhantomObject, ...] = ()
    sigma: float = 0.0
    seed: int = 0
    quantize: bool = False

    def __post_init__(self):
        if self.width < 1 or self.height < 1 or self.n_slices < 1:
            raise ValueError("width, height and n_slices must be positive")
        object.__setattr__(self, "voxel_size", voxel_size_mm(self.voxel_size))
        if not 0 <= self.background_value < math.inf:
            raise ValueError("background_value must be finite and >= 0")
        if not 0 <= self.sigma < math.inf:
            raise ValueError("sigma must be finite and >= 0")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "objects", tuple(self.objects))
        for obj in self.objects:
            x0, x1, y0, y1 = obj.bounds()
            if x0 < 0 or y0 < 0 or x1 > self.width - 1 or y1 > self.height - 1:
                raise ValueError(f"object {obj} extends beyond the {self.width}x{self.height} image")

    @classmethod
    def from_dict(cls, d: dict) -> "PhantomSpec":
        return cls(
            width=_json_field(d, "width", "integer"),
            height=_json_field(d, "height", "integer"),
            n_slices=_json_field(d, "n_slices", "integer"),
            voxel_size=_json_field(d, "voxel_size_mm", "array of numbers", (1.0, 1.0, 1.0)),
            background_value=float(_json_field(d, "background_value", "number", 0.0)),
            objects=tuple(PhantomObject.from_dict(o) for o in d.get("objects", ())),
            sigma=float(_json_field(d, "sigma", "number", 0.0)),
            seed=_json_field(d, "seed", "integer", 0),
            quantize=_json_field(d, "quantize", "bool", False),
        )


def _template_image(spec: PhantomSpec) -> np.ndarray:
    """One (height, width) slice of the template: background value with objects painted over it."""
    yy, xx = np.mgrid[0 : spec.height, 0 : spec.width]
    image = np.full((spec.height, spec.width), float(spec.background_value))
    for obj in spec.objects:
        cx, cy = obj.center
        if obj.shape == "disk":
            mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= float(obj.size) ** 2
        else:
            w, h = obj.size
            mask = (np.abs(xx - cx) <= w / 2) & (np.abs(yy - cy) <= h / 2)
        image[mask] = obj.value
    return image


def generate(spec: PhantomSpec) -> Volume:
    """The phantom of ``spec``: its template, plus the seeded complex noise
    when sigma > 0, rounded to integers when the spec quantizes.

    Each pixel is sqrt((A + g_r)^2 + g_i^2), A the template and g_r, g_i
    sigma times the stream's real and imaginary blocks (module docstring),
    built in one float64 buffer, which the volume copies once. At sigma 0
    nothing is drawn and the pixels are the template's.
    """
    template = _template_image(spec)
    out = np.empty((spec.n_slices, spec.height, spec.width))
    rows = out.reshape(-1, spec.width)
    sigma, imag_rows = spec.sigma, None
    if sigma == 0:
        out[...] = template
    else:
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        rng.standard_normal(out=out)
        out *= sigma
        out += template
        imag_rows = rng.standard_normal(rows.shape)

    def finish(lo: int, hi: int) -> None:
        r = rows[lo:hi]
        if imag_rows is not None:
            i = imag_rows[lo:hi]
            np.multiply(i, sigma, out=i)
            np.hypot(r, i, out=r)
        if spec.quantize:
            np.rint(r, out=r)

    if imag_rows is not None or spec.quantize:
        split_rows(finish, rows.shape[0])
    imag_rows = None  # freed before the volume copies the buffer, so the peak holds two blocks
    return Volume.from_array(out, spec.voxel_size)
