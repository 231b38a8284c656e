"""Volumetric data model.

A Volume is one read-only (n_slices, height, width) array of magnitudes plus
voxel-size metadata. Scanner data arrives as unsigned integers or single
floats, and a u8, u16 or float32 source keeps its dtype; any other source
becomes float64. A source that already is such an array over an immutable
``bytes`` object, as a loaded container's payload is, becomes the volume
without a copy. A Volume is immutable after construction, so concurrent
reads are safe. ``Volume`` owns the pixel contract, and
:func:`voxel_size_mm` is the one voxel-size check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Volume"]


# Source dtypes a Volume keeps; every value of theirs converts to float64 exactly.
_KEPT_DTYPES = (np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.float32))
# dtype kinds a source may have: bool, unsigned, signed and float. A complex,
# string, object or date source is refused before any conversion.
_REAL_KINDS = "buif"


def _over_bytes(src: np.ndarray) -> bool:
    """Whether ``src`` is a read-only view whose chain of bases ends in a
    ``bytes`` object, which no one can write to."""
    base = src
    while isinstance(base, np.ndarray):
        base = base.base
    return type(base) is bytes and not src.flags.writeable


def voxel_size_mm(values) -> tuple[float, float, float]:
    """``values`` as three floats, in mm; ValueError unless they are three
    finite reals > 0 whose product, the voxel volume, is finite and > 0."""
    try:
        voxel = tuple(float(v) for v in values)
    except (TypeError, ValueError):
        voxel = ()
    if len(voxel) != 3 or not all(0 < v < math.inf for v in voxel):
        raise ValueError("voxel_size_mm must be three finite positive reals")
    if not 0 < (volume := math.prod(voxel)) < math.inf:
        raise ValueError(f"voxel_size_mm {voxel} has a voxel volume of {volume!r} mm^3, not finite and > 0")
    return voxel


@dataclass(frozen=True, eq=False)
class Volume:
    """A read-only (n_slices, height, width) array with voxel size in mm per axis.

    Construction validates the data (a bool, unsigned, signed or float
    dtype, 3-d, non-empty, finite, non-negative) and the voxel size (see
    :func:`voxel_size_mm`); any violation is a ValueError. A native u8, u16
    or float32 source keeps its dtype, which holds scanner data in half the
    float64 size or less; any other source is converted to float64. A C-contiguous source in a kept dtype that is
    a read-only view of a ``bytes`` object becomes the volume's array as it
    is; every other source, writable ones included, is copied once.
    ``intensity_max`` is cached at construction; the array is read-only, so
    the cache stays consistent with a recomputation.
    """

    data: np.ndarray = field(repr=False)
    voxel_size: tuple[float, float, float] = (1.0, 1.0, 1.0)
    intensity_max: float = field(init=False)

    def __post_init__(self):
        src = np.asarray(self.data)
        if src.dtype.kind not in _REAL_KINDS:
            raise ValueError(f"pixel data must be bool, unsigned, signed or float, got {src.dtype}")
        kept = src.dtype in _KEPT_DTYPES
        if kept and src.flags.c_contiguous and _over_bytes(src):
            data = src.view()
        else:
            data = np.array(src, dtype=src.dtype if kept else np.float64, order="C", copy=True)
        if data.ndim != 3:
            raise ValueError(f"expected 3-d pixel data, got {data.ndim}-d")
        if data.size == 0:
            raise ValueError("pixel data must be non-empty")
        # Conversion to float64 is monotone, so the extremes of the source samples
        # convert to the extremes of the volume; min and max propagate NaN and reach
        # any infinity, and a wide float beyond the float64 range converts to inf.
        # An unsigned sample is a finite non-negative integer, so its max alone counts.
        hi = np.float64(src.max())
        if src.dtype.kind != "u":
            lo = np.float64(src.min())
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError("pixel values must be finite; found non-finite pixel")
            if lo < 0:
                raise ValueError("magnitude data is non-negative; found negative pixel")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "voxel_size", voxel_size_mm(self.voxel_size))
        object.__setattr__(self, "intensity_max", float(hi))

    @classmethod
    def from_array(cls, data, voxel_size=(1.0, 1.0, 1.0)) -> "Volume":
        """Build a volume from a (n_slices, height, width) array."""
        return cls(data, voxel_size)

    @property
    def n_slices(self) -> int:
        return self.data.shape[0]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape
