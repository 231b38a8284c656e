"""Volumetric data model and pixel statistics primitives.

A Volume is one read-only (n_slices, height, width) array of magnitudes plus
voxel-size metadata. Scanner data arrives as unsigned integers, and a u8 or
u16 source keeps its dtype; any other source becomes float64. A Slice is a
single read-only float64 2-d image; the per-slice statistics below work on
it. Both are immutable after construction and all statistics are pure
functions, so concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Slice", "Volume", "PixelStats", "stats_all", "stats_positive"]


# Source dtypes a Volume keeps; every value of theirs converts to float64 exactly.
_KEPT_DTYPES = (np.dtype(np.uint8), np.dtype(np.uint16))


def _as_readonly(pixels, ndim: int, keep=()) -> tuple[np.ndarray, float]:
    """One C-order copy of the pixels, validated and made read-only, and its maximum.

    The copy keeps the source dtype when it is one of ``keep`` and is float64 otherwise.
    """
    src = np.asarray(pixels)
    dtype = src.dtype if src.dtype in keep else np.float64
    arr = np.array(src, dtype=dtype, order="C", copy=True)
    if arr.ndim != ndim:
        raise ValueError(f"expected {ndim}-d pixel data, got {arr.ndim}-d")
    if arr.size == 0:
        raise ValueError("pixel data must be non-empty")
    # Conversion to float64 is monotone, so the extremes of the source samples
    # convert to the extremes of the copy; min and max propagate NaN and reach
    # any infinity, and a wide float beyond the float64 range converts to inf.
    lo, hi = np.float64(src.min()), np.float64(src.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("pixel values must be finite")
    if lo < 0:
        raise ValueError("magnitude data is non-negative; found negative pixel")
    arr.flags.writeable = False
    return arr, float(hi)


@dataclass(frozen=True, eq=False)
class Slice:
    """A single magnitude image: 2-d array of non-negative reals (row-major)."""

    pixels: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pixels", _as_readonly(self.pixels, 2)[0])

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True, eq=False)
class Volume:
    """A read-only (n_slices, height, width) array with voxel size in mm per axis.

    Construction copies the data once and validates it (3-d, non-empty,
    finite, non-negative). The copy keeps a native u8 or u16 source dtype,
    which holds scanner data in a quarter of the float64 size or less; any
    other source is converted to float64. ``intensity_max`` is cached at construction; the
    array is read-only, so the cache stays consistent with a recomputation.
    """

    data: np.ndarray = field(repr=False)
    voxel_size: tuple[float, float, float] = (1.0, 1.0, 1.0)
    intensity_max: float = field(init=False)

    def __post_init__(self):
        data, intensity_max = _as_readonly(self.data, 3, _KEPT_DTYPES)
        voxel = tuple(float(v) for v in self.voxel_size)
        if len(voxel) != 3 or any(v <= 0 for v in voxel):
            raise ValueError("voxel_size must be three positive reals (mm)")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "voxel_size", voxel)
        object.__setattr__(self, "intensity_max", intensity_max)

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


@dataclass(frozen=True)
class PixelStats:
    """Count, mean and population standard deviation of a pixel set.

    The std uses the 1/count divisor. When ``count == 0`` the mean and std
    are undefined and stored as None (explicit empty state, never 0/NaN).
    """

    count: int
    mean: float | None
    std: float | None

    def __post_init__(self):
        if (self.count == 0) != (self.mean is None):
            raise ValueError("mean must be None exactly when count == 0")
        if (self.mean is None) != (self.std is None):
            raise ValueError("mean and std must be absent together")

    @classmethod
    def empty(cls) -> "PixelStats":
        return cls(0, None, None)

    @property
    def is_empty(self) -> bool:
        return self.count == 0


def _stats(values: np.ndarray) -> PixelStats:
    if values.size == 0:
        return PixelStats.empty()
    mean = float(values.mean())
    return PixelStats(int(values.size), mean, float(values.std()))


def stats_all(sl: Slice) -> PixelStats:
    """Mean and population std over all pixels, zeros included."""
    return _stats(sl.pixels.ravel())


def stats_positive(sl: Slice) -> PixelStats:
    """Mean and population std over the strictly positive pixels only.

    Returns the empty state when the slice has no positive pixel.
    """
    flat = sl.pixels.ravel()
    return _stats(flat[flat > 0])
