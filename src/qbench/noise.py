"""Automatic noise/signal estimation via a variance-based threshold.

The estimator cuts every pixel above a threshold t to zero and measures, per
slice, the population std of the result. The across-slice variance of those
stds is small when the thresholded slices look alike, i.e. when t retains the
background noise without holes and without object pixels. The optimal t is the
minimum of that variance curve over the thresholds in [t_lower, t_max] that
separate anything, guarded by the condition that the mean per-slice std at
the raw minimum must not exceed its value at t_max (volumes without any object
would otherwise pick a meaningless interior minimum).

Noise is then the correction-factor-scaled std of the positive pixels of the
thresholded slices, averaged over slices; signal is the mean of the original
pixels above the threshold.

A volume holds u8, u16, float32 or float64 samples (see ``volume``); every
statistic is computed in float64 and is the same for u8, u16 or float32
data as for its float64 copy, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .volume import Volume

__all__ = [
    "CORRECTION_FACTOR",
    "CORRECTION_FACTOR_ANALYTIC",
    "SearchConfig",
    "ThresholdResult",
    "NoiseEstimate",
    "EstimationError",
    "find_t_lower",
    "find_t_opt",
    "estimate",
    "background_roi_noise",
]

# Multiplier turning the std of Rayleigh-distributed background magnitudes
# into the underlying per-channel sigma. The conventional value 1.53 is kept;
# the analytic value 1/sqrt(2 - pi/2) differs by ~0.2% and is reported as
# metadata so downstream consumers can see the discrepancy.
CORRECTION_FACTOR = 1.53
CORRECTION_FACTOR_ANALYTIC = 1.0 / math.sqrt(2.0 - math.pi / 2.0)

# Intensity range above which the lattice step grows with t_max; the defaults
# (t_start=40, epsilon=10, grid_step=1) assume typical 12-bit scanner data.
_TWELVE_BIT_MAX = 4095.0

# Most lattice steps up to t_max times slices a search may take (see
# _lattice): the grid lookup gathers one table entry per step and slice, so
# this bounds its memory. At the cap one search on the sorted layout peaks
# near 120 MB from 4 to 1024 slices and near 325 MB on one (tracemalloc). A
# default search takes at most 4096 steps at any intensity, so up to 1024
# slices only a smaller grid_step reaches the cap.
_MAX_STEP_SLICES = 2**22

# Robustness constants for the descent detection in find_t_lower, frozen from
# a tuning corpus of seeded synthetic volumes (disjoint from the test seeds).
# A descent probe only counts when the curve has fallen to below
# _DESCENT_DROP x its running maximum for _DESCENT_PERSIST consecutive probes;
# single-probe descents on small volumes are dominated by sampling noise of
# the variance curve and would fire long before the structural maximum.
_DESCENT_DROP = 0.25
_DESCENT_PERSIST = 2
# Background-saturation stop: once at least _SATURATION_FLOOR of all pixels
# are positive and at or below t and an epsilon step up adds no more than the
# stray budget, the background is considered hole-free and the bracket starts
# at t. The same test, an epsilon step down, later validates a selected
# minimum: a threshold below which the background is still filling up cannot
# be the holes-filled optimum.
_SATURATION_FLOOR = 0.25
_SATURATION_STRAYS = 2e-5
_SATURATION_MIN_BUDGET = 2.0

# Grid values within this relative tolerance of the minimum tie; the smallest
# t wins (overestimating noise is worse than underestimating it).
_TIE_REL_TOL = 1e-12

# Thresholds whose mean per-slice std comes this close to the value at t_max
# retain an image statistically indistinguishable from the unthresholded one;
# they are no separation at all and cannot serve as the optimum. Without this
# the across-slice variance, which deflates as the per-slice std grows, can
# prefer a spurious minimum right of the object transition.
_NEAR_FULL_FRACTION = 0.95


class EstimationError(RuntimeError):
    """Raised when a volume yields no usable noise measurement."""


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the threshold search, all in intensity units.

    Every threshold the search reads is a point n * q of one lattice, n a
    whole number (see _lattice). The step q is ``grid_step``, times
    intensity_max/4095 for volumes exceeding the 12-bit range; ``t_start``
    and ``epsilon`` are whole steps, their values snapped to multiples of
    ``grid_step``, ``epsilon`` to at least one.
    """

    t_start: float = 40.0
    epsilon: float = 10.0
    grid_step: float = 1.0
    correction_factor: float = CORRECTION_FACTOR

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t_start, self.epsilon, self.grid_step, self.correction_factor))):
            raise ValueError("t_start, epsilon, grid_step and correction_factor must be finite")
        if self.t_start < 0:
            raise ValueError("t_start must be >= 0")
        if self.epsilon <= 0 or self.grid_step <= 0:
            raise ValueError("epsilon and grid_step must be > 0")
        if self.correction_factor <= 0:
            raise ValueError("correction_factor must be > 0")


@dataclass(frozen=True, eq=False)
class ThresholdResult:
    """Outcome of the threshold search.

    ``curve`` holds the (t, variance-of-stds, mean-of-stds) sample at every
    grid point, sorted strictly ascending in t: the lattice points n * q
    (see _lattice) from t_lower below t_max, then t_max. ``t_lower`` is a
    lattice point or t_max. ``t_rejected`` is the minimum
    discarded by the no-object guard, if the guard fired.
    """

    t_opt: float
    t_lower: float
    t_max: float
    curve: np.ndarray
    no_object: bool
    t_rejected: float | None = None

    def __post_init__(self):
        if not (self.t_lower <= self.t_opt <= self.t_max):
            raise ValueError("t_lower <= t_opt <= t_max violated")
        if self.no_object and self.t_opt != self.t_max:
            raise ValueError("no_object requires t_opt == t_max")
        ts = self.curve[:, 0]
        if ts.size and np.any(np.diff(ts) <= 0):
            raise ValueError("curve samples must be strictly ascending in t")


@dataclass(frozen=True, eq=False)
class NoiseEstimate:
    """Noise sigma, object signal mean and SNR for one volume.

    ``per_slice_sigma`` has one entry per slice; slices whose thresholded
    image kept no positive pixel contribute None and are skipped in the mean.
    ``zero_fraction`` is the share of pixels that are exactly zero.
    """

    sigma: float
    signal_mean: float
    snr: float
    per_slice_sigma: tuple[float | None, ...]
    threshold: ThresholdResult
    zero_fraction: float


class _VolumeScan:
    """Cumulative count, sum and sum of squares of each slice's values, by threshold.

    Thresholding at t keeps each slice's values <= t, so every per-slice
    statistic at any t is a lookup in three cumulative tables, ``count``,
    ``sum1`` and ``sum2``, of shape (n_slices, columns). The layout is chosen
    from the volume's dtype and size alone, and decides only how the tables
    are built and which column a t reads:

    * histogram: the volume holds unsigned integers (u8 or u16), every
      prefix sum is exact in float64 (pixels_per_slice * t_max**2 < 2**53)
      and the tables are no larger than the volume. Column L then covers the
      values <= L, so a lookup at t reads column floor(t) of every slice.
      Each sum is an integer below 2**53, so the tables equal the sorted
      prefix sums below bit for bit, and the whole curve costs
      O(slices x levels) whatever the voxel count. The histogram is counted
      one slice at a time, straight from the integer rows;
    * sorted: any other volume, float data included, even when its values
      happen to be integers. The scan holds a copy of the volume, float32
      for a float32 volume, else float64, with each slice sorted in place,
      and column k covers its k smallest values, so ``count`` is just k; a
      lookup binary-searches the sorted slices, a float32 one with every t
      rounded down to float32.
      ``sum1`` and ``sum2`` are the real and imaginary parts of one complex
      table, built by one ``cumsum``: complex addition adds the two parts
      apart, in the same order, so each part equals the real ``cumsum`` of
      the values or of their squares bit for bit. The sorted copy and this
      table are the scan's memory.

    The scan answers three queries: :meth:`curve_and_count` for a set of
    ts, and :meth:`positive_sigmas` and :meth:`mean_above` at the chosen t.
    Each reads the tables through one lookup, t-major with each t's slices
    contiguous, so both layouts and any set of ts sum a t's slices in the
    same order, and give the same values bit for bit.

    This is the histogram view of the background noise of Sijbers et al.,
    "Automatic estimation of the noise variance from the histogram of a
    magnitude MR image", MRI 25(1), 2007.
    """

    def __init__(self, volume: Volume):
        self.n_slices, h, w = volume.shape
        self.pixels_per_slice = h * w
        self.total_pixels = self.n_slices * self.pixels_per_slice
        self.t_max = volume.intensity_max
        self._rows = np.arange(self.n_slices)
        self._flat = volume.data.reshape(self.n_slices, self.pixels_per_slice)
        hist = self._histogram(self._flat)
        if hist is not None:
            self._build_histogram(hist)
        else:
            self._build_sorted(self._flat)
        # magnitudes are non-negative, so the values <= 0 are the zeros
        [self._zeros] = self._lookup(np.zeros(1), self._count)
        n_zeros = int(self._zeros.sum())
        self.positive_pixels = self.total_pixels - n_zeros
        self.zero_fraction = n_zeros / self.total_pixels

    def _histogram(self, flat: np.ndarray) -> np.ndarray | None:
        """Per-slice counts of each integer level when the histogram layout applies, else None."""
        m = self.pixels_per_slice
        if flat.dtype.kind != "u" or not (m * self.t_max**2 < 2.0**53 and self.t_max + 1 <= m):
            return None
        width = int(self.t_max) + 1
        hist = np.empty((self.n_slices, width), dtype=np.intp)
        # slice by slice, so the levels never take a volume-sized intp copy
        for j, row in enumerate(flat):
            hist[j] = np.bincount(row, minlength=width)
        return hist

    def _build_histogram(self, hist: np.ndarray) -> None:
        values = np.arange(hist.shape[1], dtype=np.float64)
        self._sorted = None
        self._count = np.cumsum(hist, axis=1)
        self._sum1 = np.cumsum(hist * values, axis=1)
        self._sum2 = np.cumsum(hist * (values * values), axis=1)

    def _build_sorted(self, flat: np.ndarray) -> None:
        n, m = flat.shape
        # Every entry past column 0 is written below, so the table is not
        # zeroed. It is allocated before the sorted copy: the other way round,
        # with glibc's heap never trimmed (bench/run.py PINNED_ENV), the peak
        # RSS of estimates on 128x128x60 f32 volumes rose from 68.4 to 78.7 MB.
        sums = np.empty((n, m + 1), np.complex128)
        # float32 values sort as they are, anything else as float64; each is
        # widened exactly, so the sums are those of the volume's float64 copy
        self._sorted = flat.astype(np.float32 if flat.dtype == np.float32 else np.float64)
        # row by row, in place, so that no sort temporary reaches the table's size
        for row in self._sorted:
            row.sort()
        # a view: column k of every slice holds k values
        self._count = np.broadcast_to(np.arange(m + 1), (n, m + 1))
        # values in the real part, squares in the imaginary part, both prefix
        # sums in one pass; 0.0 + x is x, so the leading zero column changes no
        # sum. The squares are of the float64 values: a float32 product rounds.
        sums[:, 0] = 0.0
        values = sums.real[:, 1:]
        values[...] = self._sorted
        np.multiply(values, values, out=sums.imag[:, 1:])
        np.cumsum(sums, axis=1, out=sums)
        self._sum1, self._sum2 = sums.real, sums.imag

    def _columns(self, ts: np.ndarray) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Index of every t into a transposed, (columns, n_slices), table.

        On the histogram layout, the highest level <= t, shape (len(ts),):
        a row take, several times faster than numpy's general two-array
        gather. On the sorted one, the count of each slice's values <= t,
        shape (len(ts), n_slices), paired with the slice index.

        numpy has no batched searchsorted; one call per slice over all of ts
        costs what any vectorised form would.
        """
        if self._sorted is None:
            return np.clip(np.floor(ts), 0, self._count.shape[1] - 1).astype(np.intp)
        if self._sorted.dtype != ts.dtype:
            # the largest float32 <= t: a float32 value is <= t exactly when it
            # is <= that, and a float32 search does not widen the row per call
            near = ts.astype(self._sorted.dtype)
            ts = np.where(near > ts, np.nextafter(near, near.dtype.type(-np.inf)), near)
        k = np.empty((ts.size, self.n_slices), dtype=np.intp)
        for j, row in enumerate(self._sorted):
            k[:, j] = np.searchsorted(row, ts, side="right")
        return k, self._rows

    def _lookup(self, ts: np.ndarray, *tables: np.ndarray) -> list[np.ndarray]:
        """Each table at every (t, slice): t-major, each t's slices contiguous."""
        key = self._columns(ts)
        return [table.T[key] for table in tables]

    def _stds(self, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        """Population stds of looked-up sums, computed in place: s2/n - (s1/n)**2,
        floored at 0, then the root. The lookup's copies are consumed, so a
        grid at the step cap holds no table-sized temporary beyond them."""
        n = self.pixels_per_slice
        s1 /= n
        s1 *= s1
        s2 /= n
        s2 -= s1
        np.maximum(s2, 0.0, out=s2)
        return np.sqrt(s2, out=s2)

    def curve_and_count(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per t in ts, from one lookup: the variance over slices of the
        population stds (all pixels, zeros included), their mean, and the
        number of positive pixels <= t in the whole volume. A t gives the
        same three values in any call. The probe ladder is evaluated in one
        call, and so is the grid."""
        count, s1, s2 = self._lookup(ts, self._count, self._sum1, self._sum2)
        count -= self._zeros
        positives = count.sum(axis=1)
        stds = self._stds(s1, s2)
        mean_sigma = stds.mean(axis=1)
        stds -= mean_sigma[:, None]
        stds *= stds
        return stds.mean(axis=1), mean_sigma, positives

    def mean_above(self, t: float) -> float:
        """Mean of the pixels above t, 0.0 when none is.

        On the histogram layout the tables hold integers, so the count and
        sum above t are exact differences and need no pass over the volume;
        the sum is taken in Python integers and divided once, the correctly
        rounded mean. The sorted layout's prefix sums are rounded in sorted
        order, so there the mean is taken over the pixels themselves.
        """
        if self._sorted is not None:
            # a float64 t: a Python float would compare in float32 (NEP 50)
            above = self._flat[self._flat > np.float64(t)]
            return float(above.astype(np.float64, copy=False).mean()) if above.size else 0.0
        count, s1 = self._lookup(np.array([float(t)]), self._count, self._sum1)
        n_above = self.total_pixels - int(count.sum())
        if n_above == 0:
            return 0.0
        return sum(map(int, self._sum1[:, -1] - s1[0])) / n_above

    def positive_sigmas(self, t: float, f_e: float) -> list[float | None]:
        """Corrected positive-pixel std per slice at t (None when empty)."""
        count, s1, s2 = self._lookup(np.array([float(t)]), self._count, self._sum1, self._sum2)
        out: list[float | None] = []
        # scalar arithmetic on purpose: numpy's scalar ** 2 calls pow(), which
        # can differ in the last bit from the array ** 2 (a product)
        for kj, a, b in zip(count[0] - self._zeros[0], s1[0], s2[0]):
            if kj == 0:
                out.append(None)
            else:
                var = b / kj - (a / kj) ** 2
                out.append(f_e * math.sqrt(max(var, 0.0)))
        return out


def _stray_budget(scan: _VolumeScan) -> float:
    return max(_SATURATION_MIN_BUDGET, _SATURATION_STRAYS * scan.total_pixels)


def _gap_free(scan: _VolumeScan, retained: np.ndarray, gained: np.ndarray) -> np.ndarray:
    """Per t, the saturation test above: ``retained`` positive pixels, and the
    ``gained`` ones of an epsilon step, up from a probe or down from a grid point."""
    return (retained >= _SATURATION_FLOOR * scan.total_pixels) & (gained <= _stray_budget(scan))


class _Lattice(NamedTuple):
    """The thresholds n * step of a search: the probes are the indices start,
    start + epsilon, ... below stop, and n * step < t_max exactly when n < stop."""

    step: float
    start: int
    epsilon: int
    stop: int


def _lattice(cfg: SearchConfig, t_max: float, n_slices: int = 1) -> _Lattice:
    """Scale and snap the search of a volume of ``n_slices`` to one lattice, once.

    The step is the only number that depends on the data: grid_step, times
    t_max/4095 beyond the 12-bit range. t_start and epsilon are whole steps
    set by the flags alone, t_start/grid_step and epsilon/grid_step rounded
    ties to the even one (Python's ``round``), epsilon to at least one. Over
    _MAX_STEP_SLICES steps up to t_max times slices, raises EstimationError.
    """
    q = cfg.grid_step * max(1.0, t_max / _TWELVE_BIT_MAX)
    steps = t_max / q
    if not steps * n_slices <= _MAX_STEP_SLICES:
        raise EstimationError(
            f"t_max={t_max!r} is {steps:.4g} lattice steps of {q!r} for each of {n_slices} slices, "
            f"over the cap of {_MAX_STEP_SLICES} steps x slices"
        )
    stop = math.ceil(steps)
    # the quotient is rounded; stop must hold for the products the grid computes
    while stop > 0 and (stop - 1) * q >= t_max:
        stop -= 1
    while stop * q < t_max:
        stop += 1
    # clamped at stop, which changes no probe and no count
    start = round(min(cfg.t_start / cfg.grid_step, stop))
    epsilon = max(1, round(min(cfg.epsilon / cfg.grid_step, stop)))
    return _Lattice(q, start, epsilon, stop)


def _probe_walk(scan: _VolumeScan, lattice: _Lattice) -> int | None:
    """Walk the probe ladder and locate a bracket start.

    Two stopping rules:

    * structural descent: the curve has fallen below _DESCENT_DROP x its
      running probe maximum while locally descending, for _DESCENT_PERSIST
      consecutive probes. Returns the probe preceding the descent, i.e. a
      point right of the structural maximum and left of the minimum.
    * background saturation: the step up to the next probe is gap-free (see
      _gap_free). Once the background is covered without holes the minimum
      cannot lie further left.

    The whole probe ladder is evaluated by one lookup, and the first probe
    at which a rule fires wins, the descent rule first. Returns its lattice
    index, or None, which means t_max, when neither rule fires (curve never
    turns down).
    """
    ns = np.arange(lattice.start, lattice.stop, lattice.epsilon)
    if not ns.size:
        return None
    values, _, retained = scan.curve_and_count(ns * lattice.step)
    run_max = np.maximum.accumulate(values)
    descent = np.zeros(ns.size, dtype=bool)
    descent[1:] = (values[1:] < values[:-1]) & (values[1:] < _DESCENT_DROP * run_max[1:])
    # probe i fires when it ends a run of _DESCENT_PERSIST descents
    runs = np.concatenate(([0], np.cumsum(descent)))
    fires = np.flatnonzero(runs[_DESCENT_PERSIST:] - runs[:-_DESCENT_PERSIST] == _DESCENT_PERSIST)
    fires += _DESCENT_PERSIST - 1
    # a step up from a probe is the next one, and from the last at least
    # t_max, where every positive pixel is retained
    gained = np.append(retained[1:], scan.positive_pixels) - retained
    saturated = np.flatnonzero(_gap_free(scan, retained, gained))
    if fires.size and (not saturated.size or fires[0] <= saturated[0]):
        return int(ns[fires[0] - _DESCENT_PERSIST])
    if saturated.size:
        return int(ns[saturated[0]])
    return None


def find_t_lower(volume: Volume, cfg: SearchConfig = SearchConfig()) -> float:
    """Left end of the minimum-search bracket (see _probe_walk)."""
    scan = _VolumeScan(volume)
    lattice = _lattice(cfg, scan.t_max, scan.n_slices)
    n = _probe_walk(scan, lattice)
    return scan.t_max if n is None else n * lattice.step


def _tied_argmin(values: np.ndarray) -> int:
    """Index of the smallest value; ties within tolerance go to the smallest index."""
    best = values.min()
    ties = np.nonzero(values - best <= _TIE_REL_TOL * np.maximum(np.abs(values), abs(best)))[0]
    return int(ties[0])


def find_t_opt(
    volume: Volume, cfg: SearchConfig = SearchConfig(), *, scan: _VolumeScan | None = None
) -> ThresholdResult:
    """Select the threshold minimizing the across-slice variance of stds.

    The grid is every lattice point n * q from t_lower below t_max,
    then t_max; one lookup, extended epsilon steps down, gives its curve and
    coverage counts. One rule selects the threshold:

    * no-object guard: when the mean per-slice std at the raw minimum of the
      whole grid exceeds its value at t_max, the image holds nothing but
      background; t_opt is t_max and the raw minimum is ``t_rejected``;
    * otherwise t_opt is the smallest variance among the admissible grid
      points (ties within _TIE_REL_TOL go to the smallest t), or t_max when
      none is. A point is admissible when its mean per-slice std is at most
      _NEAR_FULL_FRACTION of the value at t_max and the epsilon step below it
      is gap-free (see _gap_free): offset backgrounds develop false valleys
      mid-bulk, where the background is still filling up.

    ``scan`` is a prebuilt scan of ``volume``; one is built when it is
    omitted. Raises EstimationError, before any lookup, when the lattice
    steps times the slices are over their cap.
    """
    if scan is None:
        scan = _VolumeScan(volume)
    lattice = _lattice(cfg, scan.t_max, scan.n_slices)
    eps, stop = lattice.epsilon, lattice.stop
    lower = _probe_walk(scan, lattice)
    if lower is None:
        lower = stop  # the curve is t_max alone
    first = max(lower - eps, 0)
    ts = np.append(np.arange(first, stop) * lattice.step, scan.t_max)
    variances, mean_sigmas, counts = scan.curve_and_count(ts)
    # the curve starts at index k; a step down from lattice index n reads
    # n - eps, or 0 (t = 0) below it. t_max off the lattice needs no flag: its
    # mean std passes the near-full test only when it is 0, and then every
    # variance is 0 and t_max, the last point, wins only as the fallback
    k = lower - first
    gained = counts[k:] - counts[np.maximum(np.arange(k - eps, ts.size - eps), 0)]
    covered = _gap_free(scan, counts[k:], gained)
    ts, variances, mean_sigmas = ts[k:], variances[k:], mean_sigmas[k:]
    sigma_at_max = float(mean_sigmas[-1])
    idx = _tied_argmin(variances)
    t_rejected = None
    if mean_sigmas[idx] > sigma_at_max:
        # no-object guard on the raw minimum
        t_opt, t_rejected = scan.t_max, float(ts[idx])
    else:
        # the minimum over the thresholds that truly separate: hole-free
        # background and materially below the full image
        sub = np.flatnonzero((mean_sigmas <= _NEAR_FULL_FRACTION * sigma_at_max) & covered)
        t_opt = float(ts[sub[_tied_argmin(variances[sub])]]) if sub.size else scan.t_max
    return ThresholdResult(
        t_opt=t_opt,
        t_lower=float(ts[0]),
        t_max=float(scan.t_max),
        curve=np.column_stack((ts, variances, mean_sigmas)),
        no_object=bool(t_opt == scan.t_max),
        t_rejected=t_rejected,
    )


def estimate(volume: Volume, cfg: SearchConfig = SearchConfig()) -> NoiseEstimate:
    """Full automatic estimate: threshold, noise sigma, signal mean, SNR.

    Signal is the mean of the original pixels above the threshold; with
    no_object there are no such pixels and signal/SNR are zero. Every figure,
    the zero fraction included, comes from the one scan of the volume.
    """
    scan = _VolumeScan(volume)
    threshold = find_t_opt(volume, cfg, scan=scan)
    per_slice = tuple(scan.positive_sigmas(threshold.t_opt, cfg.correction_factor))
    present = [v for v in per_slice if v is not None]
    if not present:
        raise EstimationError(
            f"no background found at t={threshold.t_opt!r}: all slices empty after thresholding"
        )
    sigma = float(np.mean(present))
    if threshold.no_object:
        signal_mean, snr = 0.0, 0.0
    else:
        signal_mean = scan.mean_above(threshold.t_opt)
        snr = signal_mean / sigma if sigma > 0 else 0.0
    return NoiseEstimate(sigma, signal_mean, snr, per_slice, threshold, scan.zero_fraction)


def background_roi_noise(volume: Volume, mask) -> float:
    """Classical reference estimator: sigma from a known background region.

    The noise variance is half the mean squared magnitude over the masked
    pixels, squared in float64. ``mask`` is boolean, either one slice-shaped
    map applied to every slice or a full per-voxel map.
    """
    mask = np.asarray(mask, dtype=bool)
    data = volume.data
    if mask.shape == data.shape[1:]:
        selected = data[:, mask]
    elif mask.shape == data.shape:
        selected = data[mask]
    else:
        raise ValueError(f"mask shape {mask.shape} matches neither a slice {data.shape[1:]} nor the volume {data.shape}")
    if selected.size == 0:
        raise ValueError("mask selects no pixel")
    # an integer volume's squares would wrap in its own dtype
    return float(math.sqrt(0.5 * np.mean(np.square(selected, dtype=np.float64))))
