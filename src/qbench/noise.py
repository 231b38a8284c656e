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

A volume holds u8, u16, float32 or float64 samples (see ``volume``). Every
threshold the search reads is a point of one lattice, and every statistic
at a threshold is read from one scan of the volume: per-slice tables of its
pixels binned on that lattice (see _VolumeScan), built the same way for
every dtype. Every statistic is computed in float64 and is the same for u8,
u16 or float32 data as for its float64 copy, bit for bit.
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
# _lattice): the scan keeps three float64 table entries per step and slice,
# 24 bytes, so this bounds its memory. At the cap one search, the scan's
# build included, peaks near 105 MB from 64 to 1024 slices, 122 MB on 16,
# 190 MB on 4 and 460 MB on one, where the grid's per-step arrays, about 85
# bytes a step, add the most (tracemalloc). A default search takes at most
# 4096 steps at any intensity, so up to 1024 slices only a smaller grid_step
# reaches the cap.
_MAX_STEP_SLICES = 2**22
# (index, slice) entries that one block of curve_and_count takes from the
# tables: a grid at the cap copies 1.5 MB of them at a time, not 100 MB.
_BLOCK = 2**16

# Robustness constants for the descent detection in _probe_walk, frozen from
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
    """Cumulative count, sum and sum of squares of each slice's pixels, by lattice index.

    Thresholding at t keeps each slice's pixels <= t, and every threshold a
    search reads is a point n * q of its lattice (see _lattice) or t_max.
    So the scan bins each slice's pixels on the lattice, bin n holding
    (n - 1) * q < x <= n * q (see _lattice_index): bin 0 holds the zeros,
    and bin ``stop`` reaches t_max. Per bin it takes the count, the sum and
    the sum of squares, in float64, and their cumulative sums over the bins
    are three tables of shape (n_slices, stop + 1), stacked in ``_tables``:
    column n holds the statistics of each slice's pixels <= n * q, and
    column ``stop`` those of all its pixels, which is where t_max reads.

    An integer (u8 or u16) row counts its levels with one ``bincount`` and
    folds those counts into the levels' bins (at q = 1, level L is bin L);
    any other row bins each pixel and fills the sums with weighted
    ``bincount`` calls. On integer data every sum is an integer, exact while
    a slice's sum of squares stays below 2**53 (up to about two million u16
    pixels a slice), so a u8 or u16 volume gives the tables of its float64
    copy bit for bit; a float32 volume's pixels widen exactly and are summed
    in the same order as its float64 copy's, so it does too.

    The scan answers three queries by lattice index: :meth:`curve_and_count`
    for a set of indices, and :meth:`positive_sigmas` and :meth:`mean_above`
    at the chosen one. Each takes table columns as rows, t-major with each
    t's slices contiguous, so an index gives the same values alone as inside
    a grid. Every answer, the signal mean of every dtype included, comes
    from the tables: the scan keeps no reference to the pixels, and its
    build is an estimate's only pass over them. The signal mean adds the
    slices' sums exactly, so it does not depend on slice order.

    This is the histogram view of the background noise of Sijbers et al.,
    "Automatic estimation of the noise variance from the histogram of a
    magnitude MR image", MRI 25(1), 2007.
    """

    def __init__(self, volume: Volume, cfg: SearchConfig):
        # first, so a lattice over the step cap raises before any table exists
        self.lattice = lattice = _lattice(cfg, volume.intensity_max, volume.n_slices)
        self.n_slices, h, w = volume.shape
        self.pixels_per_slice = h * w
        self.total_pixels = self.n_slices * self.pixels_per_slice
        self.t_max = volume.intensity_max
        flat = volume.data.reshape(self.n_slices, self.pixels_per_slice)
        if flat.dtype.kind == "u":
            self._levels = np.arange(int(self.t_max) + 1, dtype=np.float64)
            # at q = 1 level L is bin L, and the fold is the identity
            self._level_bins = None if lattice.step == 1.0 else _lattice_index(self._levels, lattice.step)
        self._tables = np.empty((3, self.n_slices, lattice.stop + 1))
        for j, row in enumerate(flat):
            for table, sums in zip(self._tables, self._bin_sums(row)):
                table[j] = sums
        np.cumsum(self._tables, axis=2, out=self._tables)
        # magnitudes are non-negative, so bin 0 holds the zeros
        self._zeros = self._tables[0, :, 0]
        n_zeros = int(self._zeros.sum())
        self.positive_pixels = self.total_pixels - n_zeros
        self.zero_fraction = n_zeros / self.total_pixels

    def _bin_sums(self, row: np.ndarray) -> list[np.ndarray]:
        """Count, sum and sum of squares of one slice's pixels in each lattice bin."""
        if row.dtype.kind == "u":
            count = np.bincount(row, minlength=self._levels.size)
            values, bins = self._levels, self._level_bins
            first = count * values
        else:
            # each pixel is its own bin entry, of weight one
            count, values = None, row.astype(np.float64, copy=False)
            bins = _lattice_index(values, self.lattice.step)
            first = values
        sums = [count, first, values * first]
        if bins is None:
            return sums
        return [np.bincount(bins, w, self.lattice.stop + 1) for w in sums]

    def _stds(self, s1: np.ndarray, s2: np.ndarray) -> np.ndarray:
        """Population stds of taken sums, computed in place: s2/n - (s1/n)**2,
        floored at 0, then the root."""
        n = self.pixels_per_slice
        s1 /= n
        s1 *= s1
        s2 /= n
        s2 -= s1
        np.maximum(s2, 0.0, out=s2)
        return np.sqrt(s2, out=s2)

    def curve_and_count(self, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per lattice index in ns: the variance over slices of the
        population stds (all pixels, zeros included), their mean, and the
        number of positive pixels up to that threshold in the whole volume.
        The probe ladder is evaluated in one call, and so is the grid. The
        indices are taken in blocks of about _BLOCK (index, slice) entries,
        so a grid at the step cap holds no copy the size of the tables; an
        index gives the same three values in any block of any call."""
        out = np.empty((3, ns.size))
        rows = max(1, _BLOCK // self.n_slices)
        for i in range(0, ns.size, rows):
            out[:, i : i + rows] = self._curve(ns[i : i + rows])
        return out[0], out[1], out[2]

    def _curve(self, ns: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``curve_and_count`` of one block, from one row take of each table:
        t-major, each t's slices contiguous."""
        count, s1, s2 = [table.T[ns] for table in self._tables]
        count -= self._zeros
        positives = count.sum(axis=1)
        stds = self._stds(s1, s2)
        mean_sigma = stds.mean(axis=1)
        stds -= mean_sigma[:, None]
        stds *= stds
        return stds.mean(axis=1), mean_sigma, positives

    def mean_above(self, n: int) -> float:
        """Mean of the pixels above lattice index n, 0.0 when none is.

        The count above is every pixel less the count column n, and each
        slice's sum above is its last sum column less column n. The slices'
        sums are added exactly (``math.fsum``) and divided once, so the mean
        does not depend on slice order. On u8 and u16 data each slice's sum
        is an exact integer, and the mean is the correctly rounded one.
        """
        count, s1, _ = self._tables
        n_above = self.total_pixels - int(count[:, n].sum())
        if n_above == 0:
            return 0.0
        return math.fsum(s1[:, -1] - s1[:, n]) / n_above

    def positive_sigmas(self, n: int, f_e: float) -> list[float | None]:
        """Corrected positive-pixel std per slice at lattice index n (None
        when empty), from the tables' moments (:func:`slice_sigmas`)."""
        count, s1, s2 = self._tables[:, :, n]
        return slice_sigmas(count - self._zeros, s1, s2, f_e)


def slice_sigmas(count: np.ndarray, s1: np.ndarray, s2: np.ndarray, f_e: float) -> list[float | None]:
    """Per slice, ``f_e`` times the population std of its ``count`` samples
    of sum ``s1`` and sum of squares ``s2``, all float64: the root of s2/k -
    (s1/k)**2, None where k is 0. The estimate and the resolution curve take
    every per-slice sigma from here.

    A variance at most 2k·eps·(s1/k)**2 reads exactly 0, so a slice of one
    value reads 0 as ``np.std`` reads it: that bounds the first-order
    rounding of each k-term sum (Higham, SIAM J. Sci. Comput. 14(4), 1993),
    and on one-value slices of 1 to 1024x1024 samples the difference left
    reached 0.39 of it. So a slice whose spread is below sqrt(2k·eps) of
    its mean reads 0 too.

    (s1/k)**2 is libm's pow() (``float_power``), as the per-slice sigmas
    have always had it; the product in ``_VolumeScan._stds`` can differ from
    it in the last bit."""
    with np.errstate(divide="ignore", invalid="ignore"):
        square = np.float_power(s1 / count, 2)
        var = s2 / count - square
        var[var <= 2 * np.finfo(np.float64).eps * count * square] = 0.0
    return [None if k == 0 else f_e * v for k, v in zip(count, np.sqrt(var).tolist())]


def mean_sigma(per_slice) -> float | None:
    """The mean of the sigmas of ``per_slice`` that are not None, or None
    when none is: the estimate's noise and each curve factor's."""
    present = [v for v in per_slice if v is not None]
    return float(np.mean(present)) if present else None


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


def _lattice_index(x, step: float):
    """The lattice index of every value of ``x``: the smallest whole n with
    x <= n * step, for the float64 products n * step the grid computes. A
    lattice point n * step has index n, and t_max index ``stop``. x / step is
    rounded, so its ceiling may be one step off either way; at step 1 the
    quotient and both products are exact, so neither correction can fire."""
    if step == 1.0:
        return np.ceil(x).astype(np.intp)
    n = np.ceil(x / step)
    n -= (n - 1.0) * step >= x
    n += n * step < x
    return n.astype(np.intp)


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
    stop = int(_lattice_index(t_max, q))
    # clamped at stop, which changes no probe and no count
    start = round(min(cfg.t_start / cfg.grid_step, stop))
    epsilon = max(1, round(min(cfg.epsilon / cfg.grid_step, stop)))
    return _Lattice(q, start, epsilon, stop)


def _probe_walk(scan: _VolumeScan) -> int | None:
    """Walk the probe ladder and locate a bracket start.

    Two stopping rules:

    * structural descent: the curve has fallen below _DESCENT_DROP x its
      running probe maximum while locally descending, for _DESCENT_PERSIST
      consecutive probes. Returns the probe preceding the descent, i.e. a
      point right of the structural maximum and left of the minimum.
    * background saturation: the step up to the next probe is gap-free (see
      _gap_free). Once the background is covered without holes the minimum
      cannot lie further left.

    The whole probe ladder is evaluated by one row take, and the first probe
    at which a rule fires wins, the descent rule first. Returns its lattice
    index, or None, which means t_max, when neither rule fires (curve never
    turns down).
    """
    lattice = scan.lattice
    ns = np.arange(lattice.start, lattice.stop, lattice.epsilon)
    if not ns.size:
        return None
    values, _, retained = scan.curve_and_count(ns)
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
    """``estimate(volume, cfg).threshold.t_lower``, from the probe walk alone
    (see _probe_walk) on a scan of its own, for the bench harness to time."""
    scan = _VolumeScan(volume, cfg)
    n = _probe_walk(scan)
    return volume.intensity_max if n is None else n * scan.lattice.step


def _tied_argmin(values: np.ndarray) -> int:
    """Index of the smallest value; ties within tolerance go to the smallest index."""
    best = values.min()
    ties = np.nonzero(values - best <= _TIE_REL_TOL * np.maximum(np.abs(values), abs(best)))[0]
    return int(ties[0])


def find_t_opt(scan: _VolumeScan) -> ThresholdResult:
    """Select the threshold minimizing the across-slice variance of stds.

    The grid is every lattice point n * q from t_lower below t_max,
    then t_max; one row take, extended epsilon steps down, gives its curve
    and coverage counts. One rule selects the threshold:

    * no-object guard: when the mean per-slice std at the raw minimum of the
      whole grid exceeds its value at t_max, the image holds nothing but
      background; t_opt is t_max and the raw minimum is ``t_rejected``;
    * otherwise t_opt is the smallest variance among the admissible grid
      points (ties within _TIE_REL_TOL go to the smallest t), or t_max when
      none is. A point is admissible when its mean per-slice std is at most
      _NEAR_FULL_FRACTION of the value at t_max and the epsilon step below it
      is gap-free (see _gap_free): offset backgrounds develop false valleys
      mid-bulk, where the background is still filling up.

    The scan, which ``estimate`` builds, is the search's one input, and its
    lattice sets every threshold the search reads.
    """
    eps, stop = scan.lattice.epsilon, scan.lattice.stop
    lower = _probe_walk(scan)
    if lower is None:
        lower = stop  # the curve is t_max alone
    first = max(lower - eps, 0)
    ns = np.arange(first, stop + 1)
    variances, mean_sigmas, counts = scan.curve_and_count(ns)
    # the curve starts at index k; a step down from lattice index n reads
    # n - eps, or 0 (t = 0) below it. t_max off the lattice needs no flag: its
    # mean std passes the near-full test only when it is 0, and then every
    # variance is 0 and t_max, the last point, wins only as the fallback
    k = lower - first
    gained = counts[k:] - counts[np.maximum(np.arange(k - eps, ns.size - eps), 0)]
    covered = _gap_free(scan, counts[k:], gained)
    # index stop reads t_max
    ts = ns[k:] * scan.lattice.step
    ts[-1] = scan.t_max
    variances, mean_sigmas = variances[k:], mean_sigmas[k:]
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
    the zero fraction included, comes from the one scan of the volume. A
    sigma or SNR beyond the float range is an EstimationError.
    """
    scan = _VolumeScan(volume, cfg)
    threshold = find_t_opt(scan)
    n = _lattice_index(threshold.t_opt, scan.lattice.step)
    per_slice = tuple(scan.positive_sigmas(n, cfg.correction_factor))
    sigma = mean_sigma(per_slice)
    if sigma is None:
        raise EstimationError(
            f"no background found at t={threshold.t_opt!r}: all slices empty after thresholding"
        )
    if threshold.no_object:
        signal_mean, snr = 0.0, 0.0
    else:
        signal_mean = scan.mean_above(n)
        snr = signal_mean / sigma if sigma > 0 else 0.0
    if not math.isfinite(sigma) or not math.isfinite(snr):
        raise EstimationError(f"sigma {sigma!r} and SNR {snr!r} must be finite; correction_factor is {cfg.correction_factor!r}")
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
