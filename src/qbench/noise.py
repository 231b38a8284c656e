"""Automatic noise/signal estimation via a variance-based threshold.

The estimator cuts every pixel above a threshold t to zero and measures, per
slice, the population std of the result. The across-slice variance of those
stds is small when the thresholded slices look alike, i.e. when t retains the
background noise without holes and without object pixels. The optimal t is the
minimum of that variance curve over [t_lower, t_max], guarded by the condition
that the mean per-slice std at t must not exceed its value at t_max (volumes
without any object would otherwise pick a meaningless interior minimum).

Noise is then the correction-factor-scaled std of the positive pixels of the
thresholded slices, averaged over slices; signal is the mean of the original
pixels above the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .volume import PixelStats, Slice, Volume, stats_positive

__all__ = [
    "CORRECTION_FACTOR",
    "CORRECTION_FACTOR_ANALYTIC",
    "SearchConfig",
    "ThresholdResult",
    "NoiseEstimate",
    "EstimationError",
    "apply_threshold",
    "positive_noise",
    "mean_positive_noise",
    "homogeneity_variance",
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

# Intensity range above which the probe constants are rescaled; the defaults
# (t_start=40, epsilon=10) assume typical 12-bit scanner data.
_TWELVE_BIT_MAX = 4095.0

# Robustness constants for the descent detection in find_t_lower, frozen from
# a tuning corpus of seeded synthetic volumes (disjoint from the test seeds).
# A descent probe only counts when the curve has fallen to below
# _DESCENT_DROP x its running maximum for _DESCENT_PERSIST consecutive probes;
# single-probe descents on small volumes are dominated by sampling noise of
# the variance curve and would fire long before the structural maximum.
_DESCENT_DROP = 0.25
_DESCENT_PERSIST = 2
# Background-saturation stop: once at least _SATURATION_FLOOR of all pixels
# lie at or below t and an epsilon-step adds no more than the stray budget,
# the background is considered hole-free and the bracket starts at t. The
# same test later validates a selected minimum: a threshold below which the
# background is still filling up cannot be the holes-filled optimum.
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

    ``t_start`` and ``epsilon`` are rescaled by intensity_max/4095 for volumes
    exceeding the 12-bit range. ``grid`` selects the candidate set for the
    minimum: a uniform grid of quantum ``grid_step`` or the exact distinct
    pixel values.
    """

    t_start: float = 40.0
    epsilon: float = 10.0
    grid_step: float = 1.0
    correction_factor: float = CORRECTION_FACTOR
    search_mode: str = "bracketed"
    grid: str = "uniform"

    def __post_init__(self):
        if self.t_start < 0:
            raise ValueError("t_start must be >= 0")
        if self.epsilon <= 0 or self.grid_step <= 0:
            raise ValueError("epsilon and grid_step must be > 0")
        if self.correction_factor <= 0:
            raise ValueError("correction_factor must be > 0")
        if self.search_mode not in ("bracketed", "exhaustive"):
            raise ValueError("search_mode must be 'bracketed' or 'exhaustive'")
        if self.grid not in ("uniform", "distinct"):
            raise ValueError("grid must be 'uniform' or 'distinct'")

    def scaled_to(self, intensity_max: float) -> "SearchConfig":
        """Config with t_start/epsilon rescaled for volumes beyond 12-bit range."""
        if intensity_max <= _TWELVE_BIT_MAX:
            return self
        s = intensity_max / _TWELVE_BIT_MAX
        return replace(self, t_start=self.t_start * s, epsilon=self.epsilon * s)


@dataclass(frozen=True, eq=False)
class ThresholdResult:
    """Outcome of the threshold search.

    ``curve`` holds the evaluated (t, variance-of-stds, mean-of-stds) samples,
    sorted strictly ascending in t: the full grid in exhaustive mode, the
    probed subset in bracketed mode. ``t_rejected`` is the interior minimum
    discarded by the no-object guard, if the guard fired.
    """

    t_opt: float
    t_lower: float
    t_max: float
    curve: np.ndarray
    no_object: bool
    mode_used: str
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
    """

    sigma: float
    signal_mean: float
    snr: float
    per_slice_sigma: tuple[float | None, ...]
    threshold: ThresholdResult


def apply_threshold(sl: Slice, t: float) -> Slice:
    """Zero every pixel whose value exceeds t; values <= t pass through."""
    if t < 0:
        raise ValueError("threshold must be >= 0")
    return Slice(np.where(sl.pixels <= t, sl.pixels, 0.0))


def positive_noise(sl: Slice, t: float, f_e: float = CORRECTION_FACTOR) -> float | None:
    """Corrected std of the positive pixels after thresholding at t.

    Returns None when no positive pixel survives; callers must skip such
    slices when averaging.
    """
    if f_e <= 0:
        raise ValueError("correction factor must be > 0")
    stats = stats_positive(apply_threshold(sl, t))
    if stats.is_empty:
        return None
    return f_e * stats.std


def mean_positive_noise(volume: Volume, t: float, f_e: float = CORRECTION_FACTOR) -> float:
    """Average the per-slice corrected noise over slices that retain pixels."""
    values = [v for img in volume.data if (v := positive_noise(Slice(img), t, f_e)) is not None]
    if not values:
        raise EstimationError(f"no background found at t={t!r}: all slices empty after thresholding")
    return float(np.mean(values))


def homogeneity_variance(volume: Volume, t: float) -> tuple[float, float]:
    """Across-slice variance and mean of the per-slice stds at threshold t.

    Per slice the population std of the thresholded image is taken over all
    pixels, zeros included. Both the variance and the mean use the 1/n
    divisor over the n slices.
    """
    if t < 0:
        raise ValueError("threshold must be >= 0")
    stds = np.array([np.where(img <= t, img, 0.0).std() for img in volume.data])
    mean_sigma = float(stds.mean())
    return float(((stds - mean_sigma) ** 2).mean()), mean_sigma


class _VolumeScan:
    """Cumulative count, sum and sum of squares of each slice's values, by threshold.

    Thresholding at t keeps each slice's values <= t, so every per-slice
    statistic at any t is a lookup in three cumulative tables of shape
    (n_slices, columns). The layout is chosen from the data alone:

    * histogram: the values are integers, every prefix sum is exact in
      float64 (pixels_per_slice * t_max**2 < 2**53) and the tables are no
      larger than the volume. Column L then covers the values <= L, so a
      lookup at t reads column floor(t). Each sum is an integer below 2**53,
      so the tables equal the sorted prefix sums below bit for bit, and the
      whole curve costs O(slices x levels) whatever the voxel count;
    * sorted: any other volume. Each slice is sorted once (one
      ``np.sort(axis=1)``) and column k covers its k smallest values; a
      lookup binary-searches the sorted slices.

    This is the histogram view of the background noise of Sijbers et al.,
    "Automatic estimation of the noise variance from the histogram of a
    magnitude MR image", MRI 25(1), 2007.
    """

    def __init__(self, volume: Volume):
        self.n_slices, h, w = volume.shape
        self.pixels_per_slice = h * w
        self.total_pixels = self.n_slices * self.pixels_per_slice
        self.t_max = volume.intensity_max
        flat = volume.data.reshape(self.n_slices, self.pixels_per_slice)
        levels = self._integral_levels(flat)
        if levels is not None:
            self._build_histogram(levels)
        else:
            self._build_sorted(flat)
        self._zeros_total = int(self._zeros.sum())

    def _integral_levels(self, flat: np.ndarray) -> np.ndarray | None:
        """The values as int64 levels when the histogram layout applies, else None."""
        m = self.pixels_per_slice
        if not (m * self.t_max**2 < 2.0**53 and self.t_max + 1 <= m):
            return None
        levels = flat.astype(np.int64)
        return levels if np.array_equal(levels, flat) else None

    def _build_histogram(self, levels: np.ndarray) -> None:
        n, width = self.n_slices, int(self.t_max) + 1
        levels += (np.arange(n) * width)[:, None]
        hist = np.bincount(levels.ravel(), minlength=n * width).reshape(n, width)
        values = np.arange(width, dtype=np.float64)
        self._sorted = None
        self._zeros = hist[:, 0].copy()
        self._count = np.cumsum(hist, axis=1)
        self._sum1 = np.cumsum(hist * values, axis=1)
        self._sum2 = np.cumsum(hist * (values * values), axis=1)
        self._global_count = self._count.sum(axis=0)

    def _build_sorted(self, flat: np.ndarray) -> None:
        n, m = flat.shape
        self._sorted = np.sort(flat, axis=1)
        self._zeros = np.count_nonzero(self._sorted <= 0.0, axis=1)
        self._sum1 = np.empty((n, m + 1))
        self._sum2 = np.empty((n, m + 1))
        self._sum1[:, 0] = 0.0
        self._sum2[:, 0] = 0.0
        # the squares go through _sum1's buffer first, so no temporary is needed
        np.multiply(self._sorted, self._sorted, out=self._sum1[:, 1:])
        np.cumsum(self._sum1[:, 1:], axis=1, out=self._sum2[:, 1:])
        np.cumsum(self._sorted, axis=1, out=self._sum1[:, 1:])

    def _columns(self, ts: np.ndarray) -> np.ndarray:
        """Histogram column of each t: the highest level <= t."""
        return np.clip(np.floor(ts), 0, self._count.shape[1] - 1).astype(np.intp)

    def _ranks(self, ts: np.ndarray) -> np.ndarray:
        """Sorted layout: count of values <= t per (slice, t), zeros included.

        numpy has no batched searchsorted; one call per slice over all of ts
        costs what any vectorised form would.
        """
        k = np.empty((self.n_slices, ts.size), dtype=np.intp)
        for j, row in enumerate(self._sorted):
            k[j] = np.searchsorted(row, ts, side="right")
        return k

    def distinct_values(self) -> np.ndarray:
        """Sorted unique positive pixel values across the volume."""
        if self._sorted is None:
            return np.flatnonzero(np.diff(self._global_count)).astype(np.float64) + 1.0
        vals = self._sorted.ravel()
        return np.unique(vals[vals > 0])

    def positive_count(self, ts: np.ndarray) -> np.ndarray:
        """Number of positive pixels <= t in the whole volume, for every t in ts."""
        if self._sorted is None:
            return self._global_count[self._columns(ts)] - self._zeros_total
        return self._ranks(ts).sum(axis=0) - self._zeros_total

    def _moments(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Retained positive count, sum and sum-of-squares per (slice, t)."""
        if self._sorted is None:
            cols = self._columns(ts)
            k, s1, s2 = self._count[:, cols], self._sum1[:, cols], self._sum2[:, cols]
        else:
            k = self._ranks(ts)
            s1 = np.take_along_axis(self._sum1, k, axis=1)
            s2 = np.take_along_axis(self._sum2, k, axis=1)
        return k - self._zeros[:, None], s1, s2

    def slice_stds(self, ts: np.ndarray) -> np.ndarray:
        """Population std per (slice, t) over all pixels, zeros included."""
        _, s1, s2 = self._moments(ts)
        n = self.pixels_per_slice
        var = s2 / n - (s1 / n) ** 2
        return np.sqrt(np.maximum(var, 0.0))

    @staticmethod
    def _spread(stds: np.ndarray, axis: int) -> tuple[np.ndarray, np.ndarray]:
        mean_sigma = stds.mean(axis=axis, keepdims=True)
        return ((stds - mean_sigma) ** 2).mean(axis=axis), mean_sigma.squeeze(axis)

    def curve(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Variance-of-stds and mean-of-stds for every t in ts (the grid).

        The sums over slices run in slice order, one t per column.
        """
        return self._spread(self.slice_stds(ts), axis=0)

    def points(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``point`` at every t in ts, in one evaluation.

        Each t's slices are summed as one contiguous run, which numpy sums
        pairwise, exactly as a single-point call does; ``curve`` sums in
        slice order and can differ from this in the last bit.
        """
        return self._spread(np.ascontiguousarray(self.slice_stds(ts).T), axis=1)

    def point(self, t: float) -> tuple[float, float]:
        var, mean_sigma = self.points(np.array([float(t)]))
        return float(var[0]), float(mean_sigma[0])

    def positive_sigmas(self, t: float, f_e: float) -> list[float | None]:
        """Corrected positive-pixel std per slice at t (None when empty)."""
        k, s1, s2 = self._moments(np.array([float(t)]))
        out: list[float | None] = []
        # scalar arithmetic on purpose: numpy's scalar ** 2 calls pow(), which
        # can differ in the last bit from the array ** 2 (a product)
        for kj, a, b in zip(k[:, 0], s1[:, 0], s2[:, 0]):
            if kj == 0:
                out.append(None)
            else:
                var = b / kj - (a / kj) ** 2
                out.append(f_e * math.sqrt(max(var, 0.0)))
        return out


def _stray_budget(scan: _VolumeScan) -> float:
    return max(_SATURATION_MIN_BUDGET, _SATURATION_STRAYS * scan.total_pixels)


def _is_saturated(scan: _VolumeScan, ts: np.ndarray, epsilon: float) -> np.ndarray:
    """Per t: the background is covered at t, with most mass already below t
    and an epsilon step adding at most a few stray pixels."""
    retained = scan.positive_count(ts)
    gained = scan.positive_count(ts + epsilon) - retained
    return (retained >= _SATURATION_FLOOR * scan.total_pixels) & (gained <= _stray_budget(scan))


def _background_covered(scan: _VolumeScan, ts: np.ndarray, epsilon: float) -> np.ndarray:
    """Per t: the retained region below t is gap-free at its top, the last
    epsilon of it gained only stray pixels. Unlike _is_saturated this ignores
    what lies above t, so a minimum right before an object onset is valid."""
    retained = scan.positive_count(ts)
    gained = retained - scan.positive_count(np.maximum(ts - epsilon, 0.0))
    return (retained >= _SATURATION_FLOOR * scan.total_pixels) & (gained <= _stray_budget(scan))


def _probe_walk(scan: _VolumeScan, cfg: SearchConfig, start: float) -> float:
    """Walk probes of epsilon width from ``start`` and locate a bracket start.

    Two stopping rules:

    * structural descent: the curve has fallen below _DESCENT_DROP x its
      running probe maximum while locally descending, for _DESCENT_PERSIST
      consecutive probes. Returns the probe preceding the descent, i.e. a
      point right of the structural maximum and left of the minimum.
    * background saturation: see _is_saturated. Once the background is
      covered without holes the minimum cannot lie further left.

    The whole probe ladder is evaluated at once and the first probe at which
    a rule fires wins, the descent rule first. Falls back to t_max when
    neither rule fires (curve never turns down).
    """
    cfg = cfg.scaled_to(scan.t_max)
    ladder = []
    t = start
    while t < scan.t_max:  # repeated addition places the probes bit for bit
        ladder.append(t)
        t += cfg.epsilon
    if not ladder:
        return scan.t_max
    ts = np.array(ladder)
    values, _ = scan.points(ts)
    run_max = np.maximum.accumulate(values)
    descent = np.zeros(ts.size, dtype=bool)
    descent[1:] = (values[1:] < values[:-1]) & (values[1:] < _DESCENT_DROP * run_max[1:])
    # probe i fires when it ends a run of _DESCENT_PERSIST descents
    runs = np.concatenate(([0], np.cumsum(descent)))
    fires = np.flatnonzero(runs[_DESCENT_PERSIST:] - runs[:-_DESCENT_PERSIST] == _DESCENT_PERSIST)
    fires += _DESCENT_PERSIST - 1
    saturated = np.flatnonzero(_is_saturated(scan, ts, cfg.epsilon))
    if fires.size and (not saturated.size or fires[0] <= saturated[0]):
        return float(ts[fires[0] - _DESCENT_PERSIST])
    if saturated.size:
        return float(ts[saturated[0]])
    return scan.t_max


def find_t_lower(volume: Volume, cfg: SearchConfig = SearchConfig()) -> float:
    """Left end of the minimum-search bracket (see _probe_walk)."""
    scan = _VolumeScan(volume)
    return float(_probe_walk(scan, cfg, cfg.scaled_to(scan.t_max).t_start))


def _build_grid(scan: _VolumeScan, cfg: SearchConfig, t_lower: float) -> np.ndarray:
    if cfg.grid == "distinct":
        vals = scan.distinct_values()
        ts = vals[(vals >= t_lower) & (vals <= scan.t_max)]
        if ts.size == 0 or ts[0] > t_lower:
            ts = np.concatenate(([t_lower], ts))
    else:
        step = cfg.scaled_to(scan.t_max).grid_step
        count = int(math.floor((scan.t_max - t_lower) / step)) + 1
        ts = t_lower + step * np.arange(count)
    if ts.size == 0 or ts[-1] < scan.t_max:
        ts = np.concatenate((ts, [scan.t_max]))
    return ts


def _is_tie(value: float, best: float) -> bool:
    return value - best <= _TIE_REL_TOL * max(abs(value), abs(best))


def _tied_argmin(values: np.ndarray) -> int:
    """Index of the smallest value; ties within tolerance go to the smallest index."""
    best = values.min()
    ties = np.nonzero(values - best <= _TIE_REL_TOL * np.maximum(np.abs(values), abs(best)))[0]
    return int(ties[0])


_STRATIFIED_PROBES = 16


def _bracketed_argmin(fn, size: int) -> tuple[int, dict[int, float], bool]:
    """Locate the minimum of a discrete curve by interval halving.

    ``fn(i)`` evaluates grid point i (memoized here). Each step compares the
    probe pair (mid, mid+1) and keeps the half containing the descent, which
    needs O(log size) evaluations on a unimodal curve. A fixed set of
    stratified probe pairs is evaluated up front; they do not steer the
    halving but feed the slope-pattern and best-seen checks, exposing
    secondary valleys at 1/_STRATIFIED_PROBES resolution. Returns the
    candidate index, the evaluation memo and a flag telling whether the
    evidence stayed consistent with a single valley; callers must rerun
    exhaustively when it did not.
    """
    memo: dict[int, float] = {}

    def f(i: int) -> float:
        if i not in memo:
            memo[i] = fn(i)
        return memo[i]

    slopes: list[tuple[int, int]] = []

    def probe_pair(i: int) -> tuple[float, float]:
        a, b = f(i), f(i + 1)
        if b != a:
            slopes.append((i, 1 if b > a else -1))
        return a, b

    for i in np.linspace(0, size - 2, min(size - 1, _STRATIFIED_PROBES)).round().astype(int):
        probe_pair(int(i))

    lo, hi = 0, size - 1
    f(lo)
    f(hi)
    while hi - lo >= 2:
        mid = (lo + hi) // 2
        a, b = probe_pair(mid)
        if a <= b:
            hi = mid
        else:
            lo = mid + 1
    cand = lo if f(lo) <= f(hi) else hi

    consistent = True
    # A rise at i followed by a fall at j > i implies a second valley.
    last_rise = None
    for i, s in sorted(slopes):
        if s > 0:
            last_rise = i
        elif last_rise is not None:
            consistent = False
    # The candidate must be a local minimum ...
    for j in (cand - 1, cand + 1):
        if 0 <= j < size and f(j) < f(cand) and not _is_tie(f(cand), f(j)):
            consistent = False
    # ... and no probed point may beat it.
    best_seen = min(memo.values())
    if f(cand) > best_seen and not _is_tie(f(cand), best_seen):
        consistent = False

    if consistent:
        # Among probed ties, prefer the smallest index like the oracle does.
        tied = [i for i, v in memo.items() if _is_tie(v, f(cand))]
        cand = min(tied)
    return cand, memo, consistent


def _grid_argmin(scan: _VolumeScan, ts: np.ndarray, cfg: SearchConfig):
    """Minimum of the variance curve over one grid, in the configured mode.

    Returns (index, ts, variances, mean_sigmas, mode): in bracketed mode the
    returned arrays hold only the probed samples (already sorted by t) and
    the index points into them; a unimodality violation falls back to the
    full scan.
    """
    if cfg.search_mode == "exhaustive":
        variances, mean_sigmas = scan.curve(ts)
        return _tied_argmin(variances), ts, variances, mean_sigmas, "exhaustive"

    points: dict[int, tuple[float, float]] = {}

    def fn(i: int) -> float:
        if i not in points:
            points[i] = scan.point(float(ts[i]))
        return points[i][0]

    idx, _, consistent = _bracketed_argmin(fn, ts.size)
    if not consistent:
        variances, mean_sigmas = scan.curve(ts)
        return _tied_argmin(variances), ts, variances, mean_sigmas, "exhaustive-fallback"
    sampled = np.array(sorted(points))
    variances = np.array([points[i][0] for i in sampled])
    mean_sigmas = np.array([points[i][1] for i in sampled])
    return int(np.searchsorted(sampled, idx)), ts[sampled], variances, mean_sigmas, "bracketed"


def find_t_opt(
    volume: Volume, cfg: SearchConfig = SearchConfig(), *, scan: _VolumeScan | None = None
) -> ThresholdResult:
    """Select the threshold minimizing the across-slice variance of stds.

    The minimum is searched on a grid over [t_lower, t_max] either
    exhaustively (the oracle) or by bracketed interval halving with a
    fallback to the exhaustive scan whenever the probes are inconsistent
    with a unimodal curve. Two degenerate outcomes are handled:

    * no-object guard: when the mean per-slice std at the minimum exceeds
      its value at t_max, the image holds nothing but background and the
      threshold degenerates to t_max;
    * no-holes condition: a guard-accepted minimum sitting where the
      background is still filling up (offset backgrounds develop such false
      valleys mid-bulk) is replaced by the best minimum among thresholds
      whose retained region is gap-free, re-checked against the guard.

    ``scan`` is a prebuilt scan of ``volume``; one is built when it is omitted.
    """
    if scan is None:
        scan = _VolumeScan(volume)
    epsilon = cfg.scaled_to(scan.t_max).epsilon
    _, sigma_at_max = scan.point(scan.t_max)

    t_lower = _probe_walk(scan, cfg, cfg.scaled_to(scan.t_max).t_start)
    ts = _build_grid(scan, cfg, t_lower)
    idx, ts_used, variances, mean_sigmas, mode = _grid_argmin(scan, ts, cfg)
    t_star, sigma_at_star = float(ts_used[idx]), float(mean_sigmas[idx])

    def separating(t: float, sigma_at_t: float) -> bool:
        return sigma_at_t <= _NEAR_FULL_FRACTION * sigma_at_max and bool(_background_covered(scan, np.array([t]), epsilon)[0])

    t_rejected = None
    if sigma_at_star > sigma_at_max:
        # no-object guard on the raw minimum
        t_opt = scan.t_max
        t_rejected = t_star
    elif t_star != scan.t_max and separating(t_star, sigma_at_star):
        t_opt = t_star
    else:
        # restrict to thresholds that truly separate: hole-free background
        # and materially below the full image; needs the full grid evaluated
        if mode != "exhaustive":
            variances, mean_sigmas = scan.curve(ts)
            ts_used = ts
            mode = "exhaustive-fallback"
        mask = mean_sigmas <= _NEAR_FULL_FRACTION * sigma_at_max
        mask &= _background_covered(scan, ts_used, epsilon)
        sub = np.nonzero(mask)[0]
        if sub.size:
            idx2 = sub[_tied_argmin(variances[sub])]
            t_opt = float(ts_used[idx2])
        else:
            t_opt = scan.t_max

    curve = np.column_stack((ts_used, variances, mean_sigmas))
    return ThresholdResult(
        t_opt=float(t_opt),
        t_lower=float(t_lower),
        t_max=float(scan.t_max),
        curve=curve,
        no_object=bool(t_opt == scan.t_max),
        mode_used=mode,
        t_rejected=t_rejected,
    )


def estimate(volume: Volume, cfg: SearchConfig = SearchConfig()) -> NoiseEstimate:
    """Full automatic estimate: threshold, noise sigma, signal mean, SNR.

    Signal is the mean of the original pixels above the threshold; with
    no_object there are no such pixels and signal/SNR are zero.
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
        data = volume.data
        above = data[data > threshold.t_opt]
        signal_mean = float(above.mean()) if above.size else 0.0
        snr = signal_mean / sigma if sigma > 0 else 0.0
    return NoiseEstimate(sigma, signal_mean, snr, per_slice, threshold)


def background_roi_noise(volume: Volume, mask) -> float:
    """Classical reference estimator: sigma from a known background region.

    The noise variance is half the mean squared magnitude over the masked
    pixels. ``mask`` is boolean, either one slice-shaped map applied to every
    slice or a full per-voxel map.
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
    return float(math.sqrt(0.5 * np.mean(selected * selected)))
