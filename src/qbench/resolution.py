"""Resolution-independent quality measure.

Coarsening a volume by merging voxels lowers the noise roughly like
edge_length^(-3/2) (merging N voxels divides the std by sqrt(N), and N grows
with the cube of the edge length). This module resamples volumes with a
separable three-lobed Lanczos filter, measures noise across resolutions, fits
the log-log gradient of that curve, and normalizes SNR values to a reference
resolution so volumes acquired at different voxel sizes become comparable.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._threads import Background
from .noise import EstimationError, NoiseEstimate, SearchConfig, estimate, slice_sigmas
from .volume import Volume

__all__ = [
    "DEFAULT_EXPONENT",
    "lanczos3_kernel",
    "downsample",
    "CurvePoint",
    "ResolutionCurve",
    "QualityScore",
    "fit_power_law",
    "effective_resolution",
    "noise_resolution_curve",
    "normalize_quality",
]

# Exponent of the noise-vs-edge-length law; 3/2 is the merged-voxel-count
# argument and holds well empirically for resolutions in the 1-3 mm range.
DEFAULT_EXPONENT = 1.5
# Reference resolution SNR values are normalized to, in mm.
DEFAULT_REF_MM = 1.0


def lanczos3_kernel(x):
    """Three-lobed Lanczos kernel: sinc(x) * sinc(x/3) inside |x| < 3, else 0.

    Accepts scalars or arrays. Integer arguments return exact values (1 at
    zero, 0 at the other integers) so that unit-factor resampling is the
    identity operation.
    """
    scalar = np.ndim(x) == 0
    arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
    out = np.zeros_like(arr)
    inside = np.abs(arr) < 3.0
    xi = arr[inside]
    with np.errstate(invalid="ignore", divide="ignore"):
        px = np.pi * xi
        val = 3.0 * np.sin(px) * np.sin(px / 3.0) / (px * px)
    val = np.where(xi == np.rint(xi), np.where(xi == 0.0, 1.0, 0.0), val)
    out[inside] = val
    return float(out[0]) if scalar else out


def _windows(n_out: int, factor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per output sample i of one axis: its source position src = (i + 0.5) * factor - 0.5 and the
    first and last source index, lo and hi, of its Lanczos window widened by the factor, unclamped."""
    src = (np.arange(n_out) + 0.5) * factor - 0.5
    lo = np.ceil(src - 3.0 * factor).astype(np.intp)
    hi = np.floor(src + 3.0 * factor).astype(np.intp)
    return src, lo, hi


def _resample_weights(n_in: int, n_out: int, factor: float) -> np.ndarray:
    """Dense (n_out, n_in) row-stochastic resampling matrix for one axis.

    Output sample i reads its source position through its Lanczos window
    (:func:`_windows`); out-of-range source indices are clamped to the edge
    and their weight accumulates there.

    All rows are built at once: row i's taps are the integers lo_i..hi_i
    inside its window, padded to a common width with taps of weight 0.0,
    which leave every sum unchanged.
    """
    src, lo, hi = _windows(n_out, factor)
    taps = lo[:, None] + np.arange((hi - lo).max() + 1)
    w = np.where(taps <= hi[:, None], lanczos3_kernel((taps - src[:, None]) / factor), 0.0)
    weights = np.zeros((n_out, n_in))
    np.add.at(weights, (np.arange(n_out)[:, None], np.clip(taps, 0, n_in - 1)), w)
    weights /= weights.sum(axis=1, keepdims=True)
    return weights


# Widest span of source samples, from a band's first nonzero weight to its
# last, that a band of output rows grows to: a wider band multiplies more
# zeros, a narrower one calls BLAS more often. 32 was the fastest of 16-64 on
# 60x128x128 volumes at factors 1.5, 2 and 3.
_BAND_SPAN = 32


def _bands(weights: np.ndarray) -> list[tuple[slice, slice, np.ndarray]]:
    """Cut a resampling matrix into row bands, as (rows, cols, w) triples.

    A band is a run of output rows that grows while its last row's last
    nonzero weight lies at most ``_BAND_SPAN`` samples past its first row's
    first. It keeps at least 2 rows, and a lone last row joins the band
    before it: numpy hands a one-row product to a matrix-vector kernel,
    which sums in another order than the matrix kernel. ``cols`` is the
    smallest window of source samples that holds every nonzero weight of the
    band's rows and ``w`` is ``weights[rows, cols]`` as a contiguous array,
    so every weight outside the window is 0.0.
    """
    n_out, n_in = weights.shape
    nonzero = weights != 0.0
    first = nonzero.argmax(axis=1)
    last = n_in - 1 - nonzero[:, ::-1].argmax(axis=1)
    bands = []
    a = 0
    while a < n_out:
        b = a + 2
        while b < n_out and last[b] - first[a] <= _BAND_SPAN:
            b += 1
        b = n_out if b >= n_out - 1 else b
        rows = slice(a, b)
        cols = slice(int(first[rows].min()), int(last[rows].max()) + 1)
        bands.append((rows, cols, np.ascontiguousarray(weights[rows, cols])))
        a = b
    return bands


# A curve asks for the same few axes in one dtype on every call: 2 axis
# lengths times 3 factors on 60x128x128 volumes. The bound keeps a long-lived
# caller's cache small.
@functools.lru_cache(maxsize=32)
def _axis_bands(n_in: int, n_out: int, factor: float, dtype: type) -> tuple[tuple[slice, slice, np.ndarray], ...]:
    """The bands of one axis's resampling matrix with weights in ``dtype``,
    built once per (n_in, n_out, factor, dtype) and shared by every later
    call, so their weights are read-only. The bands are cut from the float64
    matrix, and a float32 band's weights are its float64 weights rounded once."""
    bands = tuple((rows, cols, w.astype(dtype, copy=False)) for rows, cols, w in _bands(_resample_weights(n_in, n_out, factor)))
    for _, _, w in bands:
        w.flags.writeable = False
    return bands


def downsample(volume: Volume, factor: float) -> Volume:
    """Separable Lanczos resampling of all three axes by one factor >= 1.

    Output dimensions are floor(dim / factor) per axis and the voxel size
    grows by the factor. factor == 1 returns an identical volume.

    The products run in float64 for a float64 volume and in float32 for a
    float32 or integer one, whose samples float32 holds exactly, and the
    result has that dtype: BLAS multiplies float32 in about half the time,
    and a float32 volume needs no widened copy. The float32 samples lie
    within 1e-6 of the float64 products, relative to the largest sample
    (4.3e-7 was the most seen; ``tests/test_resolution.py``).

    Axes are resampled in order 0, 1, 2. Each axis's weight matrix is cut
    into row bands (:func:`_bands`), and each band is one matrix product
    over the band's window of source samples only: the filter's support, not
    the zeros around it. Axes of equal length share one set of bands, and
    so do later calls on the same axis lengths, factor and dtype. Each
    axis's products write into one array of their own, allocated once the
    axis before is done and freed once the axis after is: the peak is the
    axis-0 products together with the input's float32 cast for an integer
    volume, and with the axis-1 products for a float one. The last array is
    clamped in place, so ``Volume`` makes the one copy after the last
    product.
    """
    factor = float(factor)
    if not 1.0 <= factor < math.inf:
        raise ValueError("downsample factor must be a finite value >= 1")
    n0, n1, n2 = volume.shape
    m0, m1, m2 = out = tuple(math.floor(dim / factor) for dim in volume.shape)
    for axis, (dim, out_dim) in enumerate(zip(volume.shape, out)):
        if out_dim < 1:
            raise ValueError(f"factor {factor} collapses axis {axis} (size {dim}) to zero")
    dtype = np.float64 if volume.data.dtype == np.float64 else np.float32
    b0, b1, b2 = (_axis_bands(dim, out_dim, factor, dtype) for dim, out_dim in zip(volume.shape, out))
    x = volume.data.reshape(n0, n1 * n2).astype(dtype, copy=False)
    a0 = np.empty((m0, n1 * n2), dtype)
    for rows, cols, w in b0:
        np.matmul(w, x[cols], out=a0[rows])
    del x
    a0 = a0.reshape(m0, n1, n2)
    a1 = np.empty((m0, m1, n2), dtype)
    for rows, cols, w in b1:
        np.matmul(w, a0[:, cols], out=a1[:, rows])
    del a0
    a1 = a1.reshape(m0 * m1, n2)
    data = np.empty((m0 * m1, m2), dtype)
    for rows, cols, w in b2:
        np.matmul(a1[:, cols], w.T, out=data[:, rows])
    del a1
    # Lanczos lobes can undershoot; magnitudes stay non-negative by clamping.
    np.maximum(data, 0.0, out=data)
    voxel = tuple(v * factor for v in volume.voxel_size)
    return Volume.from_array(data.reshape(m0, m1, m2), voxel)


@dataclass(frozen=True)
class CurvePoint:
    resolution_mm: float
    noise: float
    snr: float


@dataclass(frozen=True)
class ResolutionCurve:
    """Noise and SNR measured across resolutions with the fitted power law.

    ``gradient_m`` and ``y0`` describe noise ~= y0 * r^(-m); ``residual`` is
    the RMS misfit in log space. Failed resolutions are kept in ``failures``
    as (factor, reason) pairs. ``full`` is the estimate of the volume at its
    own resolution, which the curve always makes; it takes no part in
    comparisons.
    """

    points: tuple[CurvePoint, ...]
    gradient_m: float
    y0: float
    residual: float
    failures: tuple[tuple[float, str], ...] = ()
    full: NoiseEstimate | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        rs = [p.resolution_mm for p in self.points]
        if len(rs) < 2:
            raise ValueError("a resolution curve needs at least 2 points")
        if any(b <= a for a, b in zip(rs, rs[1:])):
            raise ValueError("points must be sorted ascending by resolution")


@dataclass(frozen=True)
class QualityScore:
    """SNR projected to a reference resolution via the power law."""

    snr_measured: float
    resolution_mm: float
    reference_resolution_mm: float
    exponent_m: float
    snr_normalized: float


def fit_power_law(resolutions, noises) -> tuple[float, float, float]:
    """Least-squares line through (log r, log noise): returns (m, y0, residual).

    The model is noise = y0 * r^(-m); residual is the RMS of the log-space
    misfit. Requires >= 2 points with finite positive coordinates and
    distinct r.
    """
    r = np.asarray(resolutions, dtype=np.float64)
    n = np.asarray(noises, dtype=np.float64)
    if r.size != n.size or r.size < 2:
        raise ValueError("need >= 2 (resolution, noise) pairs")
    # NaN fails both comparisons; a non-finite point would reach the SVD of the fit
    if not (np.all((r > 0) & (r < np.inf)) and np.all((n > 0) & (n < np.inf))):
        raise ValueError("resolutions and noises must be finite and positive")
    # not np.unique, whose first call imports numpy.ma (about 8 ms)
    if r.min() == r.max():
        raise ValueError("resolutions must not all coincide")
    log_r, log_n = np.log(r), np.log(n)
    slope, intercept = np.polyfit(log_r, log_n, 1)
    residual = float(np.sqrt(np.mean((intercept + slope * log_r - log_n) ** 2)))
    return float(-slope), float(np.exp(intercept)), residual


def effective_resolution(voxel_size) -> float:
    """Isotropic edge length with the same voxel volume (geometric mean)."""
    vx, vy, vz = voxel_size
    return float((vx * vy * vz) ** (1.0 / 3.0))


def check_factors(factors, name: str = "factors") -> list[float]:
    """The downsampling factors of a curve as floats: at least 2, each finite
    and >= 1, none repeated; otherwise a ValueError whose message starts
    with ``name``."""
    factors = [float(f) for f in factors]
    if len(factors) < 2:
        raise ValueError(f"{name} needs at least 2 values")
    if not all(map(math.isfinite, factors)):
        raise ValueError(f"{name} must all be finite")
    if any(f < 1 for f in factors):
        raise ValueError(f"{name} must all be >= 1")
    if len(set(factors)) < len(factors):
        raise ValueError(f"{name} must not repeat a value")
    return factors


def _carry(bad: np.ndarray, factor: float) -> np.ndarray:
    """The mask ``bad`` on the grid of :func:`downsample` by ``factor``: axis
    by axis, 0, 1, 2, an output sample is bad when any source sample of its
    window (:func:`_windows`), clamped to the axis, is. Level j tells whether
    any of the 2**j samples from each index on is bad, so a window of L, 2**j
    <= L < 2**(j+1), is two lookups (van Herk, Pattern Recogn. Lett. 1992)."""
    for axis in range(3):
        n_in = bad.shape[axis]
        _, lo, hi = _windows(math.floor(n_in / factor), factor)
        lo, hi = np.maximum(lo, 0), np.minimum(hi, n_in - 1)
        levels = np.frexp(hi - lo + 1)[1] - 1  # floor(log2(L)) per window
        level = np.moveaxis(bad, axis, 0)
        out = np.empty((lo.size, *level.shape[1:]), dtype=bool)
        for j in range(int(levels.max(initial=0)) + 1):
            if j:
                level = level[: -(1 << (j - 1))] | level[1 << (j - 1) :]
            rows = np.flatnonzero(levels == j)
            out[rows] = level[lo[rows]] | level[hi[rows] - (1 << j) + 1]
        bad = np.moveaxis(out, 0, axis)
    return bad


def _positive_moments(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per slice of ``data``, whose samples are >= 0: the count, the sum and
    the sum of squares of its positive samples, the sums in float64, each a
    pairwise sum over the slice's samples in order. A zero adds nothing to
    either sum, so the sums run over every sample."""
    rows = data.reshape(data.shape[0], -1)
    x = rows.astype(np.float64)
    s1 = x.sum(axis=1)
    np.square(x, out=x)
    return np.count_nonzero(rows, axis=1), s1, x.sum(axis=1)


def _masked_noise(data: np.ndarray, moments: tuple[np.ndarray, np.ndarray, np.ndarray], bad: np.ndarray | None, correction_factor: float) -> float | None:
    """``correction_factor`` times the mean over slices of the std of the positive samples of
    ``data`` outside ``bad``, each from the slice's moments (:func:`noise.slice_sigmas`); None when
    no slice keeps one. ``moments`` are :func:`_positive_moments` of ``data``, which serve as they
    are without a mask. Under a mask the moments are taken again over the samples outside it. A
    mask that leaves none counts as no mask: the noise-tail voxels of a threshold cut into an
    object-free background can reach every window.

    A slice whose positive samples all hold one value reads exactly 0, as ``np.std`` reads it:
    its sum of squares can round, and the moments then leave a std of up to about 4e-8 of the
    value. A slice whose std reads at most 1e-6 of its mean is checked sample by sample."""
    if bad is not None:
        outside = np.where(bad, 0, data)
        if (kept := _positive_moments(outside))[0].any():
            data, moments = outside, kept
    count, s1, _ = moments
    stds = slice_sigmas(*moments, 1.0)
    for i, (std, k, total) in enumerate(zip(stds, count.tolist(), s1.tolist())):
        if std and std <= 1e-6 * total / k:
            positive = data[i][data[i] > 0]
            if positive.min() == positive.max():
                stds[i] = 0.0
    present = [correction_factor * s for s in stds if s is not None]
    return float(np.mean(present)) if present else None


def _curve_point(vol: Volume, noise: float | None, signal_mean: float) -> CurvePoint | str:
    """The point of ``vol`` at ``noise``, its SNR ``signal_mean`` over it, or why it has none."""
    if noise is None:
        return "no slice keeps a positive sample"
    if not noise > 0:
        return "estimated noise is not positive"
    if not (math.isfinite(snr := signal_mean / noise) and math.isfinite(noise)):
        return f"noise {noise!r} and SNR {snr!r} must be finite"
    return CurvePoint(effective_resolution(vol.voxel_size), noise, snr)


def noise_resolution_curve(volume: Volume, factors, cfg: SearchConfig = SearchConfig(), *, meanwhile=None) -> ResolutionCurve:
    """Noise across resolutions, all read with one threshold; fit the power law.

    ``factors`` must pass :func:`check_factors` before any downsampling.
    ``volume`` is estimated once: that estimate is the curve's ``full`` and its
    factor-1 point, and its failure ends the curve, as does a full-resolution
    noise that is not positive, which leaves no noise to resample (a constant
    volume). ``bad``, the voxels above its ``t_opt`` (none at ``no_object``),
    is carried to each factor's grid (:func:`_carry`) and the factor's noise
    read over the positive samples outside it (:func:`_masked_noise`): a
    threshold searched per factor would keep the object edges and ringing
    that the Lanczos window smears into the background (Dietrich et al., JMRI
    26(2), 2007). SNR is the full signal mean over the noise. A factor that
    fails to downsample or to give a point (:func:`_curve_point`) is a
    ``failures`` entry; two points must survive. A float32 or integer volume
    is resampled in float32 (:func:`downsample`), and every statistic of the
    curve is computed in float64.

    One worker thread runs the estimate and the carries. Meanwhile the
    caller downsamples by each factor and takes the result's per-slice
    moments (:func:`_positive_moments`) right after it, then calls
    ``meanwhile()``, and only then joins the worker. A factor without a
    carried mask reads its noise from those moments alone. The worker's
    exception supersedes the caller's.
    """
    factors = check_factors(factors)
    scaled = [f for f in factors if f != 1.0]

    def background() -> tuple[NoiseEstimate, dict]:
        full = estimate(volume, cfg)
        if not full.sigma > 0:
            raise EstimationError(f"resolution curve has no noise to measure: the full-resolution noise {full.sigma!r} is not positive")
        # compared in float64, so a float32 volume's mask is its float64 copy's
        bad = None if full.threshold.no_object else volume.data > np.float64(full.threshold.t_opt)
        carried = {f: None if bad is None else _carry(bad, f) for f in scaled}
        return full, carried

    worker = Background(background)
    try:
        by_factor = {}
        for f in scaled:
            try:
                vol = downsample(volume, f)
            except ValueError as exc:
                by_factor[f] = str(exc)
            else:
                by_factor[f] = vol, _positive_moments(vol.data)
        if meanwhile is not None:
            meanwhile()
    finally:
        full, carried = worker.result()
    for f, read in by_factor.items():
        if not isinstance(read, str):
            vol, moments = read
            by_factor[f] = _curve_point(vol, _masked_noise(vol.data, moments, carried[f], cfg.correction_factor), full.signal_mean)
    by_factor[1.0] = _curve_point(volume, full.sigma, full.signal_mean)
    outcomes = [by_factor[f] for f in factors]
    points = sorted((o for o in outcomes if isinstance(o, CurvePoint)), key=lambda p: p.resolution_mm)
    failures = [(f, o) for f, o in zip(factors, outcomes) if isinstance(o, str)]
    if len(points) < 2:
        raise EstimationError(f"resolution curve collapsed: only {len(points)} usable points ({failures})")
    m, y0, residual = fit_power_law([p.resolution_mm for p in points], [p.noise for p in points])
    return ResolutionCurve(tuple(points), m, y0, residual, tuple(failures), full)


def check_quality_params(m: float, ref_mm: float, names: tuple[str, str] = ("m", "ref_mm")) -> None:
    """ValueError unless the exponent ``m`` is finite and the reference resolution
    ``ref_mm`` finite and > 0; the message names the value as ``names`` does."""
    m_name, ref_name = names
    if not 0 < ref_mm < math.inf:
        raise ValueError(f"{ref_name} must be a finite value > 0")
    if not math.isfinite(m):
        raise ValueError(f"{m_name} must be finite")


def normalize_quality(
    snr: float,
    resolution_mm: float,
    m: float = DEFAULT_EXPONENT,
    ref_mm: float = DEFAULT_REF_MM,
) -> QualityScore:
    """Project an SNR measured at one resolution onto a reference resolution.

    ``m`` and ``ref_mm`` must pass :func:`check_quality_params`,
    ``resolution_mm`` must be finite and > 0, and so must the projected SNR
    be finite; each violation is a ValueError.
    """
    check_quality_params(m, ref_mm)
    if not 0 < resolution_mm < math.inf:
        raise ValueError("resolution_mm must be a finite value > 0")
    try:
        snr_normalized = float(snr * (ref_mm / resolution_mm) ** m)
    except OverflowError:
        snr_normalized = math.inf
    if not math.isfinite(snr_normalized):
        raise ValueError(f"SNR {snr!r} at {resolution_mm!r} mm projects beyond the float range at {ref_mm!r} mm with exponent {m!r}")
    return QualityScore(
        snr_measured=float(snr),
        resolution_mm=float(resolution_mm),
        reference_resolution_mm=float(ref_mm),
        exponent_m=float(m),
        snr_normalized=snr_normalized,
    )
