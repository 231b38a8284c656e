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
from dataclasses import dataclass

import numpy as np

from .noise import EstimationError, NoiseEstimate, SearchConfig, estimate
from .volume import Volume

__all__ = [
    "DEFAULT_EXPONENT",
    "DEFAULT_REF_MM",
    "lanczos3_kernel",
    "downsample",
    "CurvePoint",
    "ResolutionCurve",
    "QualityScore",
    "fit_power_law",
    "effective_resolution",
    "check_factors",
    "noise_resolution_curve",
    "check_quality_params",
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


def _resample_weights(n_in: int, n_out: int, factor: float) -> np.ndarray:
    """Dense (n_out, n_in) row-stochastic resampling matrix for one axis.

    Output sample i reads the source at (i + 0.5) * factor - 0.5 through a
    Lanczos window widened by the factor (anti-aliasing); out-of-range source
    indices are clamped to the edge and their weight accumulates there.

    All rows are built at once: row i's taps are the integers lo_i..hi_i
    inside its window, padded to a common width with taps of weight 0.0,
    which leave every sum unchanged.
    """
    src = (np.arange(n_out) + 0.5) * factor - 0.5
    lo = np.ceil(src - 3.0 * factor).astype(np.intp)
    hi = np.floor(src + 3.0 * factor).astype(np.intp)
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


# A curve asks for the same few axes on every call: 2 axis lengths times 3
# factors on 60x128x128 volumes. The bound keeps a long-lived caller's cache small.
@functools.lru_cache(maxsize=32)
def _axis_bands(n_in: int, n_out: int, factor: float) -> tuple[tuple[slice, slice, np.ndarray], ...]:
    """The bands of one axis's resampling matrix, built once per (n_in, n_out,
    factor) and shared by every later call, so their weights are read-only."""
    bands = _bands(_resample_weights(n_in, n_out, factor))
    for _, _, w in bands:
        w.flags.writeable = False
    return tuple(bands)


def downsample(volume: Volume, factor: float) -> Volume:
    """Separable Lanczos resampling of all three axes by one factor >= 1.

    Output dimensions are floor(dim / factor) per axis and the voxel size
    grows by the factor. factor == 1 returns an identical volume.

    Axes are resampled in order 0, 1, 2. Each axis's weight matrix is cut
    into row bands (:func:`_bands`), and each band is one matrix product
    over the band's window of source samples only: the filter's support, not
    the zeros around it. Axes of equal length share one set of bands, and
    so do later calls on the same axis lengths and factor. Each axis's
    products write into one array of their own; the last is clamped in
    place, so ``Volume`` makes the one copy after the last product.
    """
    factor = float(factor)
    if not 1.0 <= factor < math.inf:
        raise ValueError("downsample factor must be a finite value >= 1")
    n0, n1, n2 = volume.shape
    m0, m1, m2 = out = tuple(math.floor(dim / factor) for dim in volume.shape)
    for axis, (dim, out_dim) in enumerate(zip(volume.shape, out)):
        if out_dim < 1:
            raise ValueError(f"factor {factor} collapses axis {axis} (size {dim}) to zero")
    b0, b1, b2 = (_axis_bands(dim, out_dim, factor) for dim, out_dim in zip(volume.shape, out))
    a0 = np.empty((m0, n1 * n2))
    a1 = np.empty((m0, m1, n2))
    data = np.empty((m0 * m1, m2))
    x = volume.data.reshape(n0, n1 * n2).astype(np.float64, copy=False)
    for rows, cols, w in b0:
        np.matmul(w, x[cols], out=a0[rows])
    a0 = a0.reshape(m0, n1, n2)
    for rows, cols, w in b1:
        np.matmul(w, a0[:, cols], out=a1[:, rows])
    a1 = a1.reshape(m0 * m1, n2)
    for rows, cols, w in b2:
        np.matmul(a1[:, cols], w.T, out=data[:, rows])
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
    as (factor, reason) pairs.
    """

    points: tuple[CurvePoint, ...]
    gradient_m: float
    y0: float
    residual: float
    failures: tuple[tuple[float, str], ...] = ()

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
    if np.unique(r).size < 2:
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


def noise_resolution_curve(
    volume: Volume,
    factors,
    cfg: SearchConfig = SearchConfig(),
    full: NoiseEstimate | None = None,
) -> ResolutionCurve:
    """Downsample by each factor, estimate noise, fit the power law.

    Factors of 1 keep the original volume; ``full``, an estimate of
    ``volume`` with ``cfg`` already at hand, then stands in for estimating it
    again. ``factors`` must pass :func:`check_factors`, before any
    downsampling. Per-factor estimation failures are recorded and their
    points omitted; at least two points must survive.
    """
    factors = check_factors(factors)

    def run_one(f: float) -> CurvePoint | str:
        try:
            vol = volume if f == 1.0 else downsample(volume, f)
            est = full if f == 1.0 and full is not None else estimate(vol, cfg)
            if est.sigma <= 0:
                raise EstimationError("estimated noise is not positive")
            return CurvePoint(effective_resolution(vol.voxel_size), est.sigma, est.snr)
        except (EstimationError, ValueError) as exc:
            return str(exc)

    outcomes = [run_one(f) for f in factors]

    points = [o for o in outcomes if isinstance(o, CurvePoint)]
    failures = [(f, o) for f, o in zip(factors, outcomes) if isinstance(o, str)]
    if len(points) < 2:
        raise EstimationError(f"resolution curve collapsed: only {len(points)} usable points ({failures})")
    points.sort(key=lambda p: p.resolution_mm)
    m, y0, residual = fit_power_law([p.resolution_mm for p in points], [p.noise for p in points])
    return ResolutionCurve(tuple(points), m, y0, residual, tuple(failures))


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

    ``m`` and ``ref_mm`` must pass :func:`check_quality_params`, and
    ``resolution_mm`` must be finite and > 0.
    """
    check_quality_params(m, ref_mm)
    if not 0 < resolution_mm < math.inf:
        raise ValueError("resolution_mm must be a finite value > 0")
    return QualityScore(
        snr_measured=float(snr),
        resolution_mm=float(resolution_mm),
        reference_resolution_mm=float(ref_mm),
        exponent_m=float(m),
        snr_normalized=float(snr * (ref_mm / resolution_mm) ** m),
    )
