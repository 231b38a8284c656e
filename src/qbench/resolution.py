"""Resolution-independent quality measure.

Coarsening a volume by merging voxels lowers the noise roughly like
edge_length^(-3/2) (merging N voxels divides the std by sqrt(N), and N grows
with the cube of the edge length). This module resamples volumes with a
separable three-lobed Lanczos filter, measures noise across resolutions, fits
the log-log gradient of that curve, and normalizes SNR values to a reference
resolution so volumes acquired at different voxel sizes become comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .noise import EstimationError, NoiseEstimate, SearchConfig, estimate
from .volume import Volume

__all__ = [
    "DEFAULT_EXPONENT",
    "lanczos3_kernel",
    "downsample",
    "CurvePoint",
    "ResolutionCurve",
    "QualityScore",
    "fit_power_law",
    "pairwise_gradient",
    "effective_resolution",
    "noise_resolution_curve",
    "normalize_quality",
]

# Exponent of the noise-vs-edge-length law; 3/2 is the merged-voxel-count
# argument and holds well empirically for resolutions in the 1-3 mm range.
DEFAULT_EXPONENT = 1.5


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
    """
    weights = np.zeros((n_out, n_in))
    for i in range(n_out):
        src = (i + 0.5) * factor - 0.5
        lo = math.ceil(src - 3.0 * factor)
        hi = math.floor(src + 3.0 * factor)
        taps = np.arange(lo, hi + 1)
        w = lanczos3_kernel((taps - src) / factor)
        np.add.at(weights[i], np.clip(taps, 0, n_in - 1), w)
        weights[i] /= weights[i].sum()
    return weights


def downsample(volume: Volume, factor: float) -> Volume:
    """Separable Lanczos resampling of all three axes by one factor >= 1.

    Output dimensions are floor(dim / factor) per axis and the voxel size
    grows by the factor. factor == 1 returns an identical volume.
    """
    factor = float(factor)
    if factor < 1.0:
        raise ValueError("downsample factor must be >= 1")
    data = volume.data
    for axis, dim in enumerate(data.shape):
        out_dim = int(math.floor(dim / factor))
        if out_dim < 1:
            raise ValueError(f"factor {factor} collapses axis {axis} (size {dim}) to zero")
        w = _resample_weights(dim, out_dim, factor)
        data = np.moveaxis(np.tensordot(w, data, axes=([1], [axis])), 0, axis)
    voxel = tuple(v * factor for v in volume.voxel_size)
    # Lanczos lobes can undershoot; magnitudes stay non-negative by clamping.
    return Volume.from_array(np.maximum(data, 0.0), voxel)


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
    misfit. Requires >= 2 points with positive coordinates and distinct r.
    """
    r = np.asarray(resolutions, dtype=np.float64)
    n = np.asarray(noises, dtype=np.float64)
    if r.size != n.size or r.size < 2:
        raise ValueError("need >= 2 (resolution, noise) pairs")
    if np.any(r <= 0) or np.any(n <= 0):
        raise ValueError("resolutions and noises must be positive")
    if np.unique(r).size < 2:
        raise ValueError("resolutions must not all coincide")
    log_r, log_n = np.log(r), np.log(n)
    slope, intercept = np.polyfit(log_r, log_n, 1)
    residual = float(np.sqrt(np.mean((intercept + slope * log_r - log_n) ** 2)))
    return float(-slope), float(np.exp(intercept)), residual


def pairwise_gradient(r1: float, noise1: float, r2: float, noise2: float) -> float:
    """Secant gradient of the power law between two resolutions."""
    if not r1 < r2:
        raise ValueError("r1 must be strictly smaller than r2")
    if noise1 <= 0 or noise2 <= 0:
        raise ValueError("noise values must be positive")
    return (math.log(noise1) - math.log(noise2)) / (math.log(r2) - math.log(r1))


def effective_resolution(voxel_size) -> float:
    """Isotropic edge length with the same voxel volume (geometric mean)."""
    vx, vy, vz = voxel_size
    return float((vx * vy * vz) ** (1.0 / 3.0))


def noise_resolution_curve(
    volume: Volume,
    factors,
    cfg: SearchConfig = SearchConfig(),
    full: NoiseEstimate | None = None,
) -> ResolutionCurve:
    """Downsample by each factor, estimate noise, fit the power law.

    Factors of 1 keep the original volume; ``full``, an estimate of
    ``volume`` with ``cfg`` already at hand, then stands in for estimating it
    again. Per-factor estimation failures are recorded and their points
    omitted; at least two points must survive.
    """
    factors = [float(f) for f in factors]
    if len(factors) < 2:
        raise ValueError("need at least 2 downsampling factors")
    if any(f < 1 for f in factors):
        raise ValueError("factors must be >= 1")

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


def normalize_quality(
    snr: float,
    resolution_mm: float,
    m: float = DEFAULT_EXPONENT,
    ref_mm: float = 1.0,
) -> QualityScore:
    """Project an SNR measured at one resolution onto a reference resolution."""
    if resolution_mm <= 0 or ref_mm <= 0:
        raise ValueError("resolutions must be positive")
    return QualityScore(
        snr_measured=float(snr),
        resolution_mm=float(resolution_mm),
        reference_resolution_mm=float(ref_mm),
        exponent_m=float(m),
        snr_normalized=float(snr * (ref_mm / resolution_mm) ** m),
    )
