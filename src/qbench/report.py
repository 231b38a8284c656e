"""Quality report assembly and canonical serialization.

Reports are plain dicts serialized as canonical JSON (sorted keys, fixed
separators, repr-style floats, no timestamps) so that re-running the tool on
the same input bytes with the same flags reproduces the report byte-exactly.
Every numeric field's unit is published in the report's own ``units`` block.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from . import __version__
from .noise import CORRECTION_FACTOR_ANALYTIC, NoiseEstimate, SearchConfig
from .qvol import pgm_slice_paths
from .resolution import QualityScore, ResolutionCurve
from .volume import Volume

__all__ = [
    "REPORT_SCHEMA",
    "UNITS",
    "input_digest",
    "masked_zero_fraction",
    "build_report",
    "report_json",
    "curve_csv",
    "write_text_atomic",
]

REPORT_SCHEMA = "qbench-report/1"

# Units for every numeric leaf of the report, keyed by dotted field path.
UNITS = {
    "input.dims": "pixels",
    "input.voxel_size_mm": "mm",
    "input.intensity_max": "intensity",
    "config.t_start": "intensity",
    "config.epsilon": "intensity",
    "config.grid_step": "intensity",
    "config.correction_factor": "dimensionless",
    "config.correction_factor_analytic": "dimensionless",
    "threshold.t_opt": "intensity",
    "threshold.t_lower": "intensity",
    "threshold.t_max": "intensity",
    "threshold.t_rejected": "intensity",
    "threshold.curve_points": "count",
    "noise.sigma": "intensity",
    "noise.signal_mean": "intensity",
    "noise.snr": "dimensionless",
    "noise.per_slice_sigma": "intensity",
    "noise.skipped_slices": "count",
    "resolution_curve.points.resolution_mm": "mm",
    "resolution_curve.points.noise": "intensity",
    "resolution_curve.points.snr": "dimensionless",
    "resolution_curve.gradient_m": "dimensionless",
    "resolution_curve.y0": "intensity",
    "resolution_curve.residual": "log-intensity",
    "quality_score.snr_measured": "dimensionless",
    "quality_score.resolution_mm": "mm",
    "quality_score.reference_resolution_mm": "mm",
    "quality_score.exponent_m": "dimensionless",
    "quality_score.snr_normalized": "dimensionless",
}


def input_digest(path) -> str:
    """SHA-256 of the input bytes.

    A PGM stack directory hashes (name, bytes) of each slice file the loader
    reads, in load order; other files in the directory do not count.
    """
    path = Path(path)
    digest = hashlib.sha256()
    if path.is_dir():
        for p in pgm_slice_paths(path):
            digest.update(p.name.encode())
            digest.update(b"\x00")
            digest.update(p.read_bytes())
    else:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def masked_zero_fraction(volume: Volume) -> float:
    data = volume.data
    return float((data == 0).sum() / data.size)


def build_report(
    *,
    digest: str,
    input_format: str,
    volume: Volume,
    cfg: SearchConfig,
    est: NoiseEstimate,
    curve: ResolutionCurve | None = None,
    score: QualityScore | None = None,
    extra_warnings: tuple[str, ...] = (),
) -> dict:
    """Assemble the full report dict for one analyzed volume."""
    n, h, w = volume.shape
    tr = est.threshold
    warnings = list(extra_warnings)
    zero_frac = masked_zero_fraction(volume)
    if zero_frac > 0.5:
        warnings.append(
            f"{zero_frac:.1%} of pixels are exactly zero; masked data breaks the "
            "background-noise assumptions and the estimate is unreliable"
        )
    if tr.mode_used == "exhaustive-fallback":
        warnings.append("variance curve was not unimodal; bracketed search fell back to the exhaustive scan")
    skipped = sum(1 for v in est.per_slice_sigma if v is None)
    if skipped:
        warnings.append(f"{skipped} slice(s) kept no positive pixel at t_opt and were skipped in the noise mean")
    if tr.no_object:
        warnings.append("no object separated from the background (t_opt == t_max); signal and SNR are zero")

    report = {
        "schema": REPORT_SCHEMA,
        "tool": {"name": "qbench", "version": __version__},
        "input": {
            "sha256": digest,
            "format": input_format,
            "dims": [w, h, n],
            "voxel_size_mm": list(volume.voxel_size),
            "intensity_max": volume.intensity_max,
        },
        "config": {
            "t_start": cfg.t_start,
            "epsilon": cfg.epsilon,
            "grid_step": cfg.grid_step,
            "correction_factor": cfg.correction_factor,
            "correction_factor_analytic": CORRECTION_FACTOR_ANALYTIC,
            "search_mode": cfg.search_mode,
            "grid": cfg.grid,
        },
        "threshold": {
            "t_opt": tr.t_opt,
            "t_lower": tr.t_lower,
            "t_max": tr.t_max,
            "no_object": tr.no_object,
            "mode_used": tr.mode_used,
            "t_rejected": tr.t_rejected,
            "curve_points": int(tr.curve.shape[0]),
        },
        "noise": {
            "sigma": est.sigma,
            "signal_mean": est.signal_mean,
            "snr": est.snr,
            "per_slice_sigma": list(est.per_slice_sigma),
            "skipped_slices": skipped,
        },
        "warnings": warnings,
        "units": UNITS,
    }
    if curve is not None:
        report["resolution_curve"] = {
            "points": [
                {"resolution_mm": p.resolution_mm, "noise": p.noise, "snr": p.snr} for p in curve.points
            ],
            "gradient_m": curve.gradient_m,
            "y0": curve.y0,
            "residual": curve.residual,
            "failures": [{"factor": f, "reason": reason} for f, reason in curve.failures],
        }
    if score is not None:
        report["quality_score"] = {
            "snr_measured": score.snr_measured,
            "resolution_mm": score.resolution_mm,
            "reference_resolution_mm": score.reference_resolution_mm,
            "exponent_m": score.exponent_m,
            "snr_normalized": score.snr_normalized,
        }
    return report


def report_json(report: dict) -> str:
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def curve_csv(curve: ResolutionCurve) -> str:
    """Curve points as CSV with a fixed header, one row per resolution."""
    lines = ["resolution_mm,noise,snr"]
    lines += [f"{p.resolution_mm!r},{p.noise!r},{p.snr!r}" for p in curve.points]
    return "\n".join(lines) + "\n"


def write_text_atomic(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
