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
from dataclasses import asdict
from pathlib import Path

from . import __version__
from ._threads import Background
from .noise import CORRECTION_FACTOR_ANALYTIC, NoiseEstimate, SearchConfig
from .qvol import Input, write_bytes_atomic
from .resolution import QualityScore, ResolutionCurve
from .volume import Volume

__all__ = [
    "REPORT_SCHEMA",
    "UNITS",
    "input_digest",
    "input_sha256",
    "build_report",
    "report_json",
    "curve_csv",
    "write_text_atomic",
]

REPORT_SCHEMA = "qbench-report/3"

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
    "resolution_curve.failures.factor": "dimensionless",
    "quality_score.snr_measured": "dimensionless",
    "quality_score.resolution_mm": "mm",
    "quality_score.reference_resolution_mm": "mm",
    "quality_score.exponent_m": "dimensionless",
    "quality_score.snr_normalized": "dimensionless",
}


def input_digest(path, read: Input) -> Background:
    """:func:`input_sha256` of ``read``, on a thread of its own, started here.

    ``path`` is never read. It stays for the bench harness's ``report.digest``
    byte count, which for a PGM stack is the size of the directory entry.

    The bytes are immutable and ``hashlib`` releases the GIL while it hashes
    them, so the caller can parse and analyse them meanwhile; ``result()``
    is the hex digest, and leaving a ``with`` block on the returned object
    joins the thread.
    """
    return Background(input_sha256, read)


def input_sha256(read: Input) -> str:
    """The hex SHA-256 of the input bytes, hashed on the calling thread.

    ``read`` is what ``qvol.read_input`` returned, so the loader's one read
    is hashed, by the kind it names. A container file hashes its bytes. A
    PGM stack hashes, per slice file the loader reads, in load order, the
    name's bytes as the file system stores them, a NUL byte and the file's
    bytes; other files in the directory do not count.
    """
    if read.kind == "qvol":
        [(_, raw)] = read.files
        return hashlib.sha256(raw).hexdigest()
    digest = hashlib.sha256()
    for p, raw in read.files:
        digest.update(os.fsencode(p.name))
        digest.update(b"\x00")
        digest.update(raw)
    return digest.hexdigest()


def build_report(
    *,
    digest: str,
    input_format: str,
    volume: Volume,
    cfg: SearchConfig,
    est: NoiseEstimate,
    curve: ResolutionCurve | None = None,
    score: QualityScore | None = None,
) -> dict:
    """Assemble the full report dict for one analyzed volume."""
    n, h, w = volume.shape
    tr = est.threshold
    warnings = []
    if input_format == "pgm-stack":
        warnings.append("PGM stacks carry no voxel size; defaulting to 1 mm isotropic")
    zero_frac = est.zero_fraction
    if zero_frac > 0.5:
        warnings.append(
            f"{zero_frac:.1%} of pixels are exactly zero; masked data breaks the "
            "background-noise assumptions and the estimate is unreliable"
        )
    skipped = sum(1 for v in est.per_slice_sigma if v is None)
    if skipped:
        warnings.append(f"{skipped} slice(s) kept no positive pixel at t_opt and were skipped in the noise mean")
    if tr.no_object:
        warnings.append("no object separated from the background (t_opt == t_max); signal and SNR are zero")
    if n < 2:
        warnings.append("one slice only: the across-slice variance is 0 at every threshold, so the tie rule, not a variance minimum, picks t_opt")

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
        "config": {**asdict(cfg), "correction_factor_analytic": CORRECTION_FACTOR_ANALYTIC},
        "threshold": {
            "t_opt": tr.t_opt,
            "t_lower": tr.t_lower,
            "t_max": tr.t_max,
            "no_object": tr.no_object,
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
            "points": [asdict(p) for p in curve.points],
            "gradient_m": curve.gradient_m,
            "y0": curve.y0,
            "residual": curve.residual,
            "failures": [{"factor": f, "reason": reason} for f, reason in curve.failures],
        }
    if score is not None:
        report["quality_score"] = asdict(score)
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
    """Write ``text`` atomically, as ``qvol.write_bytes_atomic`` writes bytes."""
    write_bytes_atomic(Path(path), text.encode())
