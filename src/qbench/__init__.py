"""qbench: automatic noise/SNR benchmarking for magnitude MR volumes.

Estimates image noise and object signal from a single magnitude data set via
a variance-based automatic threshold (no user-drawn ROI), and normalizes SNR
across image resolutions so volumes acquired at different voxel sizes can be
compared on one scale. Ships a deterministic phantom generator and a minimal
bit-exact volume container for reproducible experiments.
"""

__version__ = "0.3.0"

from .volume import Volume
from .noise import (
    CORRECTION_FACTOR,
    CORRECTION_FACTOR_ANALYTIC,
    EstimationError,
    NoiseEstimate,
    SearchConfig,
    ThresholdResult,
    background_roi_noise,
    estimate,
    find_t_lower,
    find_t_opt,
)
from .phantom import PhantomObject, PhantomSpec, generate
from .resolution import (
    DEFAULT_EXPONENT,
    CurvePoint,
    QualityScore,
    ResolutionCurve,
    downsample,
    effective_resolution,
    fit_power_law,
    lanczos3_kernel,
    noise_resolution_curve,
    normalize_quality,
)
from .qvol import VolumeFormatError, load_volume, read_input, write_container

__all__ = [
    "__version__",
    "Volume",
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
    "PhantomObject",
    "PhantomSpec",
    "generate",
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
    "VolumeFormatError",
    "write_container",
    "read_input",
    "load_volume",
]
