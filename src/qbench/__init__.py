"""qbench: automatic noise/SNR benchmarking for magnitude MR volumes.

Estimates image noise and object signal from a single magnitude data set via
a variance-based automatic threshold (no user-drawn ROI), and normalizes SNR
across image resolutions so volumes acquired at different voxel sizes can be
compared on one scale. Ships a deterministic phantom generator and a minimal
bit-exact volume container for reproducible experiments.
"""

__version__ = "0.1.0"

from .volume import PixelStats, Slice, Volume, stats_all, stats_positive
from .noise import (
    CORRECTION_FACTOR,
    CORRECTION_FACTOR_ANALYTIC,
    EstimationError,
    NoiseEstimate,
    SearchConfig,
    ThresholdResult,
    apply_threshold,
    background_roi_noise,
    estimate,
    find_t_lower,
    find_t_opt,
    homogeneity_variance,
    mean_positive_noise,
    positive_noise,
)
from .phantom import PhantomObject, PhantomSpec, add_complex_gaussian, generate, quantize, render_template
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
    pairwise_gradient,
)
from .qvol import VolumeFormatError, load_volume, read_container, read_input, read_pgm_stack, write_container

__all__ = [
    "__version__",
    "Slice",
    "Volume",
    "PixelStats",
    "stats_all",
    "stats_positive",
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
    "PhantomObject",
    "PhantomSpec",
    "render_template",
    "add_complex_gaussian",
    "quantize",
    "generate",
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
    "VolumeFormatError",
    "read_container",
    "write_container",
    "read_pgm_stack",
    "read_input",
    "load_volume",
]
