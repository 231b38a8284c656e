"""Per-slice reference statistics: the differential oracle for the noise scan.

Each function thresholds the pixels at one t directly, slice by slice, with
plain numpy; ``noise._VolumeScan`` answers the same questions from
cumulative tables and is checked against them.
"""

import numpy as np


def homogeneity_variance(volume, t):
    """Across-slice variance and mean of the per-slice stds at threshold t.

    Per slice the population std of the thresholded image (pixels above t
    set to zero) is taken over all pixels, zeros included. Both the variance
    and the mean use the 1/n divisor over the n slices.
    """
    stds = np.array([np.where(img <= t, img, 0.0).std() for img in volume.data])
    mean_sigma = float(stds.mean())
    return float(((stds - mean_sigma) ** 2).mean()), mean_sigma


def positive_noise(image, t, f_e):
    """``f_e`` times the population std of the positive pixels <= t of one
    2-d image, or None when no such pixel exists."""
    pixels = np.asarray(image, dtype=np.float64)
    kept = pixels[(pixels > 0) & (pixels <= t)]
    return f_e * float(kept.std()) if kept.size else None


def zero_fraction(volume):
    """Share of the volume's pixels that are exactly zero."""
    return np.count_nonzero(volume.data == 0) / volume.data.size
