"""Per-slice reference statistics: the differential oracle for the noise scan.

Each statistic thresholds the pixels at one t directly, slice by slice, with
plain numpy; ``noise._VolumeScan`` answers the same questions from
cumulative tables and is checked against them. ``select_t_opt`` states the
threshold search's selection as three branches taken in turn, an independent
form of the search's one rule. ``is_saturated`` and ``background_covered``
are the gap-free test of the probe walk and of the grid, each with count
lookups of its own, an epsilon step up or down. ``phantom`` builds a phantom
out of place, step by step, for ``phantom.generate`` to match byte for byte.
"""

import numpy as np

from qbench import render_template
from qbench.noise import _NEAR_FULL_FRACTION, _SATURATION_FLOOR, _TIE_REL_TOL, _stray_budget


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


def select_t_opt(ts, variances, mean_sigmas, covered):
    """(t_opt, t_rejected) of a threshold grid, by three branches in turn.

    ``covered`` holds the background-covered test of every grid point. The
    raw minimum (near-ties to the smallest t) is rejected by the no-object
    guard, else taken when it separates and is covered, else the minimum
    over the points that separate and are covered wins, or t_max.
    """

    def first_tie(values):
        best = values.min()
        return int(np.flatnonzero(values - best <= _TIE_REL_TOL * np.maximum(np.abs(values), abs(best)))[0])

    t_max, sigma_at_max = float(ts[-1]), mean_sigmas[-1]
    separates = mean_sigmas <= _NEAR_FULL_FRACTION * sigma_at_max
    i = first_tie(variances)
    if mean_sigmas[i] > sigma_at_max:
        return t_max, float(ts[i])
    if ts[i] != t_max and separates[i] and covered[i]:
        return float(ts[i]), None
    sub = np.flatnonzero(separates & covered)
    return (float(ts[sub[first_tie(variances[sub])]]) if sub.size else t_max), None


def is_saturated(scan, ts, epsilon):
    """Per t: at least _SATURATION_FLOOR of all pixels are positive and <= t,
    and the positive pixels in (t, t + epsilon] fit the stray budget; both
    counts are looked up in the scan."""
    retained = scan.curve_and_count(ts)[2]
    gained = scan.curve_and_count(ts + epsilon)[2] - retained
    return (retained >= _SATURATION_FLOOR * scan.total_pixels) & (gained <= _stray_budget(scan))


def background_covered(scan, ts, lower):
    """Per t: at least _SATURATION_FLOOR of all pixels are positive and <= t,
    and the positive pixels in (lower, t] fit the stray budget, ``lower``
    being the threshold an epsilon step below each t; both counts are looked
    up in the scan."""
    retained = scan.curve_and_count(ts)[2]
    gained = retained - scan.curve_and_count(lower)[2]
    return (retained >= _SATURATION_FLOOR * scan.total_pixels) & (gained <= _stray_budget(scan))


def phantom(spec):
    """The pixels of ``spec``'s phantom, each step a new array: the template,
    plus sigma times the stream's first block as the real channel, sigma
    times its second block as the imaginary one, their ``np.hypot``, then
    ``np.rint`` when the spec quantizes. At sigma 0 nothing is drawn."""
    data = render_template(spec).data
    if spec.sigma > 0:
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        real = data + spec.sigma * rng.standard_normal(data.shape)
        imag = spec.sigma * rng.standard_normal(data.shape)
        data = np.hypot(real, imag)
    return np.rint(data) if spec.quantize else data
