"""Per-slice reference statistics: the differential oracle for the noise scan.

Each statistic thresholds the pixels at one t directly, slice by slice, with
plain numpy; ``noise._VolumeScan`` answers the same questions from
cumulative tables on its lattice and is checked against them, and
``lattice_sums`` gives what those tables hold at one threshold. ``select_t_opt`` states the
threshold search's selection as three branches taken in turn, an independent
form of the search's one rule. ``is_saturated`` and ``background_covered``
are the gap-free test of the probe walk and of the grid, each with count
lookups of its own, an epsilon step up or down. ``phantom`` paints and
builds a phantom out of place, step by step, for ``phantom.generate`` to
match byte for byte. ``band_products`` resamples with the float64 band
products of ``resolution.downsample`` and any weights; ``downsample_f64``
feeds it the resampling matrices, for a float64 volume to match bit for bit
and float32 products within a bound.
``carry_by_windows`` carries a mask through one axis of the resampling grid
one window at a time, and ``sequential_curve`` computes the resolution curve
one step after another on the calling thread, each with its own window
loop and each slice's noise from its own moments (``moments_noise``), for
``noise_resolution_curve`` to match.
"""

import math

import numpy as np

from qbench import (
    CurvePoint,
    EstimationError,
    ResolutionCurve,
    SearchConfig,
    downsample,
    effective_resolution,
    estimate,
    fit_power_law,
)
from qbench.noise import _NEAR_FULL_FRACTION, _SATURATION_FLOOR, _TIE_REL_TOL, _stray_budget
from qbench.resolution import _bands, _resample_weights, check_factors


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


def moments_noise(image, f_e):
    """``f_e`` times the population std of the positive samples of one 2-d
    image, from the image's own moments: its count k of positive samples,
    their sum s1 and sum of squares s2, each sum numpy's pairwise sum of the
    image's float64 samples or squares in order, zeros included. The std is
    sqrt(max(s2/k - (s1/k)**2, 0)) in Python floats, the square libm's pow();
    None when k is 0, and exactly 0 when the positive samples all hold one
    value, as ``np.std`` reads them."""
    pixels = np.asarray(image, dtype=np.float64).ravel()
    k = np.count_nonzero(pixels)
    if not k:
        return None
    if pixels[pixels > 0].min() == pixels.max():
        return 0.0
    s1, s2 = float(pixels.sum()), float((pixels * pixels).sum())
    return f_e * math.sqrt(max(s2 / k - math.pow(s1 / k, 2), 0.0))


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


def lattice_sums(volume, t):
    """Per slice, the count, sum and sum of squares of the pixels <= t, as
    float64: each sum is ``math.fsum`` of the pixels' float64 values or of
    their float64 squares, the correctly rounded sum."""
    rows = np.asarray(volume.data, dtype=np.float64).reshape(volume.n_slices, -1)
    kept = [row[row <= t] for row in rows]
    return np.array([[float(k.size) for k in kept], [math.fsum(k) for k in kept], [math.fsum(k * k) for k in kept]])


def is_saturated(scan, ns, epsilon):
    """Per lattice index n: at least _SATURATION_FLOOR of all pixels are
    positive and <= its threshold, and the positive pixels an ``epsilon``
    step up, at most to t_max, fit the stray budget; both counts are looked
    up in the scan."""
    retained = scan.curve_and_count(ns)[2]
    gained = scan.curve_and_count(np.minimum(ns + epsilon, scan.lattice.stop))[2] - retained
    return (retained >= _SATURATION_FLOOR * scan.total_pixels) & (gained <= _stray_budget(scan))


def background_covered(scan, ns, lower):
    """Per lattice index n: at least _SATURATION_FLOOR of all pixels are
    positive and <= its threshold, and the positive pixels above index
    ``lower`` fit the stray budget, ``lower`` being the index an epsilon
    step below each n; both counts are looked up in the scan."""
    retained = scan.curve_and_count(ns)[2]
    gained = retained - scan.curve_and_count(lower)[2]
    return (retained >= _SATURATION_FLOOR * scan.total_pixels) & (gained <= _stray_budget(scan))


def phantom(spec):
    """The pixels of ``spec``'s phantom, each step a new array: the template,
    plus sigma times the stream's first block as the real channel, sigma
    times its second block as the imaginary one, their ``np.hypot``, then
    ``np.rint`` when the spec quantizes. At sigma 0 nothing is drawn.

    The template is painted here over the whole volume, with masks of its
    own: the background value, then each object in spec order over the
    pixels whose (column, row) lies in the disk or the rect."""
    _, yy, xx = np.mgrid[0 : spec.n_slices, 0 : spec.height, 0 : spec.width]
    data = np.full(xx.shape, float(spec.background_value))
    for obj in spec.objects:
        cx, cy = obj.center
        if obj.shape == "disk":
            inside = (xx - cx) ** 2 + (yy - cy) ** 2 <= obj.size**2
        else:
            inside = (np.abs(xx - cx) <= obj.size[0] / 2) & (np.abs(yy - cy) <= obj.size[1] / 2)
        data[inside] = obj.value
    if spec.sigma > 0:
        rng = np.random.Generator(np.random.PCG64(spec.seed))
        real = data + spec.sigma * rng.standard_normal(data.shape)
        imag = spec.sigma * rng.standard_normal(data.shape)
        data = np.hypot(real, imag)
    return np.rint(data) if spec.quantize else data


def band_products(data, weights):
    """``data`` resampled by one weight matrix per axis, float64: each band
    (``resolution._bands``) of each axis's matrix is one matrix product over
    its window, in axis order 0, 1, 2, clamped at zero."""
    b0, b1, b2 = (_bands(w) for w in weights)
    (n0, n1, n2), (m0, m1, m2) = data.shape, (w.shape[0] for w in weights)
    x, a0 = np.asarray(data, dtype=np.float64).reshape(n0, n1 * n2), np.empty((m0, n1 * n2))
    for rows, cols, w in b0:
        np.matmul(w, x[cols], out=a0[rows])
    a0, a1 = a0.reshape(m0, n1, n2), np.empty((m0, m1, n2))
    for rows, cols, w in b1:
        np.matmul(w, a0[:, cols], out=a1[:, rows])
    a1, out = a1.reshape(m0 * m1, n2), np.empty((m0 * m1, m2))
    for rows, cols, w in b2:
        np.matmul(a1[:, cols], w.T, out=out[:, rows])
    return np.maximum(out.reshape(m0, m1, m2), 0.0)


def downsample_f64(volume, factor):
    """``volume``'s float64 copy resampled by ``factor`` through
    ``band_products`` of the resampling matrices (uncached)."""
    return band_products(volume.data, [_resample_weights(dim, math.floor(dim / factor), factor) for dim in volume.shape])


def carry_by_windows(bad, axis, factor):
    """``bad`` carried through one axis of the grid of ``downsample`` by
    ``factor``, one output sample at a time: it is bad when any source sample
    from ceil(src - 3 factor) to floor(src + 3 factor), clamped to the axis,
    is, src being (i + 0.5) factor - 0.5."""
    n_in = bad.shape[axis]
    moved = np.moveaxis(bad, axis, 0)
    out = []
    for i in range(math.floor(n_in / factor)):
        src = (i + 0.5) * factor - 0.5
        lo, hi = max(math.ceil(src - 3 * factor), 0), min(math.floor(src + 3 * factor), n_in - 1)
        out.append(moved[lo : hi + 1].any(axis=0))
    return np.moveaxis(np.array(out, dtype=bool).reshape(-1, *moved.shape[1:]), 0, axis)


def sequential_curve(volume, factors, cfg=SearchConfig()):
    """The resolution curve of ``volume``, every step on the calling thread:
    the volume's estimate, the factor-1 point, then per factor in the order
    given its downsample and its noise. That noise is ``moments_noise`` of
    each slice of the downsampled volume, over its samples outside the mask
    of the voxels above the estimate's t_opt carried axis by axis with
    ``carry_by_windows``, or over all its samples when that mask is empty or covers
    every positive sample; the mean over the slices that keep a sample. Each
    SNR is the estimate's signal mean over the point's noise."""
    factors = check_factors(factors)
    full = estimate(volume, cfg)
    outcomes = []
    for f in factors:
        try:
            vol = volume if f == 1.0 else downsample(volume, f)
        except ValueError as exc:
            outcomes.append(str(exc))
            continue
        if f == 1.0:
            noise = full.sigma
        else:
            bad = np.asarray(volume.data, dtype=np.float64) > full.threshold.t_opt
            for axis in range(3):
                bad = carry_by_windows(bad, axis, f)
            if not ((vol.data > 0) & ~bad).any():
                bad = np.zeros_like(bad)
            masked = np.where(bad, 0.0, vol.data)
            present = [n for n in (moments_noise(img, cfg.correction_factor) for img in masked) if n is not None]
            noise = float(np.mean(present)) if present else None
        if noise is None:
            outcomes.append("no slice keeps a positive sample")
        elif not noise > 0:
            outcomes.append("estimated noise is not positive")
        else:
            snr = full.signal_mean / noise
            finite = math.isfinite(noise) and math.isfinite(snr)
            point = CurvePoint(effective_resolution(vol.voxel_size), noise, snr)
            outcomes.append(point if finite else f"noise {noise!r} and SNR {snr!r} must be finite")
    points = sorted((o for o in outcomes if isinstance(o, CurvePoint)), key=lambda p: p.resolution_mm)
    failures = tuple((f, o) for f, o in zip(factors, outcomes) if isinstance(o, str))
    if len(points) < 2:
        raise EstimationError(f"resolution curve collapsed: only {len(points)} usable points ({list(failures)})")
    m, y0, residual = fit_power_law([p.resolution_mm for p in points], [p.noise for p in points])
    return ResolutionCurve(tuple(points), m, y0, residual, failures, full)
