"""Differential tests of the noise scan against the per-slice reference functions.

``_VolumeScan`` answers every per-slice question at a threshold from
cumulative tables, in a histogram layout for integral data and a sorted
layout otherwise. ``homogeneity_variance`` and ``positive_noise`` compute the
same statistics slice by slice from the thresholded pixels; they sum in
another order, so they are compared within a tolerance set from float64
precision. The two layouts must agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbench import CORRECTION_FACTOR, SearchConfig, Slice, Volume, estimate, homogeneity_variance, positive_noise
from qbench import noise
from qbench.noise import _VolumeScan, find_t_opt

# s2/n - (s1/n)**2 cancels: after k sequential additions a std near zero
# carries an absolute error up to about sqrt(2k x 2**-52) x t_max, under
# 1e-6 x t_max for the k <= 144 pixels per slice of ``volumes``; the larger
# volume of the scaled test has stds far from zero, where it is much smaller
REL_TOL = 1e-6
# the same examples on every run, so the suite cannot flake
EXAMPLES = dict(deadline=None, derandomize=True)


class _SortedScan(_VolumeScan):
    """The sorted layout, whatever the data."""

    def _integral_levels(self, flat):
        return None


def make_volume(seed, n, h, w, top, integral, zero_fraction, zero_slice):
    rng = np.random.default_rng(seed)
    data = rng.random((n, h, w)) ** 2 * top
    data[rng.random((n, h, w)) < zero_fraction] = 0.0
    if zero_slice and n > 1:
        data[rng.integers(n)] = 0.0
    if integral:
        data = np.rint(data)
    return Volume.from_array(data)


volumes = st.builds(
    make_volume,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    top=st.sampled_from([3.0, 60.0, 140.0, 900.0]),
    integral=st.booleans(),
    zero_fraction=st.sampled_from([0.0, 0.3]),
    zero_slice=st.booleans(),
)


def thresholds(volume):
    """Every level, the midpoints between them, and the ends."""
    levels = np.unique(volume.data)
    t_max = volume.intensity_max
    return np.unique(np.concatenate(([0.0, t_max, t_max + 1.5], levels, levels + 0.5)))


@settings(max_examples=80, **EXAMPLES)
@given(volumes)
def test_scan_matches_per_slice_reference(volume):
    scan = _VolumeScan(volume)
    ts = thresholds(volume)
    scale = max(volume.intensity_max, 1.0)

    counts = [int(((volume.data > 0) & (volume.data <= t)).sum()) for t in ts]
    assert scan.positive_count(ts).tolist() == counts

    variances, means = scan.curve(ts)
    for t, var, mean in zip(ts, variances, means):
        ref_var, ref_mean = homogeneity_variance(volume, t)
        assert mean == pytest.approx(ref_mean, rel=REL_TOL, abs=REL_TOL * scale)
        assert var == pytest.approx(ref_var, rel=REL_TOL, abs=REL_TOL * scale**2)
        got = scan.positive_sigmas(t, CORRECTION_FACTOR)
        ref = [positive_noise(Slice(img), t, CORRECTION_FACTOR) for img in volume.data]
        assert [g is None for g in got] == [r is None for r in ref]
        for g, r in zip(got, ref):
            if r is not None:
                assert g == pytest.approx(r, rel=REL_TOL, abs=REL_TOL * scale)

    positive = volume.data[volume.data > 0]
    assert np.array_equal(scan.distinct_values(), np.unique(positive))


@settings(max_examples=60, **EXAMPLES)
@given(volumes.map(lambda v: Volume.from_array(np.concatenate([v.data] * 9))))
def test_points_equal_one_t_at_a_time_bit_for_bit(volume):
    """The probe walk evaluates its whole ladder at once; each value must be
    the one a single-t evaluation gives. From 8 slices on, numpy sums a
    single t's slices pairwise, not in slice order."""
    scan = _VolumeScan(volume)
    ts = thresholds(volume)
    variances, means = scan.points(ts)
    for t, var, mean in zip(ts, variances, means):
        one_var, one_mean = scan.curve(np.array([t]))
        assert (var, mean) == (one_var[0], one_mean[0]) == scan.point(t)


def assert_same_threshold(a, b):
    assert (a.t_opt, a.t_lower, a.t_max, a.no_object, a.mode_used, a.t_rejected) == (
        b.t_opt,
        b.t_lower,
        b.t_max,
        b.no_object,
        b.mode_used,
        b.t_rejected,
    )
    assert np.array_equal(a.curve, b.curve)


CONFIGS = [SearchConfig(), SearchConfig(search_mode="exhaustive"), SearchConfig(grid="distinct", t_start=5.0, epsilon=3.0)]


@settings(max_examples=60, **EXAMPLES)
@given(volumes.filter(lambda v: np.array_equal(v.data, np.rint(v.data))))
def test_histogram_layout_equals_sorted_layout(volume):
    hist, srt = _VolumeScan(volume), _SortedScan(volume)
    n, h, w = volume.shape
    if volume.intensity_max + 1 <= h * w:
        assert hist._sorted is None
    ts = thresholds(volume)
    for a, b in zip(hist._moments(ts), srt._moments(ts)):
        assert np.array_equal(a, b)
    assert np.array_equal(hist.positive_count(ts), srt.positive_count(ts))
    assert np.array_equal(hist.distinct_values(), srt.distinct_values())
    for a, b in zip(hist.curve(ts) + hist.points(ts), srt.curve(ts) + srt.points(ts)):
        assert np.array_equal(a, b)
    t = float(ts[len(ts) // 2])
    assert hist.positive_sigmas(t, CORRECTION_FACTOR) == srt.positive_sigmas(t, CORRECTION_FACTOR)
    for cfg in CONFIGS:
        assert_same_threshold(find_t_opt(volume, cfg, scan=hist), find_t_opt(volume, cfg, scan=srt))


@settings(max_examples=8, **EXAMPLES)
@given(seed=st.integers(0, 2**32 - 1), grid=st.sampled_from(["uniform", "distinct"]))
def test_scaled_config_beyond_twelve_bits(seed, grid):
    """t_max > 4095 rescales t_start and epsilon; 80x80 slices keep the histogram layout."""
    rng = np.random.default_rng(seed)
    data = np.hypot(rng.normal(0.0, 300.0, (3, 80, 80)), rng.normal(0.0, 300.0, (3, 80, 80)))
    data[:, 25:55, 25:55] += 4200.0
    volume = Volume.from_array(np.rint(data))
    assert volume.intensity_max > 4095
    cfg = SearchConfig(grid=grid)
    hist, srt = _VolumeScan(volume), _SortedScan(volume)
    assert hist._sorted is None
    result = find_t_opt(volume, cfg, scan=hist)
    assert_same_threshold(result, find_t_opt(volume, cfg, scan=srt))
    scale = volume.intensity_max
    for t, var, mean in result.curve[:: max(1, len(result.curve) // 20)]:
        ref_var, ref_mean = homogeneity_variance(volume, t)
        assert mean == pytest.approx(ref_mean, rel=REL_TOL, abs=REL_TOL * scale)
        assert var == pytest.approx(ref_var, rel=REL_TOL, abs=REL_TOL * scale**2)


@pytest.mark.parametrize("integral", [True, False])
def test_all_zero_slice_has_no_sigma(integral):
    rng = np.random.default_rng(5)
    data = np.hypot(rng.normal(0.0, 20.0, (4, 24, 24)), rng.normal(0.0, 20.0, (4, 24, 24)))
    data[2] = 0.0
    volume = Volume.from_array(np.rint(data) if integral else data)
    assert (_VolumeScan(volume)._sorted is None) == integral
    est = estimate(volume)
    assert est.per_slice_sigma[2] is None
    assert all(v is not None for i, v in enumerate(est.per_slice_sigma) if i != 2)


def test_estimate_builds_one_scan_and_calls_find_t_opt(monkeypatch, disk_volume):
    built, searched = [], []

    class CountingScan(_VolumeScan):
        def __init__(self, volume):
            built.append(volume)
            super().__init__(volume)

    original = noise.find_t_opt
    monkeypatch.setattr(noise, "_VolumeScan", CountingScan)
    monkeypatch.setattr(noise, "find_t_opt", lambda *a, **k: searched.append(1) or original(*a, **k))
    estimate(disk_volume, SearchConfig(search_mode="exhaustive"))
    assert built == [disk_volume]
    assert searched == [1]
