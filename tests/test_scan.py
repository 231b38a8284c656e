"""Differential tests of the noise scan against the per-slice oracle in ``oracle.py``.

``_VolumeScan`` answers every per-slice question at a threshold from
cumulative tables, in a histogram layout for u8/u16 data and a sorted
layout otherwise. ``oracle.homogeneity_variance`` and ``oracle.positive_noise``
compute the same statistics slice by slice from the thresholded pixels; they
sum in another order, so they are compared within a tolerance set from
float64 precision. The two layouts must agree bit for bit, whatever the
slice count, and a t must give the same values alone as inside a grid.
The hand-computed checks of the scan are in ``test_noise.py`` and
``test_volume.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbench import CORRECTION_FACTOR, EstimationError, SearchConfig, Volume, estimate, generate
from qbench import noise
from qbench.noise import _gap_free, _lattice, _probe_walk, _VolumeScan, find_t_opt
from oracle import background_covered, homogeneity_variance, is_saturated, positive_noise, zero_fraction
from test_acceptance import _criterion_3_corpus

# s2/n - (s1/n)**2 cancels: after k sequential additions a std near zero
# carries an absolute error up to about sqrt(2k x 2**-52) x t_max, under
# 1e-6 x t_max for the k <= 144 pixels per slice of ``volumes``; the larger
# volume of the scaled test has stds far from zero, where it is much smaller
REL_TOL = 1e-6
# the same examples on every run, so the suite cannot flake
EXAMPLES = dict(deadline=None, derandomize=True)


class _SortedScan(_VolumeScan):
    """The sorted layout, whatever the data."""

    def _histogram(self, flat):
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

    variances, means, _ = scan.curve_and_count(ts)
    for t, var, mean in zip(ts, variances, means):
        ref_var, ref_mean = homogeneity_variance(volume, t)
        assert mean == pytest.approx(ref_mean, rel=REL_TOL, abs=REL_TOL * scale)
        assert var == pytest.approx(ref_var, rel=REL_TOL, abs=REL_TOL * scale**2)
        got = scan.positive_sigmas(t, CORRECTION_FACTOR)
        ref = [positive_noise(img, t, CORRECTION_FACTOR) for img in volume.data]
        assert [g is None for g in got] == [r is None for r in ref]
        for g, r in zip(got, ref):
            if r is not None:
                assert g == pytest.approx(r, rel=REL_TOL, abs=REL_TOL * scale)


# nine copies of each slice: from 8 slices on numpy sums pairwise, not in slice order
many_slices = volumes.map(lambda v: Volume.from_array(np.concatenate([v.data] * 9)))


@settings(max_examples=60, **EXAMPLES)
@given(many_slices)
def test_points_equal_one_t_at_a_time_bit_for_bit(volume):
    """Each point of one ``curve_and_count`` call equals that t evaluated
    alone, on both layouts: a threshold's variance, mean and count do not
    depend on what else the grid holds, so the no-object guard compares the
    grid's minimum with the very value a lone t_max gives."""
    ts = thresholds(volume)
    for scan in (_VolumeScan(volume), _SortedScan(volume)):
        for t, *point in zip(ts, *scan.curve_and_count(ts)):
            assert point == [lone[0] for lone in scan.curve_and_count(np.array([t]))]


def assert_same_threshold(a, b):
    assert (a.t_opt, a.t_lower, a.t_max, a.no_object, a.t_rejected) == (b.t_opt, b.t_lower, b.t_max, b.no_object, b.t_rejected)
    assert np.array_equal(a.curve, b.curve)


CONFIGS = [SearchConfig(), SearchConfig(grid_step=0.5, t_start=10.0), SearchConfig(t_start=5.0, epsilon=3.0)]


def as_u16(volume):
    return Volume.from_array(volume.data.astype(np.uint16))


@settings(max_examples=60, **EXAMPLES)
@given(many_slices.filter(lambda v: np.array_equal(v.data, np.rint(v.data))).map(as_u16))
def test_histogram_layout_equals_sorted_layout(volume):
    hist, srt = _VolumeScan(volume), _SortedScan(volume)
    n, h, w = volume.shape
    if volume.intensity_max + 1 <= h * w:
        assert hist._sorted is None
    ts = thresholds(volume)
    tables = [scan._lookup(ts, scan._count, scan._sum1, scan._sum2) for scan in (hist, srt)]
    for a, b in zip(*tables):
        assert np.array_equal(a, b)
    assert np.array_equal(hist.positive_count(ts), srt.positive_count(ts))
    for a, b in zip(hist.curve_and_count(ts), srt.curve_and_count(ts)):
        assert np.array_equal(a, b)
    t = float(ts[len(ts) // 2])
    assert hist.positive_sigmas(t, CORRECTION_FACTOR) == srt.positive_sigmas(t, CORRECTION_FACTOR)
    for cfg in CONFIGS:
        assert_same_threshold(find_t_opt(volume, cfg, scan=hist), find_t_opt(volume, cfg, scan=srt))


def make_float_volume(seed, n, h, w, magnitude, levels, zero_fraction):
    """Values up to ``magnitude``, on ``levels`` evenly spaced values (ties) when given."""
    rng = np.random.default_rng(seed)
    data = rng.random((n, h, w))
    if levels:
        data = np.floor(data * levels) / levels
    data *= magnitude
    data[rng.random((n, h, w)) < zero_fraction] = 0.0
    return Volume.from_array(data)


float_volumes = st.builds(
    make_float_volume,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    magnitude=st.floats(1e-3, 1e6),
    levels=st.sampled_from([None, 2, 7]),
    zero_fraction=st.sampled_from([0.0, 0.4]),
)


@settings(max_examples=80, **EXAMPLES)
@given(float_volumes)
def test_sorted_prefix_sums_are_the_cumsums_of_values_and_squares(volume):
    """Both sums of the sorted layout come from one complex ``cumsum``; each
    part equals the real ``cumsum`` of the sorted values or of their squares
    bit for bit, after a leading zero column."""
    scan = _VolumeScan(volume)
    values = np.sort(volume.data.reshape(volume.n_slices, -1), axis=1)
    assert np.array_equal(scan._sorted, values)
    zeros = np.zeros((volume.n_slices, 1))
    assert np.array_equal(scan._sum1, np.hstack((zeros, np.cumsum(values, axis=1))))
    assert np.array_equal(scan._sum2, np.hstack((zeros, np.cumsum(values * values, axis=1))))


@settings(max_examples=8, **EXAMPLES)
@given(seed=st.integers(0, 2**32 - 1))
def test_scaled_config_beyond_twelve_bits(seed):
    """t_max > 4095 scales the lattice step; 80x80 slices keep the histogram layout."""
    rng = np.random.default_rng(seed)
    data = np.hypot(rng.normal(0.0, 300.0, (3, 80, 80)), rng.normal(0.0, 300.0, (3, 80, 80)))
    data[:, 25:55, 25:55] += 4200.0
    volume = Volume.from_array(np.rint(data).astype(np.uint16))
    assert volume.intensity_max > 4095
    hist, srt = _VolumeScan(volume), _SortedScan(volume)
    assert hist._sorted is None
    result = find_t_opt(volume, scan=hist)
    assert_same_threshold(result, find_t_opt(volume, scan=srt))
    scale = volume.intensity_max
    for t, var, mean in result.curve[:: max(1, len(result.curve) // 20)]:
        ref_var, ref_mean = homogeneity_variance(volume, t)
        assert mean == pytest.approx(ref_mean, rel=REL_TOL, abs=REL_TOL * scale)
        assert var == pytest.approx(ref_var, rel=REL_TOL, abs=REL_TOL * scale**2)


def make_bright_volume(seed, n, h, w, sigma, has_object):
    """Float Rayleigh background of scale ``sigma``, with or without an object block 10 sigma above it."""
    rng = np.random.default_rng(seed)
    data = np.hypot(rng.normal(0.0, sigma, (n, h, w)), rng.normal(0.0, sigma, (n, h, w)))
    if has_object:
        data[:, : max(1, h // 3), : max(1, w // 2)] += 10 * sigma
    return Volume.from_array(data)


bright_volumes = st.builds(
    make_bright_volume,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    h=st.integers(8, 32),
    w=st.integers(8, 32),
    sigma=st.sampled_from([1500.0, 1e4, 3e5]),
    has_object=st.booleans(),
).filter(lambda v: v.intensity_max > 4095)


@settings(max_examples=30, **EXAMPLES)
@given(bright_volumes)
def test_estimate_is_equivariant_under_powers_of_two_beyond_twelve_bits(volume):
    """Beyond 4095 the lattice step follows t_max and the probes are whole
    steps, so scaling a volume by 2**j scales every intensity of its estimate
    by 2**j bit for bit, for every j that keeps t_max beyond 4095."""
    base = estimate(volume)
    for j in range(-3, 13):
        k = 2.0**j
        if k * volume.intensity_max <= 4095:
            continue
        est = estimate(Volume.from_array(volume.data * k))
        tr, ref = est.threshold, base.threshold
        assert (est.sigma, est.signal_mean) == (k * base.sigma, k * base.signal_mean)
        assert (tr.t_opt, tr.t_lower, tr.t_max) == (k * ref.t_opt, k * ref.t_lower, k * ref.t_max)
        assert tr.t_rejected == (None if ref.t_rejected is None else k * ref.t_rejected)
        assert est.per_slice_sigma == tuple(None if v is None else k * v for v in base.per_slice_sigma)
        assert (est.snr, tr.no_object, est.zero_fraction) == (base.snr, ref.no_object, base.zero_fraction)
        assert np.array_equal(tr.curve, ref.curve * [k, k * k, k])


def make_unsigned_volume(seed, n, h, w, dtype, sigma, has_object, zero_fraction):
    """Rayleigh background of scale ``sigma``, an object block 10 sigma above it, rounded and clipped to the dtype."""
    rng = np.random.default_rng(seed)
    data = np.hypot(rng.normal(0.0, sigma, (n, h, w)), rng.normal(0.0, sigma, (n, h, w)))
    if has_object:
        data[:, : max(1, h // 3), : max(1, w // 2)] += 10 * sigma
    data[rng.random((n, h, w)) < zero_fraction] = 0.0
    return Volume.from_array(np.minimum(np.rint(data), np.iinfo(dtype).max).astype(dtype))


unsigned_volumes = st.builds(
    make_unsigned_volume,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 45),
    h=st.integers(4, 24),
    w=st.integers(4, 24),
    dtype=st.sampled_from([np.uint8, np.uint16]),
    sigma=st.sampled_from([0.5, 4.0, 12.0, 40.0]),
    has_object=st.booleans(),
    zero_fraction=st.sampled_from([0.0, 0.3]),
).flatmap(
    # u16 also beyond the 8-bit range, where slices of up to 576 pixels take the sorted layout
    lambda v: st.just(v) if v.data.dtype == np.uint8 else st.sampled_from([v, Volume.from_array(v.data * np.uint16(37))])
)


def lattice_volume(volume, factor):
    """``volume`` as is, or scaled by a factor that takes it off the integers."""
    return volume if factor is None else Volume.from_array(volume.data * factor)


lattice_volumes = st.builds(
    lattice_volume,
    st.builds(
        make_unsigned_volume,
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 8),
        h=st.integers(4, 24),
        w=st.integers(4, 24),
        dtype=st.sampled_from([np.uint8, np.uint16]),
        sigma=st.sampled_from([0.5, 4.0, 12.0, 40.0, 400.0]),
        has_object=st.booleans(),
        zero_fraction=st.sampled_from([0.0, 0.3]),
    ),
    st.sampled_from([None, 1.37]),
)
search_configs = st.builds(
    SearchConfig,
    t_start=st.floats(0.0, 100.0),
    epsilon=st.floats(0.1, 50.0),
    grid_step=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
)


@settings(max_examples=80, **EXAMPLES)
@given(lattice_volumes, search_configs)
def test_every_threshold_is_a_lattice_point(volume, cfg):
    """On both layouts, the ladder and the grid read lattice points n * step
    only, none above t_max, and the grid ends at t_max. The grid's one
    lookup holds the count an epsilon step below every curve point, at the
    lattice product (n - epsilon) * step, and its coverage flags equal the
    two-lookup ``oracle.background_covered``. Above 4095 the step is not
    dyadic, and t - epsilon * step can miss the product by an ulp."""
    for scan in (_VolumeScan(volume), _SortedScan(volume)):
        lookups, flags = [], []

        def curve_and_count(ts, scan=scan):
            lookups.append((ts, *_VolumeScan.curve_and_count(scan, ts)))
            return lookups[-1][1:]

        def gap_free(*args):
            flags.append(_gap_free(*args))
            return flags[-1]

        scan.curve_and_count = curve_and_count
        with pytest.MonkeyPatch.context() as m:
            m.setattr(noise, "_gap_free", gap_free)
            result = find_t_opt(volume, cfg, scan=scan)
        q, start, eps, stop = _lattice(cfg, scan.t_max)
        if len(lookups) == 2:
            ladder = lookups[0][0]
            assert np.array_equal(ladder, np.arange(start, stop, eps) * q) and np.all(ladder < scan.t_max)
        grid, *_, counts = lookups[-1]
        first = round(grid[0] / q)
        assert np.array_equal(grid[:-1], np.arange(first, stop) * q) and grid[-1] == scan.t_max
        assert np.all(grid[:-1] < scan.t_max)
        ts = result.curve[:, 0]
        assert np.array_equal(ts, grid[-ts.size :])
        on = ts[:-1] if stop * q > scan.t_max else ts  # t_max off the lattice has no flag
        down = np.maximum(np.rint(on / q).astype(int) - eps, 0)
        assert np.array_equal(counts[down - first], scan.positive_count(down * q))
        assert np.array_equal(flags[-1][: on.size], background_covered(scan, on, down * q))


def test_find_t_opt_looks_the_scan_up_twice(monkeypatch, disk_volume):
    """The probe ladder once, then the grid with its coverage counts once."""
    scan = _VolumeScan(disk_volume)
    calls = []
    lookup = _VolumeScan._lookup

    def counting(self, ts, *tables):
        calls.append(ts.size)
        return lookup(self, ts, *tables)

    monkeypatch.setattr(_VolumeScan, "_lookup", counting)
    result = find_t_opt(disk_volume, scan=scan)
    assert len(calls) == 2 and calls[0] > 0
    assert calls[1] >= len(result.curve)


@pytest.mark.parametrize(
    "given, snapped",
    [(dict(epsilon=2.5), dict(epsilon=2.0)), (dict(epsilon=3.5), dict(epsilon=4.0)), (dict(t_start=40.4), {})],
)
def test_search_flags_snap_to_whole_steps_ties_to_even(disk_volume, given, snapped):
    assert_same_threshold(find_t_opt(disk_volume, SearchConfig(**given)), find_t_opt(disk_volume, SearchConfig(**snapped)))


def test_search_over_the_cap_fails_before_any_lookup(monkeypatch, disk_volume):
    scan = _VolumeScan(disk_volume)
    monkeypatch.setattr(_VolumeScan, "_lookup", lambda *_: pytest.fail("looked up"))
    with pytest.raises(EstimationError, match="over the cap"):
        find_t_opt(disk_volume, SearchConfig(grid_step=1e-6), scan=scan)


def test_probe_walk_equals_the_two_lookup_saturation_test(monkeypatch):
    """On the criterion-3 corpus, as f32 data and quantised to u16, on both
    layouts: the saturation flags of the ladder's one lookup equal those of
    ``oracle.is_saturated``, with its own count lookup an epsilon step up."""
    saturated = 0
    for spec in _criterion_3_corpus():
        phantom = generate(spec)
        for volume in (phantom, as_u16(Volume.from_array(np.rint(phantom.data)))):
            for scan in (_VolumeScan(volume), _SortedScan(volume)):
                lattice = _lattice(SearchConfig(), scan.t_max)
                ladder = np.arange(lattice.start, lattice.stop, lattice.epsilon) * lattice.step
                reference = is_saturated(scan, ladder, lattice.epsilon * lattice.step)
                flags = []
                with monkeypatch.context() as m:
                    m.setattr(noise, "_gap_free", lambda *a: flags.append(_gap_free(*a)) or flags[-1])
                    _probe_walk(scan, lattice)
                assert np.array_equal(flags[0], reference)
                saturated += bool(reference.any())
    assert saturated > 0


def estimate_or_error(volume, cfg):
    try:
        return estimate(volume, cfg)
    except EstimationError as exc:
        return str(exc)


@settings(max_examples=80, **EXAMPLES)
@given(unsigned_volumes, st.sampled_from(CONFIGS))
def test_unsigned_volume_estimates_like_its_float64_copy(volume, cfg):
    """u8/u16 data takes the histogram layout whenever its bounds hold, and
    its float64 copy the sorted one; both give the same estimate bit for bit."""
    copy = Volume.from_array(volume.data.astype(np.float64), volume.voxel_size)
    assert volume.data.dtype in (np.uint8, np.uint16) and copy.data.dtype == np.float64
    n, h, w = volume.shape
    assert (_VolumeScan(volume)._sorted is None) == (volume.intensity_max + 1 <= h * w)
    assert _VolumeScan(copy)._sorted is not None
    a, b = estimate_or_error(volume, cfg), estimate_or_error(copy, cfg)
    if isinstance(a, str) or isinstance(b, str):
        assert a == b
        return
    assert (a.sigma, a.signal_mean, a.snr, a.per_slice_sigma, a.zero_fraction) == (
        b.sigma,
        b.signal_mean,
        b.snr,
        b.per_slice_sigma,
        b.zero_fraction,
    )
    assert_same_threshold(a.threshold, b.threshold)
    assert a.zero_fraction == zero_fraction(volume)


def make_f32_volume(seed, n, h, w, sigma, has_object, ties):
    """Rayleigh noise of ``sigma``, a bright square when asked, in float32;
    with ``ties``, values on a grid of sigma/4, so many pixels share a value."""
    rng = np.random.default_rng(seed)
    data = np.hypot(rng.normal(0.0, sigma, (n, h, w)), rng.normal(0.0, sigma, (n, h, w)))
    if has_object:
        data[:, h // 4 : h - h // 4, w // 4 : w - w // 4] += 12.0 * sigma
    if ties:
        data = np.floor(data / sigma * 4.0) * (sigma / 4.0)
    return Volume.from_array(data.astype(np.float32))


f32_volumes = st.builds(
    make_f32_volume,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    h=st.integers(4, 16),
    w=st.integers(4, 16),
    sigma=st.sampled_from([1e-3, 0.7, 100.0, 3e5]),
    has_object=st.booleans(),
    ties=st.booleans(),
)


def bits(*arrays):
    return [a.tobytes() for a in arrays]


@settings(max_examples=60, **EXAMPLES)
@given(f32_volumes, st.sampled_from(CONFIGS))
def test_float32_volume_scans_and_estimates_like_its_float64_copy(volume, cfg):
    """A float32 volume is sorted in float32 and searched with every t
    rounded down to float32. Its tables, its lookups at, one float64 ulp
    above and one below every value present, its signal mean there and its
    estimate equal those of its float64 copy bit for bit."""
    copy = Volume.from_array(volume.data.astype(np.float64), volume.voxel_size)
    assert volume.data.dtype == np.float32 and copy.data.dtype == np.float64
    a, b = _VolumeScan(volume), _VolumeScan(copy)
    assert a._sorted.dtype == np.float32 and b._sorted.dtype == np.float64
    assert bits(a._sum1, a._sum2) == bits(b._sum1, b._sum2)
    levels = np.unique(copy.data)
    ts = np.unique(np.concatenate(([0.0], levels, np.nextafter(levels, np.inf), np.nextafter(levels, -np.inf))))
    assert bits(*a._lookup(ts, a._count, a._sum1, a._sum2)) == bits(*b._lookup(ts, b._count, b._sum1, b._sum2))
    assert [a.mean_above(t) for t in ts] == [b.mean_above(t) for t in ts]
    x, y = estimate_or_error(volume, cfg), estimate_or_error(copy, cfg)
    if isinstance(x, str) or isinstance(y, str):
        assert x == y
        return
    assert (x.sigma, x.signal_mean, x.snr, x.per_slice_sigma, x.zero_fraction) == (
        y.sigma,
        y.signal_mean,
        y.snr,
        y.per_slice_sigma,
        y.zero_fraction,
    )
    assert_same_threshold(x.threshold, y.threshold)


def test_quantized_disk_phantom_estimates_like_its_float64_copy(disk_volume):
    data = np.rint(disk_volume.data)
    u16, copy = Volume.from_array(data.astype(np.uint16)), Volume.from_array(data)
    assert _VolumeScan(u16)._sorted is None and _VolumeScan(copy)._sorted is not None
    a, b = estimate(u16), estimate(copy)
    assert not a.threshold.no_object and a.signal_mean > 900
    assert (a.sigma, a.signal_mean, a.snr, a.per_slice_sigma, a.zero_fraction) == (
        b.sigma,
        b.signal_mean,
        b.snr,
        b.per_slice_sigma,
        b.zero_fraction,
    )
    assert_same_threshold(a.threshold, b.threshold)


@settings(max_examples=60, **EXAMPLES)
@given(unsigned_volumes)
def test_mean_above_equals_the_mean_of_the_pixels(volume):
    """On both layouts, the signal mean equals numpy's mean of the pixels above t, bit for bit."""
    copy = Volume.from_array(volume.data.astype(np.float64))
    for scan in (_VolumeScan(volume), _SortedScan(volume)):
        for t in thresholds(volume):
            above = copy.data[copy.data > t]
            assert scan.mean_above(t) == (float(above.mean()) if above.size else 0.0)


@pytest.mark.parametrize("integral", [True, False])
def test_all_zero_slice_has_no_sigma(integral):
    rng = np.random.default_rng(5)
    data = np.hypot(rng.normal(0.0, 20.0, (4, 24, 24)), rng.normal(0.0, 20.0, (4, 24, 24)))
    data[2] = 0.0
    volume = Volume.from_array(np.rint(data).astype(np.uint16) if integral else data)
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
    estimate(disk_volume)
    assert built == [disk_volume]
    assert searched == [1]
