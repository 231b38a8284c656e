"""Differential tests of the noise scan against the per-slice oracle in ``oracle.py``.

``_VolumeScan`` answers every per-slice question at a lattice index from
cumulative tables of the pixels binned on the search lattice. Its tables
are checked against ``oracle.lattice_sums`` at every index, and
``oracle.homogeneity_variance`` and ``oracle.positive_noise`` compute the
statistics slice by slice from the thresholded pixels; they sum in another
order, so they are compared within a tolerance set from float64 precision.
Integer rows fold their level counts into the bins, and must give the
tables of the per-pixel binning bit for bit, whatever the slice count; an
index must give the same values alone as inside a grid. The hand-computed
checks of the scan are in ``test_noise.py`` and ``test_volume.py``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbench import CORRECTION_FACTOR, EstimationError, SearchConfig, Volume, downsample, estimate, generate
from qbench import noise
from qbench.noise import _gap_free, _lattice, _lattice_index, _probe_walk, _VolumeScan, find_t_lower, find_t_opt
from conftest import build_scan, disk_phantom
from oracle import (
    background_covered,
    homogeneity_variance,
    is_saturated,
    lattice_sums,
    positive_noise,
    zero_fraction,
)
from test_acceptance import _criterion_3_corpus

# s2/n - (s1/n)**2 cancels: after k sequential additions a std near zero
# carries an absolute error up to about sqrt(2k x 2**-52) x t_max, under
# 1e-6 x t_max for the k <= 144 pixels per slice of ``volumes``; the larger
# volume of the scaled test has stds far from zero, where it is much smaller
REL_TOL = 1e-6
# the same examples on every run, so the suite cannot flake
EXAMPLES = dict(deadline=None, derandomize=True)


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


def boundaries(scan, volume):
    """Index 0, the last index and, for every level, its index and the one
    below it: the indices at which the pixels up to the threshold change."""
    levels = _lattice_index(np.unique(volume.data).astype(np.float64), scan.lattice.step)
    return np.unique(np.concatenate(([0, scan.lattice.stop], levels, np.maximum(levels - 1, 0))))


def thresholds(scan, ns):
    """The threshold of each lattice index: n * step, and t_max at the last one."""
    return np.where(ns == scan.lattice.stop, scan.t_max, ns * scan.lattice.step)


@settings(max_examples=80, **EXAMPLES)
@given(volumes)
def test_scan_matches_per_slice_reference(volume):
    scan = build_scan(volume)
    ns = boundaries(scan, volume)
    scale = max(volume.intensity_max, 1.0)

    counts = [int(((volume.data > 0) & (volume.data <= t)).sum()) for t in thresholds(scan, ns)]
    variances, means, positives = scan.curve_and_count(ns)
    assert positives.tolist() == counts
    for n, t, var, mean in zip(ns, thresholds(scan, ns), variances, means):
        ref_var, ref_mean = homogeneity_variance(volume, t)
        assert mean == pytest.approx(ref_mean, rel=REL_TOL, abs=REL_TOL * scale)
        assert var == pytest.approx(ref_var, rel=REL_TOL, abs=REL_TOL * scale**2)
        got = scan.positive_sigmas(n, CORRECTION_FACTOR)
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
    """Each point of one ``curve_and_count`` call equals that index evaluated
    alone, binned by level and pixel by pixel: a threshold's variance, mean
    and count do not depend on what else the grid holds, so the no-object
    guard compares the grid's minimum with the very value a lone t_max gives."""
    for scan in (build_scan(volume), build_scan(volume, per_pixel=True)):
        ns = boundaries(scan, volume)
        for n, *point in zip(ns, *scan.curve_and_count(ns)):
            assert point == [lone[0] for lone in scan.curve_and_count(np.array([n]))]


def general_lattice_index(x, step):
    """``_lattice_index`` without its shortcut at step 1: the ceiling of the
    quotient, corrected one step down or up by the grid's own products."""
    n = np.ceil(x / step)
    n -= (n - 1.0) * step >= x
    n += n * step < x
    return n.astype(np.intp)


@st.composite
def step_one_values(draw):
    """Pixel values of one float dtype up to 4095: zeros, integers, halves,
    the neighbours of integers one ulp away, and any value in between."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    ks = np.array(draw(st.lists(st.integers(0, 4095), min_size=1, max_size=64)), dtype=dtype)
    anywhere = draw(st.lists(st.floats(0, 4095, width=np.finfo(dtype).bits), max_size=16))
    near = [ks, ks + dtype(0.5), np.nextafter(ks, dtype(np.inf)), np.nextafter(ks, dtype(-np.inf))]
    return np.maximum(np.concatenate([np.zeros(1, dtype), *near, np.array(anywhere, dtype)]), dtype(0))


@settings(max_examples=100, **EXAMPLES)
@given(step_one_values())
def test_lattice_index_at_step_one_is_the_general_formula(x):
    """At step 1 the quotient and both products are exact, so the index is
    the ceiling: the shortcut gives the general formula's indices exactly."""
    assert np.array_equal(_lattice_index(x, 1.0), general_lattice_index(x, 1.0))
    assert np.array_equal(_lattice_index(x.astype(np.float64), 1.0), general_lattice_index(x, 1.0))


def assert_same_threshold(a, b):
    assert (a.t_opt, a.t_lower, a.t_max, a.no_object, a.t_rejected) == (b.t_opt, b.t_lower, b.t_max, b.no_object, b.t_rejected)
    assert np.array_equal(a.curve, b.curve)


CONFIGS = [SearchConfig(), SearchConfig(grid_step=0.5, t_start=10.0), SearchConfig(t_start=5.0, epsilon=3.0)]


def as_u16(volume):
    return Volume.from_array(volume.data.astype(np.uint16))


def bits(*arrays):
    return [a.tobytes() for a in arrays]


def assert_fold_equals_per_pixel(volume, cfg):
    """The scan that folds level counts and the one that bins each pixel
    hold the same tables, and so answer every query alike, bit for bit."""
    fold, pixel = build_scan(volume, cfg), build_scan(volume, cfg, per_pixel=True)
    assert bits(fold._tables) == bits(pixel._tables)
    ns = np.arange(fold.lattice.stop + 1)
    assert bits(*fold.curve_and_count(ns)) == bits(*pixel.curve_and_count(ns))
    n = ns[ns.size // 2]
    assert fold.positive_sigmas(n, CORRECTION_FACTOR) == pixel.positive_sigmas(n, CORRECTION_FACTOR)
    assert_same_threshold(find_t_opt(volume, cfg, scan=fold), find_t_opt(volume, cfg, scan=pixel))


@settings(max_examples=60, **EXAMPLES)
@given(many_slices.filter(lambda v: np.array_equal(v.data, np.rint(v.data))).map(as_u16), st.sampled_from(CONFIGS))
def test_level_fold_equals_per_pixel_bins(volume, cfg):
    assert_fold_equals_per_pixel(volume, cfg)


@st.composite
def edge_volumes(draw):
    """A volume of ``dtype`` with its maximum at ``top`` and the rest of its
    pixels on the lattice edges of its search: lattice points n * step, their
    neighbours one unit of the dtype (an ulp, or 1 for integers) either
    side, the smallest subnormal and -0.0 for floats, and zeros."""
    dtype = np.dtype(draw(st.sampled_from([np.uint8, np.uint16, np.float32, np.float64])))
    cfg = draw(st.sampled_from([SearchConfig(), SearchConfig(grid_step=0.5)]))
    # beyond 4095 the step is grid_step x top / 4095, a step over 1
    tops = [3.0, 200.0, 255.0] if dtype == np.uint8 else [3.0, 200.0, 4095.0, 4096.0, 5001.0, 60000.0]
    top = float(dtype.type(draw(st.sampled_from(tops))))
    n, h, w = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = _lattice(cfg, top, n)
    size = n * h * w
    points = rng.integers(0, lattice.stop + 1, size) * lattice.step
    side = rng.integers(-1, 2, size)
    if dtype.kind == "f":
        points = points.astype(dtype)
        points = np.where(side < 0, np.nextafter(points, -np.inf), np.where(side > 0, np.nextafter(points, np.inf), points))
        specials = [np.finfo(dtype).smallest_subnormal, -0.0]
    else:
        points = np.rint(points) + side
        specials = [0]
    data = np.clip(points, 0, top).astype(dtype)
    pick = rng.random(size) < 0.2
    data[pick] = rng.choice(np.array(specials, dtype), int(pick.sum()))
    data[0] = top
    return Volume.from_array(data.reshape(n, h, w)), cfg


@settings(max_examples=80, **EXAMPLES)
@given(edge_volumes())
def test_tables_equal_the_oracle_sums_at_every_lattice_index(volume_and_cfg):
    """At every lattice index n the tables hold ``oracle.lattice_sums`` of
    the pixels <= n * step (every pixel at the last index): counts exactly,
    integer sums exactly, float sums within float64 rounding. The pixels up
    to a threshold change only where a pixel's own index lies, found here by
    a binary search of the grid's products, so between two such indices
    the tables repeat bit for bit. On integer data the level fold gives the
    per-pixel tables bit for bit."""
    volume, cfg = volume_and_cfg
    scan = build_scan(volume, cfg)
    q, stop = scan.lattice.step, scan.lattice.stop
    grid = np.arange(stop + 1) * q
    assert grid[-1] >= volume.intensity_max and (stop == 0 or grid[-2] < volume.intensity_max)
    entries = np.unique(np.searchsorted(grid, volume.data.ravel().astype(np.float64), side="left"))
    expected = np.empty_like(scan._tables)
    for n in range(stop + 1):
        if n == 0 or n in entries:
            ref = lattice_sums(volume, grid[n])
        expected[:, :, n] = ref
    tables = scan._tables
    assert np.array_equal(tables[0], expected[0])
    if volume.data.dtype.kind == "u":
        assert np.array_equal(tables, expected)
        assert_fold_equals_per_pixel(volume, cfg)
    else:
        np.testing.assert_allclose(tables[1:], expected[1:], rtol=1e-12, atol=0.0)
        assert np.all(np.diff(tables, axis=2)[:, :, np.setdiff1d(np.arange(1, stop + 1), entries) - 1] == 0)


@settings(max_examples=8, **EXAMPLES)
@given(seed=st.integers(0, 2**32 - 1))
def test_scaled_config_beyond_twelve_bits(seed):
    """t_max > 4095 scales the lattice step over 1, so integer rows fold
    their levels into coarser bins; the fold equals the per-pixel bins."""
    rng = np.random.default_rng(seed)
    data = np.hypot(rng.normal(0.0, 300.0, (3, 80, 80)), rng.normal(0.0, 300.0, (3, 80, 80)))
    data[:, 25:55, 25:55] += 4200.0
    volume = Volume.from_array(np.rint(data).astype(np.uint16))
    assert volume.intensity_max > 4095
    assert_fold_equals_per_pixel(volume, SearchConfig())
    result = find_t_opt(volume)
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
    # u16 also beyond the 8-bit range, and beyond 4095, where the step is over 1
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
    """Binned by level and pixel by pixel, the ladder and the grid read
    lattice indices only, the ladder none at t_max, and the grid ends at
    t_max, index stop. The curve's thresholds are the lattice products
    n * step and then t_max. The grid's one take holds the count an epsilon
    step below every curve point, at index n - epsilon, and its coverage
    flags equal the two-take ``oracle.background_covered``."""
    for scan in (build_scan(volume, cfg), build_scan(volume, cfg, per_pixel=True)):
        takes, flags = [], []

        def curve_and_count(ns, scan=scan):
            takes.append((ns, *_VolumeScan.curve_and_count(scan, ns)))
            return takes[-1][1:]

        def gap_free(*args):
            flags.append(_gap_free(*args))
            return flags[-1]

        scan.curve_and_count = curve_and_count
        with pytest.MonkeyPatch.context() as m:
            m.setattr(noise, "_gap_free", gap_free)
            result = find_t_opt(volume, cfg, scan=scan)
        q, start, eps, stop = scan.lattice
        if len(takes) == 2:
            assert np.array_equal(takes[0][0], np.arange(start, stop, eps))
        grid, *_, counts = takes[-1]
        first = grid[0]
        assert np.array_equal(grid, np.arange(first, stop + 1))
        ts = result.curve[:, 0]
        on = grid[-ts.size :]
        assert np.array_equal(ts[:-1], on[:-1] * q) and ts[-1] == scan.t_max
        assert np.all(ts[:-1] < scan.t_max)
        if stop * q > scan.t_max:
            on = on[:-1]  # t_max off the lattice has no flag
        down = np.maximum(on - eps, 0)
        assert np.array_equal(counts[down - first], _VolumeScan.curve_and_count(scan, down)[2])
        assert np.array_equal(flags[-1][: on.size], background_covered(scan, on, down))


def test_find_t_opt_looks_the_scan_up_twice(monkeypatch, disk_volume):
    """The probe ladder once, then the grid with its coverage counts once."""
    scan = build_scan(disk_volume)
    calls = []
    curve_and_count = _VolumeScan.curve_and_count

    def counting(self, ns):
        calls.append(ns.size)
        return curve_and_count(self, ns)

    monkeypatch.setattr(_VolumeScan, "curve_and_count", counting)
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
    """An over-cap config raises in the scan's constructor, before it
    allocates its tables, and so before any lookup, in every search."""
    monkeypatch.setattr(np, "empty", lambda *a, **k: pytest.fail("allocated the tables"))
    monkeypatch.setattr(_VolumeScan, "_bin_sums", lambda *_: pytest.fail("binned a row"))
    monkeypatch.setattr(_VolumeScan, "curve_and_count", lambda *_: pytest.fail("looked up"))
    for search in (find_t_opt, find_t_lower, estimate):
        with pytest.raises(EstimationError, match="over the cap"):
            search(disk_volume, SearchConfig(grid_step=1e-6))


def test_a_given_scan_sets_the_lattice_of_the_search(disk_volume):
    """The search reads the lattice of the scan it is given, not one derived
    again from its config."""
    fine = SearchConfig(grid_step=0.5)
    assert_same_threshold(find_t_opt(disk_volume, SearchConfig(), scan=build_scan(disk_volume, fine)), find_t_opt(disk_volume, fine))


def test_probe_walk_equals_the_two_lookup_saturation_test(monkeypatch):
    """On the criterion-3 corpus, as f32 data and quantised to u16, binned
    by level and pixel by pixel: the saturation flags of the ladder's one
    take equal those of ``oracle.is_saturated``, with its own count take an
    epsilon step up."""
    saturated = 0
    for spec in _criterion_3_corpus():
        phantom = generate(spec)
        for volume in (phantom, as_u16(Volume.from_array(np.rint(phantom.data)))):
            for scan in (build_scan(volume), build_scan(volume, per_pixel=True)):
                lattice = scan.lattice
                ladder = np.arange(lattice.start, lattice.stop, lattice.epsilon)
                reference = is_saturated(scan, ladder, lattice.epsilon)
                flags = []
                with monkeypatch.context() as m:
                    m.setattr(noise, "_gap_free", lambda *a: flags.append(_gap_free(*a)) or flags[-1])
                    _probe_walk(scan)
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
    """u8/u16 data folds its level counts into the bins, and its float64
    copy bins each pixel; both give the same estimate bit for bit."""
    copy = Volume.from_array(volume.data.astype(np.float64), volume.voxel_size)
    assert volume.data.dtype in (np.uint8, np.uint16) and copy.data.dtype == np.float64
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


@settings(max_examples=60, **EXAMPLES)
@given(f32_volumes, st.sampled_from(CONFIGS))
def test_float32_volume_scans_and_estimates_like_its_float64_copy(volume, cfg):
    """A float32 volume's pixels widen exactly to float64 and are binned and
    summed as its float64 copy's are. Its tables, its signal mean at the
    index of every value present and the one below, and its estimate equal
    those of its float64 copy bit for bit."""
    copy = Volume.from_array(volume.data.astype(np.float64), volume.voxel_size)
    assert volume.data.dtype == np.float32 and copy.data.dtype == np.float64
    a, b = build_scan(volume, cfg), build_scan(copy, cfg)
    assert bits(a._tables) == bits(b._tables)
    ns = boundaries(a, copy)
    assert [a.mean_above(n) for n in ns] == [b.mean_above(n) for n in ns]
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
    """Binned by level and pixel by pixel, the signal mean equals numpy's
    mean of the pixels above an index's threshold, bit for bit."""
    copy = Volume.from_array(volume.data.astype(np.float64))
    for scan in (build_scan(volume), build_scan(volume, per_pixel=True)):
        ns = boundaries(scan, volume)
        for n, t in zip(ns, thresholds(scan, ns)):
            above = copy.data[copy.data > t]
            assert scan.mean_above(n) == (float(above.mean()) if above.size else 0.0)


def make_float64_phantom(seed, n, size, sigma, factor):
    """A float64 disk phantom, or its copy downsampled by ``factor``."""
    volume = disk_phantom(size / 3, 1000.0, sigma, seed, width=size, height=size, n_slices=n)
    return volume if factor == 1.0 else downsample(volume, factor)


float64_phantoms = st.builds(
    make_float64_phantom,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    size=st.sampled_from([24, 40]),
    sigma=st.sampled_from([40.0, 100.0, 150.0]),
    factor=st.sampled_from([1.0, 1.5, 2.0]),
)


@settings(max_examples=40, **EXAMPLES)
@given(float64_phantoms, st.randoms(use_true_random=False))
def test_float64_signal_mean_is_slice_order_free_and_near_the_exact_mean(volume, rng):
    """The signal mean of a float64 volume, at the estimate's t_opt and at
    300 and 700, is the same bit for bit under a slice permutation, and
    within 1e-13 relative of the exact mean of the pixels above."""
    assert volume.data.dtype == np.float64
    order = list(range(volume.n_slices))
    rng.shuffle(order)
    permuted = Volume.from_array(volume.data[order], volume.voxel_size)
    a, b = build_scan(volume), build_scan(permuted)
    t_opt = estimate(volume).threshold.t_opt
    ns = {int(_lattice_index(t, a.lattice.step)) for t in (t_opt, 300.0, 700.0) if t <= a.t_max}
    for n in ns:
        assert a.mean_above(n) == b.mean_above(n)
        above = volume.data[volume.data > n * a.lattice.step]
        exact = math.fsum(above) / above.size if above.size else 0.0
        assert a.mean_above(n) == pytest.approx(exact, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("integral", [True, False])
def test_all_zero_slice_has_no_sigma(integral):
    rng = np.random.default_rng(5)
    data = np.hypot(rng.normal(0.0, 20.0, (4, 24, 24)), rng.normal(0.0, 20.0, (4, 24, 24)))
    data[2] = 0.0
    volume = Volume.from_array(np.rint(data).astype(np.uint16) if integral else data)
    est = estimate(volume)
    assert est.per_slice_sigma[2] is None
    assert all(v is not None for i, v in enumerate(est.per_slice_sigma) if i != 2)


def test_estimate_builds_one_scan_and_calls_find_t_opt(monkeypatch, disk_volume):
    built, searched = [], []

    class CountingScan(_VolumeScan):
        def __init__(self, volume, cfg):
            built.append(volume)
            super().__init__(volume, cfg)

    original = noise.find_t_opt
    monkeypatch.setattr(noise, "_VolumeScan", CountingScan)
    monkeypatch.setattr(noise, "find_t_opt", lambda *a, **k: searched.append(1) or original(*a, **k))
    estimate(disk_volume)
    assert built == [disk_volume]
    assert searched == [1]


@pytest.mark.parametrize("dtype", [np.uint16, np.float32, np.float64])
def test_scan_keeps_no_reference_to_the_pixels(disk_volume, dtype):
    """After its build the scan answers from its tables alone: none of its
    attributes is, or views, the volume's array."""
    volume = Volume.from_array(np.rint(disk_volume.data).astype(dtype))
    scan = build_scan(volume)
    arrays = [v for v in vars(scan).values() if isinstance(v, np.ndarray)]
    assert arrays and not any(np.shares_memory(a, volume.data) for a in arrays)
