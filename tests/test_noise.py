import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qbench import (
    CORRECTION_FACTOR,
    EstimationError,
    SearchConfig,
    Volume,
    background_roi_noise,
    estimate,
)
from qbench.noise import _MAX_STEP_SLICES, _lattice, find_t_opt, mean_sigma, slice_sigmas
from qbench.resolution import _positive_moments
from conftest import build_scan, const_phantom, disk_phantom, pure_noise, volume_from
from oracle import positive_noise


def scan_of(*slices):
    """The scan of a volume with one single-row slice per argument; its lattice step is 1."""
    return build_scan(volume_from([[row] for row in slices]))


def at(*ns):
    """Lattice indices; at step 1 index n is threshold n."""
    return np.array(ns)


class TestApplyThreshold:
    """Thresholding at t as the scan applies it: pixels above t count as zeros."""

    def test_threshold_at_max_is_identity(self):
        rng = np.random.default_rng(0)
        vol = volume_from(rng.random((1, 5, 5)) * 80)
        # one slice: the mean of the slice stds is that slice's std
        scan = build_scan(vol)
        _, [std], [count] = scan.curve_and_count(at(scan.lattice.stop))
        assert std == pytest.approx(vol.data.std(), rel=1e-12)
        assert count == np.count_nonzero(vol.data)

    def test_zero_threshold_clears_positives(self):
        scan = scan_of([0.0, 3.0, 7.5])
        _, [std], [count] = scan.curve_and_count(at(0))
        assert count == 0
        assert std == 0.0
        assert scan.positive_sigmas(0, CORRECTION_FACTOR) == [None]

    def test_hand_example(self):
        # 400 lies above t = 100: the slice reads [50, 0, 90]
        scan = scan_of([50.0, 400.0, 90.0])
        _, [std], [count] = scan.curve_and_count(at(100))
        assert count == 2
        assert std == pytest.approx(np.std([50.0, 0.0, 90.0]))

    def test_retained_values_bounded(self):
        rng = np.random.default_rng(1)
        vol = volume_from(rng.random((1, 4, 4)) * 200)
        kept = vol.data[vol.data <= 60.0]
        scan = build_scan(vol)
        assert scan.curve_and_count(at(60))[2][0] == kept.size
        assert scan.positive_sigmas(60, 1.0) == [pytest.approx(kept.std())]

    def test_idempotent(self):
        # the scan of the volume thresholded at t reads the same variance,
        # mean std and positive count at t
        rng = np.random.default_rng(2)
        vol = volume_from(rng.random((3, 6, 6)) * 10)
        once = volume_from(np.where(vol.data <= 4.0, vol.data, 0.0))
        for a, b in zip(build_scan(once).curve_and_count(at(4)), build_scan(vol).curve_and_count(at(4))):
            assert np.array_equal(a, b)

    def test_positive_count_monotone_in_t(self):
        rng = np.random.default_rng(3)
        scan = build_scan(volume_from(rng.random((1, 8, 8)) * 100))
        counts = scan.curve_and_count(at(0, 10, 25, 50, scan.lattice.stop))[2].tolist()
        assert counts == sorted(counts)


class TestPositiveNoise:
    """Per-slice corrected std of the positive pixels <= t (``positive_sigmas``)."""

    def test_hand_example(self):
        # thresholded positives {1, 3}: population std 1, times 1.53
        assert scan_of([0.0, 1.0, 3.0, 9.0]).positive_sigmas(5, 1.53) == [pytest.approx(1.53)]

    def test_constant_positives_give_zero(self):
        assert scan_of([4.0, 4.0, 4.0]).positive_sigmas(4, CORRECTION_FACTOR) == [0.0]

    def test_absent_when_nothing_survives(self):
        assert scan_of([5.0, 6.0]).positive_sigmas(1, CORRECTION_FACTOR) == [None]

    def test_the_mean_is_squared_with_pow_bit_for_bit(self):
        # this slice's mean m has pow(m, 2) != m * m: the per-slice sigma keeps
        # libm's pow(), which every report so far has used
        scan = scan_of([438.9, 787.9, 942.9])
        count, s1, s2 = scan._tables[:, 0, scan.lattice.stop].tolist()
        m = s1 / count
        assert math.pow(m, 2) != m * m
        assert scan.positive_sigmas(scan.lattice.stop, 1.53) == [1.53 * math.sqrt(s2 / count - math.pow(m, 2))]

    def test_rayleigh_calibration(self):
        # one large pure-noise slice: corrected std ~= 1.0024 * sigma
        vol = pure_noise(sigma=100.0, seed=12, width=512, height=512, n_slices=1)
        scan = build_scan(vol)
        [got] = scan.positive_sigmas(scan.lattice.stop, CORRECTION_FACTOR)
        direct = CORRECTION_FACTOR * vol.data.std()  # all pixels positive here
        assert got == pytest.approx(direct, rel=1e-12)
        assert got == pytest.approx(100.24, rel=0.01)


class TestMeanPositiveNoise:
    """The noise sigma: the mean of the per-slice positive sigmas present."""

    def test_identical_slices(self):
        sl = [0.0, 1.0, 3.0, 2.0]
        [single] = scan_of(sl).positive_sigmas(3, CORRECTION_FACTOR)
        assert scan_of(sl, sl, sl, sl).positive_sigmas(3, CORRECTION_FACTOR) == [single] * 4

    def test_arithmetic_mean(self):
        # per-slice corrected stds 2 and 4 with f_e = 1
        sigmas = scan_of([0.0, 1.0, 5.0], [0.0, 1.0, 9.0]).positive_sigmas(9, 1.0)
        assert sigmas == [pytest.approx(2.0), pytest.approx(4.0)]
        assert np.mean(sigmas) == pytest.approx(3.0)

    def test_rayleigh_volume(self):
        vol = pure_noise(sigma=100.0, seed=13)
        scan = build_scan(vol)
        got = np.mean(scan.positive_sigmas(scan.lattice.stop, CORRECTION_FACTOR))
        assert got == pytest.approx(100.0, rel=0.02)

    def test_error_when_everything_empty(self):
        vol = volume_from(np.full((2, 3, 3), 7.0))
        assert build_scan(vol).positive_sigmas(1, CORRECTION_FACTOR) == [None, None]
        with pytest.raises(EstimationError, match="no background"):
            estimate(volume_from(np.zeros((2, 3, 3))))


class TestHomogeneityVariance:
    """The variance curve: across-slice variance and mean of the per-slice stds."""

    def test_identical_slices_have_zero_variance(self):
        rng = np.random.default_rng(4)
        sl = rng.random((5, 5)) * 30
        vol = volume_from(np.repeat(sl[None], 6, axis=0))
        [var], _ = build_scan(vol).curve_and_count(at(15))[:2]
        assert var == pytest.approx(0.0, abs=1e-20)

    def test_degenerate_threshold(self):
        vol = disk_phantom(radius=10, value=500.0, sigma=50.0, seed=5)
        [var], [mean_sigma] = build_scan(vol).curve_and_count(at(0))[:2]
        assert (var, mean_sigma) == (0.0, 0.0)

    def test_hand_example(self):
        # slice stds (zeros included) of 1 and 3 -> variance 1, mean 2
        [var], [mean_sigma] = scan_of([0.0, 2.0], [0.0, 6.0]).curve_and_count(at(6))[:2]
        assert var == pytest.approx(1.0)
        assert mean_sigma == pytest.approx(2.0)


class TestScanMemory:
    def test_build_peaks_at_the_tables_and_one_row(self):
        """Building the scan of a float32 60x128x128 volume peaks within 5 % of
        the tables it keeps plus one row's temporaries (tracemalloc): four
        row-sized float64 arrays (the widened row, its lattice index and the
        two arrays of the index's correction) and the row's three bin sums.
        No volume-sized temporary, such as a widened copy, comes on top."""
        rng = np.random.default_rng(4)
        volume = Volume.from_array(rng.random((60, 128, 128), dtype=np.float32) * 1000)
        tracemalloc.start()
        try:
            scan = build_scan(volume)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        width = scan.lattice.stop + 1
        assert scan._tables.shape == (3, 60, width)
        row = 4 * 8 * 128 * 128 + 3 * 8 * width
        assert scan._tables.nbytes <= peak <= 1.05 * (scan._tables.nbytes + row)


class TestBackgroundRoiNoise:
    def test_pure_noise_recovers_sigma(self):
        vol = pure_noise(sigma=100.0, seed=6)
        mask = np.ones(vol.shape[1:], dtype=bool)
        got = background_roi_noise(vol, mask)
        oracle = math.sqrt(0.5 * np.mean(vol.data**2))
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(100.0, rel=0.02)

    def test_constant_region(self):
        vol = volume_from(np.full((3, 4, 4), 10.0))
        got = background_roi_noise(vol, np.ones((4, 4), dtype=bool))
        assert got == pytest.approx(10.0 / math.sqrt(2.0), rel=1e-12)

    def test_single_zero_pixel(self):
        vol = volume_from([[[0.0, 5.0], [5.0, 5.0]]])
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = True
        assert background_roi_noise(vol, mask) == 0.0

    def test_volume_shaped_mask(self):
        vol = pure_noise(sigma=50.0, seed=7, width=16, height=16, n_slices=4)
        mask3d = np.zeros(vol.shape, dtype=bool)
        mask3d[0] = True
        got = background_roi_noise(vol, mask3d)
        oracle = math.sqrt(0.5 * np.mean(vol.data[0] ** 2))
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_u16_volume_squares_in_float64(self):
        # values above 255 square beyond 65535, where u16 arithmetic would wrap
        rng = np.random.default_rng(8)
        data = rng.integers(0, 4000, (3, 6, 6)).astype(np.uint16)
        data[0, 0, 0] = 65535
        u16, f64 = Volume.from_array(data), volume_from(data)
        assert u16.data.dtype == np.uint16
        mask = np.ones((6, 6), dtype=bool)
        assert background_roi_noise(u16, mask) == background_roi_noise(f64, mask)
        assert background_roi_noise(u16, mask) > 2000

    def test_empty_or_mismatched_mask(self):
        vol = volume_from(np.ones((2, 3, 3)))
        with pytest.raises(ValueError):
            background_roi_noise(vol, np.zeros((3, 3), dtype=bool))
        with pytest.raises(ValueError):
            background_roi_noise(vol, np.ones((4, 4), dtype=bool))


class TestEstimate:
    def test_disk_phantom_accuracy(self, disk_volume):
        est = estimate(disk_volume)
        assert est.sigma == pytest.approx(100.0, rel=0.05)
        # object-mean oracle: average the original pixels on the known disk
        mask = np.zeros(disk_volume.shape[1:], dtype=bool)
        yy, xx = np.mgrid[0:64, 0:64]
        mask[(xx - 32) ** 2 + (yy - 32) ** 2 <= 400] = True
        true_mean = disk_volume.data[:, mask].mean()
        assert est.signal_mean == pytest.approx(true_mean, rel=0.02)
        assert est.snr == pytest.approx(est.signal_mean / est.sigma, rel=1e-12)

    def test_sigma_is_mean_of_present_slices(self, disk_volume):
        est = estimate(disk_volume)
        present = [v for v in est.per_slice_sigma if v is not None]
        assert est.sigma == pytest.approx(np.mean(present), rel=1e-12)
        assert len(est.per_slice_sigma) == disk_volume.n_slices
        t_opt = est.threshold.t_opt
        reference = [v for img in disk_volume.data if (v := positive_noise(img, t_opt, CORRECTION_FACTOR)) is not None]
        assert est.sigma == pytest.approx(np.mean(reference), rel=1e-9)

    def test_scale_equivariance(self, disk_volume):
        base = estimate(disk_volume)
        doubled = Volume.from_array(disk_volume.data * 2.0, disk_volume.voxel_size)
        cfg2 = SearchConfig(t_start=80.0, epsilon=20.0, grid_step=2.0)
        scaled = estimate(doubled, cfg2)
        assert scaled.threshold.t_opt == 2.0 * base.threshold.t_opt
        assert scaled.threshold.no_object == base.threshold.no_object
        assert scaled.sigma == pytest.approx(2.0 * base.sigma, rel=1e-12)
        assert scaled.snr == pytest.approx(base.snr, rel=1e-9)

    def test_no_object_volume(self):
        vol = const_phantom(value=400.0, sigma=100.0, seed=1)
        est = estimate(vol)
        assert est.threshold.no_object
        assert est.signal_mean == 0.0
        assert est.snr == 0.0
        assert est.sigma > 0

    def test_pure_noise_within_five_percent(self):
        for sigma, seed in ((50.0, 21), (100.0, 22), (200.0, 23)):
            est = estimate(pure_noise(sigma=sigma, seed=seed))
            assert 0.95 * sigma <= est.sigma <= 1.05 * sigma

    def test_all_zero_volume_raises(self):
        vol = volume_from(np.zeros((3, 8, 8)))
        with pytest.raises(EstimationError):
            estimate(vol)


class TestSliceSigmas:
    """One per-slice rule for the estimate and the curve: ``slice_sigmas``
    reads a variance of at most 2k·eps·(s1/k)**2, the first-order rounding
    of its k-term sums, as exactly 0, and ``mean_sigma`` averages what is
    present."""

    EPS = np.finfo(np.float64).eps

    @staticmethod
    def tables_and_moments(data):
        """The (count, s1, s2) of each slice's positive samples, from the
        scan's tables at t_max and from the curve's moments."""
        scan = build_scan(Volume.from_array(data))
        count, s1, s2 = scan._tables[:, :, scan.lattice.stop]
        return (count - scan._zeros, s1, s2), _positive_moments(data)

    @staticmethod
    def plain_sigmas(count, s1, s2, f_e):
        """The rule before the floor: s2/k - pow(s1/k, 2), floored at 0,
        then the root; a one-sample slice reads 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            var = s2 / count - np.float_power(s1 / count, 2)
        stds = np.sqrt(np.maximum(var, 0.0)).tolist()
        return [None if k == 0 else 0.0 if k == 1 else f_e * v for k, v in zip(count, stds)]

    def test_a_one_value_f32_slice_below_t_opt_reads_exactly_0(self):
        # the scan's bin sums of 512x512 copies of one float32 value round:
        # the bare difference of moments reads this slice as about 3.3e-4
        vol = disk_phantom(radius=150, value=1500.0, sigma=100.0, seed=3, width=512, height=512, n_slices=8)
        data = vol.data.astype(np.float32)
        data[0] = np.float32(123.456)
        est = estimate(Volume.from_array(data))
        assert not est.threshold.no_object and est.threshold.t_opt > 123.456
        assert est.per_slice_sigma[0] == 0.0
        assert all(v > 90.0 for v in est.per_slice_sigma[1:])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("side", [1, 2, 3, 5, 17, 85, 256, 1024])
    def test_one_value_slices_read_exactly_0(self, side, dtype):
        # random values over seven decades, one per slice; float64 one-sample
        # squares and sequential sums of many samples both round
        n = 3 if side == 1024 else 8 if side == 256 else 64
        rng = np.random.default_rng(side)
        values = (rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-3, 4, n)).astype(dtype)
        data = np.broadcast_to(values[:, None, None], (n, side, side)).copy()
        for moments in self.tables_and_moments(data):
            assert slice_sigmas(*moments, 1.53) == [0.0] * n

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 64), st.integers(1, 64)).filter(lambda s: s[0] * s[1] > 1),
        mean=st.floats(1e-3, 1e4),
        spread=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_a_spread_above_the_floor_reads_the_plain_rule_bit_for_bit(self, shape, mean, spread, seed, dtype):
        # uniform noise of relative half-width from 2 sqrt(3) sqrt(2k eps), a
        # std of twice the floor, up to 0.5, so every sample stays positive
        k = shape[0] * shape[1]
        floor = math.sqrt(2 * k * self.EPS)
        low = 2 * math.sqrt(3) * floor
        width = low * (0.5 / low) ** spread
        rng = np.random.default_rng(seed)
        data = (mean * (1.0 + width * rng.uniform(-1.0, 1.0, (1, *shape)))).astype(dtype)
        for moments in self.tables_and_moments(data):
            plain = self.plain_sigmas(*moments, 1.0)
            # above the floor with a margin for the rounding of either side
            assume(plain[0] > (1 + 1e-6) * floor * moments[1][0] / k)
            assert slice_sigmas(*moments, 1.53) == self.plain_sigmas(*moments, 1.53)

    def test_mean_sigma_skips_the_absent(self):
        assert mean_sigma([None, 2.0, None, 4.0]) == 3.0
        assert mean_sigma([None, None]) is None
        assert mean_sigma([]) is None


# Object-free 32x32x8 phantoms read no object at sigma 90 and 500, but a
# false one at 900 and 2500, with sigma 9-11 % low and exit 0. Their maximum
# at sigma 900 is below 4095, and the same volumes searched with t_start,
# epsilon and grid_step scaled by sigma/90 read no object: the search
# constants fixed in intensity units cause it, not the step's switch at 4095.
FALSE_OBJECT = pytest.mark.xfail(strict=True, reason="ROADMAP item 1: t_start and epsilon are not scale-free")
SMALL_NOISE_CASES = [
    pytest.param(sigma, seed, np.float64, marks=FALSE_OBJECT if sigma > 500 else ())
    for sigma in (90.0, 500.0, 900.0, 2500.0)
    for seed in range(4)
] + [pytest.param(900.0, 1, np.uint16, marks=FALSE_OBJECT)]


@pytest.mark.parametrize("sigma, seed, dtype", SMALL_NOISE_CASES)
def test_small_object_free_volume_reads_no_object(sigma, seed, dtype):
    volume = pure_noise(sigma, seed, width=32, height=32, n_slices=8)
    est = estimate(Volume.from_array(np.rint(volume.data).astype(dtype) if dtype == np.uint16 else volume.data))
    assert est.threshold.no_object
    assert est.sigma == pytest.approx(sigma, rel=0.02)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SearchConfig(grid_step=-1.0)
        with pytest.raises(ValueError):
            SearchConfig(t_start=-5.0)
        with pytest.raises(ValueError):
            SearchConfig(correction_factor=0.0)
        with pytest.raises(TypeError):
            SearchConfig(search_mode="exhaustive")  # the search has one mode
        for field in ("t_start", "epsilon", "grid_step", "correction_factor"):
            with pytest.raises(ValueError, match="finite"):
                SearchConfig(**{field: float("nan")})

    def test_twelve_bit_rescaling(self):
        # up to 4095 the step is grid_step; beyond, it scales with t_max/4095,
        # and t_start and epsilon stay the same number of steps
        assert _lattice(SearchConfig(), 4000.0) == (1.0, 40, 10, 4000)
        assert _lattice(SearchConfig(), 40950.0) == (10.0, 40, 10, 4095)
        assert _lattice(SearchConfig(grid_step=0.5), 40950.0) == (5.0, 80, 20, 8190)
        assert _lattice(SearchConfig(), 4162.0) == (4162.0 / 4095.0, 40, 10, 4095)

    @pytest.mark.parametrize("t_max", [4096.0, 2.0**20 + 1, 1e12, 1e300])
    def test_probes_are_set_by_the_flags_alone_at_any_intensity(self, t_max):
        lattice = _lattice(SearchConfig(), t_max)
        assert (lattice.start, lattice.epsilon) == (40, 10) and lattice.stop <= 4096

    def test_lattice_snaps_to_whole_steps_ties_to_even(self):
        assert _lattice(SearchConfig(t_start=30.0, epsilon=5.0, grid_step=0.5), 100.0) == (0.5, 60, 10, 200)
        assert _lattice(SearchConfig(t_start=2.5, epsilon=2.5), 100.0)[1:3] == (2, 2)
        assert _lattice(SearchConfig(t_start=3.5, epsilon=3.5), 100.0)[1:3] == (4, 4)
        # epsilon is at least one step; 0.3 / 0.1 is 2.9999999999999996 and rounds to 3
        assert _lattice(SearchConfig(epsilon=1e-6), 100.0).epsilon == 1
        assert _lattice(SearchConfig(epsilon=0.3, grid_step=0.1), 100.0).epsilon == 3

    def test_lattice_stop_counts_the_products_below_t_max(self):
        # 0.1 x 3 is 0.30000000000000004 > 0.3: three products lie below 0.3
        assert _lattice(SearchConfig(grid_step=0.1), 0.3).stop == 3
        assert _lattice(SearchConfig(), 7.0).stop == 7
        assert _lattice(SearchConfig(), 7.5).stop == 8
        assert _lattice(SearchConfig(), 0.0).stop == 0

    def test_search_over_the_step_cap_is_an_estimation_error(self):
        # the cap bounds lattice steps times slices: 2**22 steps on one slice, 2**20 on four
        assert _lattice(SearchConfig(grid_step=4095 / 2**22), 4095.0).stop == _MAX_STEP_SLICES
        assert _lattice(SearchConfig(grid_step=4095 / 2**20), 4095.0, 4).stop * 4 == _MAX_STEP_SLICES
        with pytest.raises(EstimationError, match=r"1\.049e\+06 lattice steps .* each of 5 slices, over the cap"):
            _lattice(SearchConfig(grid_step=4095 / 2**20), 4095.0, 5)
        with pytest.raises(EstimationError, match="over the cap"):
            _lattice(SearchConfig(grid_step=1e-3), 4095.0, 2)
        with pytest.raises(EstimationError, match="over the cap"):
            _lattice(SearchConfig(grid_step=1e-300), 1500.0)

    @pytest.mark.parametrize("t_max", [4095.0, 4096.0, 1e300])
    def test_default_search_of_1024_slices_is_under_the_cap(self, t_max):
        assert _lattice(SearchConfig(), t_max, 1024).stop * 1024 <= _MAX_STEP_SLICES

    def test_search_at_the_cap_stays_under_its_peak(self):
        """2**16 lattice steps of 64 float32 slices is the cap: the tables
        hold 2**22 (step, slice) entries of each sum, and the search, the
        scan's build included, peaks under 160 MB (tracemalloc). One slice
        more is over the cap."""
        rng = np.random.default_rng(3)
        data = np.hypot(*rng.normal(0.0, 100.0, (2, 64, 16, 16))).astype(np.float32)
        data[:, 0, 0] = 4095.0
        volume = Volume.from_array(data)
        cfg = SearchConfig(grid_step=4095 / 2**16)
        tracemalloc.start()
        try:
            result = find_t_opt(build_scan(volume, cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.curve.shape[0] > 2**15
        assert peak < 160e6
        with pytest.raises(EstimationError, match="each of 65 slices, over the cap"):
            find_t_opt(build_scan(Volume.from_array(np.concatenate([data, data[:1]])), cfg))

    @pytest.mark.parametrize("n_slices", [1, 4, 64])
    def test_search_bytes_per_step_and_slice(self, n_slices):
        """A search of 2**18 lattice steps times slices, a sixteenth of the
        cap, peaks at the three tables' 24 bytes per step and slice, plus
        at most 90 bytes per step for the grid's per-step arrays and 2 MiB
        for one block of the curve (tracemalloc). The figures scale: at the
        cap, 460 MB on one slice, 190 MB on four, 106 MB on 64."""
        steps = 2**18 // n_slices
        rng = np.random.default_rng(3)
        data = np.hypot(*rng.normal(0.0, 100.0, (2, n_slices, 16, 16))).astype(np.float32)
        data[:, 0, 0] = 4095.0
        volume = Volume.from_array(data)
        cfg = SearchConfig(grid_step=4095 / steps)
        tracemalloc.start()
        try:
            result = find_t_opt(build_scan(volume, cfg))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.curve.shape[0] > steps // 2
        assert 24 * steps * n_slices <= peak <= steps * (24 * n_slices + 90) + 2 * 2**20
