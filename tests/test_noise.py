import math

import numpy as np
import pytest

from qbench import (
    CORRECTION_FACTOR,
    EstimationError,
    SearchConfig,
    Slice,
    Volume,
    apply_threshold,
    background_roi_noise,
    estimate,
    homogeneity_variance,
    mean_positive_noise,
    positive_noise,
)
from conftest import const_phantom, disk_phantom, pure_noise, volume_from


def slice_of(values):
    return Slice(np.asarray(values, dtype=float).reshape(1, -1))


class TestApplyThreshold:
    def test_threshold_at_max_is_identity(self):
        rng = np.random.default_rng(0)
        sl = Slice(rng.random((5, 5)) * 80)
        out = apply_threshold(sl, float(sl.pixels.max()))
        assert np.array_equal(out.pixels, sl.pixels)

    def test_zero_threshold_clears_positives(self):
        sl = slice_of([0.0, 3.0, 7.5])
        assert np.array_equal(apply_threshold(sl, 0.0).pixels, np.zeros((1, 3)))

    def test_hand_example(self):
        out = apply_threshold(slice_of([50.0, 400.0, 90.0]), 100.0)
        assert np.array_equal(out.pixels, np.array([[50.0, 0.0, 90.0]]))

    def test_retained_values_bounded(self):
        rng = np.random.default_rng(1)
        sl = Slice(rng.random((4, 4)) * 200)
        out = apply_threshold(sl, 60.0)
        assert out.pixels.max() <= 60.0

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        sl = Slice(rng.random((6, 6)) * 10)
        once = apply_threshold(sl, 4.0)
        twice = apply_threshold(once, 4.0)
        assert np.array_equal(once.pixels, twice.pixels)

    def test_positive_count_monotone_in_t(self):
        rng = np.random.default_rng(3)
        sl = Slice(rng.random((8, 8)) * 100)
        counts = [(apply_threshold(sl, t).pixels > 0).sum() for t in (0, 10, 25, 50, 100)]
        assert counts == sorted(counts)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            apply_threshold(slice_of([1.0]), -1.0)


class TestPositiveNoise:
    def test_hand_example(self):
        # thresholded positives {1, 3}: population std 1, times 1.53
        assert positive_noise(slice_of([0.0, 1.0, 3.0, 9.0]), 5.0, 1.53) == pytest.approx(1.53)

    def test_constant_positives_give_zero(self):
        assert positive_noise(slice_of([4.0, 4.0, 4.0]), 10.0) == 0.0

    def test_absent_when_nothing_survives(self):
        assert positive_noise(slice_of([5.0, 6.0]), 1.0) is None

    def test_rayleigh_calibration(self):
        # one large pure-noise slice: corrected std ~= 1.0024 * sigma
        vol = pure_noise(sigma=100.0, seed=12, width=512, height=512, n_slices=1)
        sl = Slice(vol.data[0])
        got = positive_noise(sl, vol.intensity_max, CORRECTION_FACTOR)
        direct = CORRECTION_FACTOR * sl.pixels.std()  # all pixels positive here
        assert got == pytest.approx(direct, rel=1e-12)
        assert got == pytest.approx(100.24, rel=0.01)


class TestMeanPositiveNoise:
    def test_identical_slices(self):
        sl = np.array([[0.0, 1.0, 3.0, 2.0]])
        vol = volume_from(np.repeat(sl[None, :, :], 4, axis=0))
        single = positive_noise(Slice(sl), 10.0)
        assert mean_positive_noise(vol, 10.0) == pytest.approx(single, rel=1e-12)

    def test_arithmetic_mean(self):
        # per-slice corrected stds 2 and 4 with f_e = 1
        vol = volume_from([[[0.0, 1.0, 5.0]], [[0.0, 1.0, 9.0]]])
        assert mean_positive_noise(vol, 100.0, 1.0) == pytest.approx(3.0)

    def test_rayleigh_volume(self):
        vol = pure_noise(sigma=100.0, seed=13)
        got = mean_positive_noise(vol, vol.intensity_max)
        assert got == pytest.approx(100.0, rel=0.02)

    def test_error_when_everything_empty(self):
        vol = volume_from(np.full((2, 3, 3), 7.0))
        with pytest.raises(EstimationError, match="no background"):
            mean_positive_noise(vol, 1.0)


class TestHomogeneityVariance:
    def test_identical_slices_have_zero_variance(self):
        rng = np.random.default_rng(4)
        sl = rng.random((5, 5)) * 30
        vol = volume_from(np.repeat(sl[None], 6, axis=0))
        var, _ = homogeneity_variance(vol, 15.0)
        assert var == pytest.approx(0.0, abs=1e-20)

    def test_degenerate_threshold(self):
        vol = disk_phantom(radius=10, value=500.0, sigma=50.0, seed=5)
        assert homogeneity_variance(vol, 0.0) == (0.0, 0.0)

    def test_hand_example(self):
        # slice stds (zeros included) of 1 and 3 -> variance 1, mean 2
        vol = volume_from([[[0.0, 2.0]], [[0.0, 6.0]]])
        var, mean_sigma = homogeneity_variance(vol, 6.0)
        assert var == pytest.approx(1.0)
        assert mean_sigma == pytest.approx(2.0)


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
        assert est.sigma == pytest.approx(
            mean_positive_noise(disk_volume, est.threshold.t_opt), rel=1e-9
        )

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
        with pytest.raises(ValueError):
            SearchConfig(search_mode="magic")
        with pytest.raises(ValueError):
            SearchConfig(grid="log")

    def test_twelve_bit_rescaling(self):
        cfg = SearchConfig()
        assert cfg.scaled_to(4000.0) is cfg
        scaled = cfg.scaled_to(40950.0)
        assert scaled.t_start == pytest.approx(400.0)
        assert scaled.epsilon == pytest.approx(100.0)
        assert scaled.grid_step == cfg.grid_step
