import math

import numpy as np
import pytest

from qbench import (
    QualityScore,
    ResolutionCurve,
    SearchConfig,
    Volume,
    downsample,
    effective_resolution,
    estimate,
    fit_power_law,
    lanczos3_kernel,
    noise_resolution_curve,
    normalize_quality,
    pairwise_gradient,
)
from conftest import const_phantom, disk_phantom, volume_from


class TestLanczosKernel:
    def test_central_value(self):
        assert lanczos3_kernel(0.0) == 1.0

    def test_integer_zero_crossings_exact(self):
        for x in (1.0, 2.0, -1.0, -2.0):
            assert lanczos3_kernel(x) == 0.0

    def test_outside_support(self):
        for x in (3.0, 3.5, -4.0, 100.0):
            assert lanczos3_kernel(x) == 0.0

    def test_half_sample_value(self):
        # sinc(1/2) * sinc(1/6) = 3 sin(pi/2) sin(pi/6) / (pi/2 * pi/2 * ... )
        expected = 3.0 * math.sin(math.pi / 2) * math.sin(math.pi / 6) / (math.pi * 0.5) ** 2
        assert lanczos3_kernel(0.5) == pytest.approx(expected, rel=1e-14)
        assert lanczos3_kernel(0.5) == pytest.approx(0.6079271018540267, rel=1e-12)

    def test_symmetry_and_array_input(self):
        xs = np.linspace(-3.5, 3.5, 101)
        vals = lanczos3_kernel(xs)
        assert vals.shape == xs.shape
        assert np.allclose(vals, lanczos3_kernel(-xs))


class TestDownsample:
    def test_identity_factor(self, disk_volume):
        out = downsample(disk_volume, 1.0)
        assert out.shape == disk_volume.shape
        assert np.array_equal(out.data, disk_volume.data)
        assert out.voxel_size == disk_volume.voxel_size

    def test_constant_volume_dc_preserved(self):
        vol = volume_from(np.full((9, 21, 17), 42.0))
        for factor in (1.5, 2.0, 2.7):
            out = downsample(vol, factor)
            assert np.allclose(out.data, 42.0, rtol=1e-12, atol=1e-9)
            assert abs(float(out.data.mean()) - 42.0) <= 1e-9

    def test_dimensions_and_voxel_size(self):
        vol = volume_from(np.zeros((20, 64, 48)), voxel=(1.0, 0.5, 2.0))
        out = downsample(vol, 2.0)
        assert out.shape == (10, 32, 24)
        assert out.voxel_size == (2.0, 1.0, 4.0)

    def test_noise_reduction_matches_box_oracle(self):
        # offset Gaussian noise; box-filter 2x2x2 averaging is the oracle
        rng = np.random.default_rng(42)
        data = 1000.0 + 50.0 * rng.standard_normal((16, 64, 64))
        vol = volume_from(np.maximum(data, 0.0))
        out = downsample(vol, 2.0)
        d = vol.data
        box = d.reshape(8, 2, 32, 2, 32, 2).mean(axis=(1, 3, 5))
        box_std = float(box.std())
        lanczos_std = float(out.data.std())
        assert abs(lanczos_std - box_std) / box_std <= 0.20

    def test_rejects_bad_factors(self, disk_volume):
        with pytest.raises(ValueError):
            downsample(disk_volume, 0.5)
        with pytest.raises(ValueError):
            downsample(disk_volume, 100.0)  # collapses the slice axis


class TestFitPowerLaw:
    def test_exact_power_law_recovered(self):
        rs = np.array([1.0, 1.3, 1.7, 2.2, 3.0])
        y0 = 123.0
        noises = y0 * rs ** (-1.5)
        m, y0_fit, residual = fit_power_law(rs, noises)
        assert abs(m - 1.5) <= 1e-9
        assert abs(y0_fit - y0) / y0 <= 1e-9
        assert residual <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [2.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            fit_power_law([2.0, 2.0], [1.0, 1.0])


class TestPairwiseGradient:
    def test_flat_curve_gives_zero(self):
        assert pairwise_gradient(1.0, 50.0, 2.0, 50.0) == 0.0

    def test_hand_computed_example(self):
        got = pairwise_gradient(1.0, 100.0, 2.0, 35.36)
        assert got == pytest.approx(1.5, abs=5e-4)
        assert got == pytest.approx(math.log(100.0 / 35.36) / math.log(2.0), rel=1e-15)

    def test_matches_two_point_fit(self):
        m, _, _ = fit_power_law([1.0, 2.5], [80.0, 20.0])
        assert pairwise_gradient(1.0, 80.0, 2.5, 20.0) == pytest.approx(m, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            pairwise_gradient(2.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            pairwise_gradient(3.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            pairwise_gradient(1.0, 0.0, 2.0, 1.0)


class TestNoiseResolutionCurve:
    def test_pure_noise_gradient_near_three_halves(self):
        vol = const_phantom(value=0.0, sigma=100.0, seed=44)
        curve = noise_resolution_curve(vol, [1.0, 1.5, 2.0, 2.5, 3.0])
        assert 1.3 <= curve.gradient_m <= 1.7
        assert curve.y0 > 0
        rs = [p.resolution_mm for p in curve.points]
        assert rs == sorted(rs)

    def test_failed_factors_are_recorded(self):
        vol = const_phantom(value=0.0, sigma=80.0, seed=45)
        curve = noise_resolution_curve(vol, [1.0, 2.0, 64.0])
        assert len(curve.points) == 2
        assert len(curve.failures) == 1 and curve.failures[0][0] == 64.0

    def test_full_estimate_stands_in_for_factor_one(self, monkeypatch):
        from qbench import resolution

        vol = const_phantom(value=0.0, sigma=60.0, seed=46, width=32, height=32, n_slices=10)
        fresh = noise_resolution_curve(vol, [1.0, 1.5, 2.0])
        full = estimate(vol)
        calls = []
        monkeypatch.setattr(resolution, "estimate", lambda v, cfg: calls.append(v) or estimate(v, cfg))
        reused = noise_resolution_curve(vol, [1.0, 1.5, 2.0], full=full)
        assert reused == fresh
        assert len(calls) == 2 and all(v is not vol for v in calls)

    def test_requires_two_factors(self, disk_volume):
        with pytest.raises(ValueError):
            noise_resolution_curve(disk_volume, [2.0])
        with pytest.raises(ValueError):
            noise_resolution_curve(disk_volume, [0.5, 2.0])


class TestNormalizeQuality:
    def test_identity_at_reference(self):
        score = normalize_quality(37.5, 1.0, 1.5, 1.0)
        assert score.snr_normalized == 37.5

    def test_hand_computed_example(self):
        score = normalize_quality(40.0, 2.0, 1.5, 1.0)
        assert score.snr_normalized == pytest.approx(14.142135623730951, rel=1e-12)

    def test_multiplicative_in_snr(self):
        base = normalize_quality(10.0, 2.2, 1.5, 1.0).snr_normalized
        assert normalize_quality(30.0, 2.2, 1.5, 1.0).snr_normalized == pytest.approx(3.0 * base, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            normalize_quality(1.0, 0.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            normalize_quality(1.0, 1.0, 1.5, -1.0)


class TestCrossResolutionConsistency:
    def test_downsampled_copies_score_alike(self):
        # Partial-volume shells around object edges perturb the coarse-scale
        # noise reading, so the geometry keeps the object small relative to
        # the matrix; larger objects widen the spread beyond the 15% band.
        base = disk_phantom(radius=10, value=1000.0, sigma=100.0, seed=40, width=128, height=128)
        est1 = estimate(base)
        score1 = normalize_quality(est1.snr, effective_resolution(base.voxel_size))
        half = downsample(base, 2.0)
        est2 = estimate(half)
        score2 = normalize_quality(est2.snr, effective_resolution(half.voxel_size))
        assert score2.snr_normalized == pytest.approx(score1.snr_normalized, rel=0.15)


class TestResolutionCurveType:
    def test_requires_sorted_points(self):
        from qbench import CurvePoint

        pts = (CurvePoint(2.0, 10.0, 1.0), CurvePoint(1.0, 30.0, 1.0))
        with pytest.raises(ValueError):
            ResolutionCurve(pts, 1.5, 30.0, 0.0)

    def test_score_echoes_inputs(self):
        score = normalize_quality(12.0, 2.0, 1.4, 1.0)
        assert score == QualityScore(12.0, 2.0, 1.0, 1.4, 12.0 * (0.5) ** 1.4)
