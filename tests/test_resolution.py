import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from qbench.resolution import _bands, _resample_weights
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
    def test_peak_is_the_widening_the_three_products_and_the_copy(self):
        """One downsample of a float32 60x128x128 volume peaks within 5 % of
        its float64 widening, the three axis products and the ``Volume`` copy
        of the last (tracemalloc): no full-size temporary comes on top."""
        rng = np.random.default_rng(5)
        volume = Volume.from_array(rng.random((60, 128, 128), dtype=np.float32) * 1000)
        downsample(volume, 1.5)  # the bands are cached from here on
        tracemalloc.start()
        try:
            out = downsample(volume, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        m0, m1, m2 = out.shape
        products = m0 * 128 * 128 + m0 * m1 * 128 + m0 * m1 * m2
        expected = 8 * (volume.data.size + products) + out.data.nbytes
        assert out.data.dtype == np.float64
        assert expected <= peak <= 1.05 * expected

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

    def test_u16_volume_resamples_like_its_float64_copy(self, disk_volume):
        data = np.rint(disk_volume.data)
        u16, copy = Volume.from_array(data.astype(np.uint16)), volume_from(data)
        for factor in (1.5, 2.0, 2.7, 3.0):
            a, b = downsample(u16, factor), downsample(copy, factor)
            assert a.data.dtype == np.float64 and np.array_equal(a.data, b.data)
        factors = [1.0, 1.5, 2.0]
        assert noise_resolution_curve(u16, factors) == noise_resolution_curve(copy, factors)

    def test_rejects_bad_factors(self, disk_volume):
        with pytest.raises(ValueError):
            downsample(disk_volume, 0.5)
        with pytest.raises(ValueError):
            downsample(disk_volume, 100.0)  # collapses the slice axis

    @pytest.mark.parametrize("factor", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_factor_is_a_named_error(self, disk_volume, factor):
        with pytest.raises(ValueError, match="downsample factor must be a finite value >= 1"):
            downsample(disk_volume, factor)

    def test_axes_of_equal_length_share_one_weight_matrix(self, monkeypatch):
        from qbench import resolution

        resolution._axis_bands.cache_clear()
        built = []
        monkeypatch.setattr(
            resolution, "_resample_weights", lambda n_in, n_out, f: built.append(n_in) or _resample_weights(n_in, n_out, f)
        )
        downsample(volume_from(np.ones((10, 40, 40))), 2.0)
        assert built == [10, 40]
        downsample(volume_from(np.ones((12, 44, 48))), 2.0)
        assert built == [10, 40, 12, 44, 48]
        # a later call on the same axis lengths and factor builds nothing
        downsample(volume_from(np.ones((12, 40, 44))), 2.0)
        assert built == [10, 40, 12, 44, 48]
        downsample(volume_from(np.ones((12, 40, 44))), 3.0)
        assert built == [10, 40, 12, 44, 48, 12, 40, 44]

    def test_cached_bands_are_read_only_and_give_the_cold_result(self):
        from qbench import resolution

        vol = volume_from(np.random.default_rng(4).random((9, 30, 26)) * 1000)
        resolution._axis_bands.cache_clear()
        cold = downsample(vol, 1.7).data
        warm = downsample(vol, 1.7).data
        assert resolution._axis_bands.cache_info().hits == 3
        assert np.array_equal(cold, warm)
        for n_in, n_out in ((9, 5), (30, 17), (26, 15)):
            assert all(not w.flags.writeable for _, _, w in resolution._axis_bands(n_in, n_out, 1.7))


def _loop_weights(n_in, n_out, factor):
    """Reference resampling matrix, built one output sample at a time."""
    weights = np.zeros((n_out, n_in))
    for i in range(n_out):
        src = (i + 0.5) * factor - 0.5
        lo = math.ceil(src - 3.0 * factor)
        hi = math.floor(src + 3.0 * factor)
        taps = np.arange(lo, hi + 1)
        w = lanczos3_kernel((taps - src) / factor)
        np.add.at(weights[i], np.clip(taps, 0, n_in - 1), w)
        weights[i] /= weights[i].sum()
    return weights


RESAMPLE_FACTORS = (1.0, 1.5, 2.0, 2.7, 3.0, 3.3)


def _axis_weights(shape, factor):
    return [_loop_weights(dim, math.floor(dim / factor), factor) for dim in shape]


def _dense_products(data, factor):
    """The loop-built weights as one dense matrix product per axis, in axis
    order 0, 1, 2, clamped at zero."""
    n0, n1, n2 = data.shape
    w0, w1, w2 = _axis_weights(data.shape, factor)
    m0, m1, m2 = (w.shape[0] for w in (w0, w1, w2))
    out = w0 @ data.reshape(n0, n1 * n2)
    out = np.matmul(w1, out.reshape(m0, n1, n2))
    out = (out.reshape(m0 * m1, n2) @ w2.T).reshape(m0, m1, m2)
    return np.maximum(out, 0.0)


def _band_products(data, factor):
    """The loop-built weights through the band products of ``downsample``:
    each band of each axis is one matrix product over its window, in axis
    order 0, 1, 2, clamped at zero."""
    n0, n1, n2 = data.shape
    b0, b1, b2 = (_bands(w) for w in _axis_weights(data.shape, factor))
    m0, m1, m2 = (bands[-1][0].stop for bands in (b0, b1, b2))
    x, a0 = data.reshape(n0, n1 * n2), np.empty((m0, n1 * n2))
    for rows, cols, w in b0:
        a0[rows] = w @ x[cols]
    a0, a1 = a0.reshape(m0, n1, n2), np.empty((m0, m1, n2))
    for rows, cols, w in b1:
        a1[:, rows] = np.matmul(w, a0[:, cols])
    a1, out = a1.reshape(m0 * m1, n2), np.empty((m0 * m1, m2))
    for rows, cols, w in b2:
        out[:, rows] = a1[:, cols] @ w.T
    return np.maximum(out.reshape(m0, m1, m2), 0.0)


def _ulp_distance(got, ref, scale):
    return np.max(np.abs(got - ref)) / np.spacing(np.max(np.abs(scale)))


class TestResampleWeights:
    @pytest.mark.parametrize("factor", RESAMPLE_FACTORS)
    def test_equals_per_row_loop_bit_for_bit(self, factor):
        # n_in up to 40 covers every axis shorter than the kernel's support of
        # 6 * factor samples, whose taps are clamped at both edges
        for n_in in [*range(1, 41), 60, 128, 256]:
            n_out = math.floor(n_in / factor)
            if n_out >= 1:
                assert np.array_equal(_resample_weights(n_in, n_out, factor), _loop_weights(n_in, n_out, factor))

    def test_downsample_of_non_cubic_volume_equals_oracle_matmul(self):
        # the loop-built weights through the same band products, in axis
        # order 0, 1, 2: BLAS sums each product in an order of its own, so
        # only the same products make a bit-exact oracle of the weights, the
        # bands, the axis handling and the clamp; the dense products sum the
        # same terms in another grouping, a few ulp away
        rng = np.random.default_rng(7)
        vol = volume_from(np.abs(500.0 + 80.0 * rng.standard_normal((7, 23, 41))), voxel=(2.0, 1.0, 0.5))
        for factor in (1.5, 2.7, 3.3):
            got = downsample(vol, factor).data
            assert np.array_equal(got, _band_products(vol.data, factor))
            assert _ulp_distance(got, _dense_products(vol.data, factor), vol.data) <= 4

    @pytest.mark.parametrize("shape", [(7, 23, 41), (10, 40, 40), (12, 44, 48)])
    def test_downsample_is_within_8_ulp_of_the_tensordot_reference(self, shape):
        # contracting one axis at a time with tensordot sums each output in
        # another order; it may differ by a few ulp of the largest value
        rng = np.random.default_rng(11)
        vol = volume_from(np.abs(500.0 + 80.0 * rng.standard_normal(shape)))
        for factor in RESAMPLE_FACTORS:
            data = vol.data
            for axis, dim in enumerate(data.shape):
                w = _loop_weights(dim, math.floor(dim / factor), factor)
                data = np.moveaxis(np.tensordot(w, data, axes=([1], [axis])), 0, axis)
            ref, got = np.maximum(data, 0.0), downsample(vol, factor).data
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 8 * np.spacing(np.max(np.abs(ref)))


class TestBands:
    # axis lengths from below the kernel's support to above the bench's 256
    LENGTHS = [*range(1, 41), 60, 97, 128, 140, 256]

    @staticmethod
    def _all_bands():
        for factor in RESAMPLE_FACTORS:
            for n_in in TestBands.LENGTHS:
                n_out = math.floor(n_in / factor)
                if n_out >= 1:
                    weights = _resample_weights(n_in, n_out, factor)
                    yield weights, _bands(weights)

    def test_every_output_row_lies_in_exactly_one_band(self):
        for weights, bands in self._all_bands():
            rows = [i for r, _, _ in bands for i in range(weights.shape[0])[r]]
            assert rows == list(range(weights.shape[0]))

    def test_each_band_has_at_least_two_rows(self):
        for weights, bands in self._all_bands():
            assert all(r.stop - r.start >= min(2, weights.shape[0]) for r, _, _ in bands)

    def test_every_weight_outside_a_band_window_is_zero(self):
        # a band drops only terms whose weight is exactly 0.0, so it sums the
        # same terms as the dense row: the argument for bit-identity
        for weights, bands in self._all_bands():
            for rows, cols, w in bands:
                assert w.flags.c_contiguous and np.array_equal(w, weights[rows, cols])
                outside = weights[rows].copy()
                outside[:, cols] = 0.0
                assert not outside.any()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        factor=st.sampled_from(RESAMPLE_FACTORS),
        dims=st.lists(st.integers(3, 140), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_downsample_is_within_4_ulp_of_the_dense_products(self, factor, dims, seed):
        shape = tuple(max(dim, math.ceil(factor)) for dim in dims)
        data = np.abs(500.0 + 80.0 * np.random.default_rng(seed).standard_normal(shape))
        got = downsample(volume_from(data), factor).data
        if factor == 1.0:
            assert np.array_equal(got, data)
        assert got.shape == tuple(math.floor(dim / factor) for dim in shape)
        assert _ulp_distance(got, _dense_products(data, factor), data) <= 4


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

    @pytest.mark.parametrize(
        "rs, noises",
        [([1.0, math.nan], [2.0, 1.0]), ([1.0, math.inf], [2.0, 1.0]), ([1.0, 2.0], [math.nan, 1.0]), ([1.0, 2.0], [2.0, math.inf])],
        ids=["r-nan", "r-inf", "noise-nan", "noise-inf"],
    )
    def test_non_finite_point_is_rejected_before_the_fit(self, capfd, rs, noises):
        # the fit's SVD would otherwise print LAPACK errors and not converge
        with pytest.raises(ValueError, match="resolutions and noises must be finite and positive"):
            fit_power_law(rs, noises)
        assert capfd.readouterr().err == ""

    # two points: the fitted gradient is the secant of the log-log curve
    def test_flat_curve_gives_zero(self):
        m, y0, _ = fit_power_law([1.0, 2.0], [50.0, 50.0])
        assert m == pytest.approx(0.0, abs=1e-14)
        assert y0 == pytest.approx(50.0, rel=1e-14)

    def test_hand_computed_two_point_gradient(self):
        m, _, residual = fit_power_law([1.0, 2.0], [100.0, 35.36])
        assert m == pytest.approx(1.5, abs=5e-4)
        assert m == pytest.approx(math.log(100.0 / 35.36) / math.log(2.0), rel=1e-12)
        assert residual <= 1e-12

    def test_two_point_gradient_ignores_point_order(self):
        secant = math.log(80.0 / 20.0) / math.log(2.5)
        for rs, noises in (([1.0, 2.5], [80.0, 20.0]), ([2.5, 1.0], [20.0, 80.0])):
            assert fit_power_law(rs, noises)[0] == pytest.approx(secant, rel=1e-12)


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

    @pytest.mark.parametrize(
        "factors, message",
        [([1.0, math.nan, 2.0], "factors must all be finite"), ([1.0, 2.0, 2.0], "factors must not repeat a value")],
        ids=["nan", "repeat"],
    )
    def test_bad_factors_fail_before_any_downsample(self, monkeypatch, factors, message):
        # the same check as the CLI's --factors, not a per-factor failure or
        # an unsorted curve after the resampling
        from qbench import resolution

        vol = const_phantom(value=0.0, sigma=60.0, seed=46, width=16, height=16, n_slices=6)
        resampled = []
        monkeypatch.setattr(resolution, "downsample", lambda v, f: resampled.append(f) or downsample(v, f))
        with pytest.raises(ValueError, match=message):
            noise_resolution_curve(vol, factors)
        assert resampled == []


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

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1.0, 1.0, math.nan, 1.0), "m must be finite"),
            ((1.0, 1.0, 1.5, math.nan), "ref_mm must be a finite value > 0"),
            ((1.0, math.inf, 1.5, 1.0), "resolution_mm must be a finite value > 0"),
        ],
        ids=["m-nan", "ref_mm-nan", "resolution_mm-inf"],
    )
    def test_non_finite_parameters_rejected(self, args, message):
        # the CLI's --exponent-m and --ref-resolution go through the same check
        with pytest.raises(ValueError, match=message):
            normalize_quality(*args)


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
