import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbench import (
    EstimationError,
    PhantomObject,
    PhantomSpec,
    QualityScore,
    ResolutionCurve,
    SearchConfig,
    Volume,
    downsample,
    effective_resolution,
    estimate,
    fit_power_law,
    generate,
    lanczos3_kernel,
    noise_resolution_curve,
    normalize_quality,
)
from qbench.noise import slice_sigmas
from qbench.resolution import _bands, _carry, _masked_noise, _positive_moments, _resample_weights
from conftest import const_phantom, disk_mask, disk_phantom, volume_from
from oracle import band_products, carry_by_windows, downsample_f64, positive_noise, sequential_curve
from test_scan import assert_same_threshold


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
    @staticmethod
    def peak(volume, factor):
        """The tracemalloc peak of one warm downsample of ``volume``, and its output."""
        downsample(volume, factor)  # the bands are cached from here on
        tracemalloc.start()
        try:
            out = downsample(volume, factor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, out

    @pytest.mark.parametrize("factor", [1.5, 2.0, 3.0])
    def test_peak_is_the_widening_and_the_axis_0_product(self, factor):
        """One downsample of a u16 60x128x128 volume peaks within 5 % of its
        float32 widening and the axis-0 products (tracemalloc), half of what
        the float64 products took: each stage's array is freed before the one
        after next is allocated, and no full-size temporary comes on top."""
        rng = np.random.default_rng(5)
        volume = Volume.from_array((rng.random((60, 128, 128)) * 1000).astype(np.uint16))
        peak, out = self.peak(volume, factor)
        expected = 4 * (volume.data.size + out.shape[0] * 128 * 128)
        assert out.data.dtype == np.float32
        assert expected <= peak <= 1.05 * expected

    @pytest.mark.parametrize("factor", [1.5, 2.0, 3.0])
    def test_a_float32_volume_is_resampled_without_a_copy(self, factor):
        """A float32 60x128x128 volume is read as it is: one downsample peaks
        within 5 % of its axis-0 and axis-1 products, alive together while
        the axis-1 products are written."""
        rng = np.random.default_rng(5)
        volume = Volume.from_array(rng.random((60, 128, 128), dtype=np.float32) * 1000)
        peak, out = self.peak(volume, factor)
        m0, m1, _ = out.shape
        expected = 4 * m0 * 128 * (128 + m1)
        assert out.data.dtype == np.float32
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

    def test_u16_volume_resamples_like_its_float32_copy(self, disk_volume):
        data = np.rint(disk_volume.data)
        u16, copy = Volume.from_array(data.astype(np.uint16)), Volume.from_array(data.astype(np.float32))
        for factor in (1.5, 2.0, 2.7, 3.0):
            a, b = downsample(u16, factor), downsample(copy, factor)
            assert a.data.dtype == np.float32 and np.array_equal(a.data, b.data)
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

        data = np.random.default_rng(4).random((9, 30, 26)) * 1000
        resolution._axis_bands.cache_clear()
        for dtype in (np.float64, np.float32):
            vol = Volume.from_array(data.astype(dtype))
            hits = resolution._axis_bands.cache_info().hits
            cold = downsample(vol, 1.7).data
            warm = downsample(vol, 1.7).data
            assert resolution._axis_bands.cache_info().hits == hits + 3
            assert cold.dtype == dtype and np.array_equal(cold, warm)
        for n_in, n_out in ((9, 5), (30, 17), (26, 15)):
            wide, narrow = (resolution._axis_bands(n_in, n_out, 1.7, dtype) for dtype in (np.float64, np.float32))
            assert all(not w.flags.writeable for _, _, w in wide + narrow)
            # the float32 weights are the float64 ones, rounded once
            for (rows, cols, w64), (rows32, cols32, w32) in zip(wide, narrow, strict=True):
                assert (rows, cols) == (rows32, cols32) and w32.dtype == np.float32 and np.array_equal(w32, w64.astype(np.float32))


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
            assert np.array_equal(got, band_products(vol.data, _axis_weights(vol.shape, factor)))
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


class TestFloat32Products:
    """A float32 or integer volume is resampled with float32 products, a
    float64 one with the float64 products of ``oracle.downsample_f64``."""

    # the largest |float32 sample - float64 sample| over the largest float64
    # sample: at most 4.3e-7 over 300 random float32 volumes of 3-140 samples
    # per axis at factors 1.5-3.3 (about 5 float32 ulp of the largest sample)
    BOUND = 1e-6

    @staticmethod
    def assert_within_bound(volume, factor):
        got, ref = downsample(volume, factor).data, downsample_f64(volume, factor)
        assert got.dtype == np.float32 and got.shape == ref.shape
        if factor == 1.0:
            assert np.array_equal(got, volume.data)
        assert np.max(np.abs(got - ref)) <= TestFloat32Products.BOUND * np.max(ref)

    @pytest.mark.parametrize("factor", RESAMPLE_FACTORS)
    def test_float32_samples_lie_within_the_bound_of_the_float64_products(self, factor):
        rng = np.random.default_rng(13)
        for shape in ((7, 23, 41), (12, 44, 48)):
            for data in (np.abs(500.0 + 80.0 * rng.standard_normal(shape)), 1000.0 * rng.random(shape)):
                self.assert_within_bound(Volume.from_array(data.astype(np.float32)), factor)
        disk = disk_phantom(radius=30, value=1500.0, sigma=100.0, seed=2, width=128, height=128, n_slices=60)
        self.assert_within_bound(Volume.from_array(disk.data.astype(np.float32)), factor)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        factor=st.sampled_from(RESAMPLE_FACTORS),
        dims=st.lists(st.integers(3, 140), min_size=3, max_size=3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_float32_samples_of_any_shape_lie_within_the_bound(self, factor, dims, seed):
        shape = tuple(max(dim, math.ceil(factor)) for dim in dims)
        data = np.abs(500.0 + 80.0 * np.random.default_rng(seed).standard_normal(shape))
        self.assert_within_bound(Volume.from_array(data.astype(np.float32)), factor)

    @pytest.mark.parametrize("factor", RESAMPLE_FACTORS)
    def test_a_float64_volume_takes_the_float64_products_bit_for_bit(self, factor):
        rng = np.random.default_rng(17)
        for shape in ((7, 23, 41), (60, 128, 128)):
            vol = volume_from(np.abs(500.0 + 80.0 * rng.standard_normal(shape)))
            got = downsample(vol, factor).data
            assert got.dtype == np.float64 and np.array_equal(got, downsample_f64(vol, factor))

    @pytest.mark.parametrize("has_disk", [False, True], ids=["object-free", "disk"])
    @pytest.mark.parametrize("sigma", [50.0, 400.0])
    def test_curve_noises_lie_within_1e_6_of_the_float64_path(self, sigma, has_disk):
        # the bench's curve volumes: f32 128x128x60, at its factors 1, 1.5, 2 and 3;
        # 1.2e-7 relative was the most over 36 such volumes, seeds 0-5
        factors = [1.0, 1.5, 2.0, 3.0]
        objects = (PhantomObject("disk", (64.0, 64.0), 30.0, 15.0 * sigma),) if has_disk else ()
        data = generate(PhantomSpec(width=128, height=128, n_slices=60, objects=objects, sigma=sigma, seed=1)).data
        f32 = Volume.from_array(data.astype(np.float32))
        curve, wide = noise_resolution_curve(f32, factors), noise_resolution_curve(volume_from(f32.data), factors)
        assert curve.full.threshold.no_object is not has_disk
        assert_same_estimate(curve.full, wide.full)
        assert curve.failures == wide.failures == ()
        for point, exact in zip(curve.points, wide.points, strict=True):
            assert point.resolution_mm == exact.resolution_mm
            assert point.noise == pytest.approx(exact.noise, rel=1e-6, abs=0)
            assert point.snr == pytest.approx(exact.snr, rel=1e-6, abs=0)
        assert curve.gradient_m == pytest.approx(wide.gradient_m, rel=0, abs=1e-6)


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
        calls = []
        monkeypatch.setattr(resolution, "estimate", lambda v, cfg: calls.append(v) or estimate(v, cfg))
        reused = noise_resolution_curve(vol, [1.0, 1.5, 2.0])
        assert reused == fresh
        assert (reused.points[0].noise, reused.points[0].snr) == (reused.full.sigma, reused.full.snr)
        # the volume itself is estimated once, as ``full``, and no downsampled volume is
        assert calls == [vol]

    @pytest.mark.parametrize("dtype", [np.uint16, np.float32, np.float64])
    def test_constant_volume_ends_the_curve_before_any_downsampled_noise(self, monkeypatch, dtype):
        # whether or not 1 is a factor: nothing is left to resample
        from qbench import resolution

        read = []
        monkeypatch.setattr(resolution, "_masked_noise", lambda *args: read.append(args))
        vol = Volume.from_array(np.full((12, 16, 16), 500, dtype=dtype))
        for factors in ([1.0, 1.5, 3.0], [1.0, 2.0], [1.5, 3.0]):
            with pytest.raises(EstimationError, match="no noise to measure: the full-resolution noise 0.0 is not positive"):
                noise_resolution_curve(vol, factors)
        assert read == []

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


def assert_same_estimate(a, b):
    assert (a.sigma, a.signal_mean, a.snr, a.per_slice_sigma, a.zero_fraction) == (
        b.sigma,
        b.signal_mean,
        b.snr,
        b.per_slice_sigma,
        b.zero_fraction,
    )
    assert_same_threshold(a.threshold, b.threshold)


class TestCurvePipeline:
    """The curve's two threads: one worker estimates the volume and carries
    its mask to every factor, while the calling thread downsamples and then
    runs ``meanwhile``. It gives what the sequential loop gives, and every
    exit joins the worker."""

    @staticmethod
    def volume():
        return disk_phantom(radius=8, value=1000.0, sigma=100.0, seed=47, width=32, height=32, n_slices=10)

    @pytest.mark.parametrize(
        "factors",
        [[1.0, 1.5, 2.0, 3.0], [2.0, 1.5, 3.0], [3.0, 1.0, 2.0, 1.5], [1.0, 12.0, 2.0], [12.0, 2.0, 1.5]],
        ids=["with-1", "without-1-shuffled", "with-1-shuffled", "with-1-collapse", "without-1-collapse"],
    )
    def test_equals_the_sequential_loop_bit_for_bit(self, factors):
        vol = self.volume()
        curve, expected = noise_resolution_curve(vol, factors), sequential_curve(vol, factors)
        assert curve == expected
        assert_same_estimate(curve.full, expected.full)
        if 12.0 in factors:
            assert [f for f, _ in curve.failures] == [12.0]

    def test_the_volume_keeps_part_of_its_background_at_every_factor(self):
        # so the loop above reads each factor's noise inside a partial mask
        vol = self.volume()
        bad = vol.data > estimate(vol).threshold.t_opt
        assert all(0 < (~_carry(bad, f)).mean() < 1 for f in (1.5, 2.0, 3.0))

    def test_estimates_run_on_one_worker_at_a_time(self, monkeypatch):
        from qbench import resolution

        seen = []
        monkeypatch.setattr(resolution, "estimate", lambda v, cfg: seen.append((v, threading.current_thread())) or estimate(v, cfg))
        vol = self.volume()
        noise_resolution_curve(vol, [1.0, 1.5, 2.0, 3.0])
        # one estimate per curve, of the volume itself, on a worker thread
        [(estimated, thread)] = seen
        assert estimated is vol and thread is not threading.main_thread()

    def test_a_curve_builds_one_scan(self, monkeypatch):
        from qbench import noise

        built, init = [], noise._VolumeScan.__init__
        monkeypatch.setattr(noise._VolumeScan, "__init__", lambda scan, *args: built.append(args) or init(scan, *args))
        noise_resolution_curve(self.volume(), [1.0, 1.5, 2.0, 3.0])
        assert len(built) == 1

    def test_the_caller_downsamples_every_factor_while_the_worker_estimates(self, monkeypatch):
        # the estimate finishes only once the last factor is downsampled, so
        # a caller that waits on the worker before its downsamples times it out
        from qbench import resolution

        downsampled = threading.Event()

        def waiting(v, cfg):
            assert downsampled.wait(timeout=10), "the caller waited on the estimate"
            return estimate(v, cfg)

        def traced(v, f):
            out = downsample(v, f)
            if f == 3.0:
                downsampled.set()
            return out

        monkeypatch.setattr(resolution, "estimate", waiting)
        monkeypatch.setattr(resolution, "downsample", traced)
        noise_resolution_curve(self.volume(), [1.0, 1.5, 2.0, 3.0])

    def test_meanwhile_runs_on_the_caller_after_its_last_downsample(self, monkeypatch):
        # the estimate finishes only once ``meanwhile`` has run, so a caller
        # that joins the worker before it times the estimate out
        from qbench import resolution

        events, ran = [], threading.Event()

        def waiting(v, cfg):
            assert ran.wait(timeout=10), "the caller joined the worker before meanwhile"
            return estimate(v, cfg)

        def meanwhile():
            events.append(("meanwhile", threading.current_thread()))
            ran.set()

        monkeypatch.setattr(resolution, "estimate", waiting)
        monkeypatch.setattr(resolution, "downsample", lambda v, f: events.append((f, threading.current_thread())) or downsample(v, f))
        curve = noise_resolution_curve(self.volume(), [1.0, 1.5, 2.0, 3.0], meanwhile=meanwhile)
        assert [name for name, _ in events] == [1.5, 2.0, 3.0, "meanwhile"]
        assert {thread for _, thread in events} == {threading.main_thread()}
        assert curve == sequential_curve(self.volume(), [1.0, 1.5, 2.0, 3.0])

    def test_a_failed_estimate_supersedes_meanwhile(self):
        # ``meanwhile`` runs on the caller whatever the worker's estimate does,
        # and the estimate's failure is raised over the exception of ``meanwhile``
        ran = []

        def meanwhile():
            ran.append(threading.current_thread())
            raise OSError("hash failed")

        with pytest.raises(EstimationError, match="over the cap"):
            noise_resolution_curve(self.volume(), [1.0, 2.0], SearchConfig(grid_step=1e-6), meanwhile=meanwhile)
        assert ran == [threading.main_thread()]
        with pytest.raises(OSError, match="hash failed"):
            noise_resolution_curve(self.volume(), [1.0, 2.0], meanwhile=meanwhile)

    @pytest.mark.parametrize("case", ["success", "full-fails", "factor-fails", "collapse", "raises"])
    def test_no_thread_outlives_the_curve(self, monkeypatch, case):
        from qbench import resolution

        vol, cfg, factors = self.volume(), SearchConfig(), [1.0, 1.5, 2.0]
        expected = None

        def at_two(result):
            def resample(v, f):
                return result(downsample(v, f)) if f == 2.0 else downsample(v, f)

            return resample

        if case == "full-fails":
            cfg, expected = SearchConfig(grid_step=1e-6), EstimationError
        elif case == "factor-fails":
            zeros = lambda out: Volume.from_array(np.zeros(out.shape), out.voxel_size)  # noqa: E731
            monkeypatch.setattr(resolution, "downsample", at_two(zeros))
        elif case == "collapse":
            factors = [1.0, 2.0, 12.0]
        elif case == "raises":
            monkeypatch.setattr(resolution, "downsample", at_two(lambda out: 1 / 0))
            expected = ZeroDivisionError
        before = set(threading.enumerate())
        if expected is None:
            curve = noise_resolution_curve(vol, factors, cfg)
            if case == "factor-fails":
                assert curve.failures == ((2.0, "no slice keeps a positive sample"),)
        else:
            with pytest.raises(expected):
                noise_resolution_curve(vol, factors, cfg)
        assert set(threading.enumerate()) == before

    def test_an_earlier_estimate_fails_before_a_later_downsample(self, monkeypatch):
        # as in the sequential loop: the volume's own failed estimate is
        # raised, not the error of the downsample that ran beside it
        from qbench import resolution

        def broken(v, f):
            raise MemoryError("no room")

        monkeypatch.setattr(resolution, "downsample", broken)
        before = set(threading.enumerate())
        with pytest.raises(EstimationError, match="over the cap"):
            noise_resolution_curve(self.volume(), [1.0, 2.0], SearchConfig(grid_step=1e-6))
        with pytest.raises(MemoryError):
            noise_resolution_curve(self.volume(), [1.0, 2.0])
        assert set(threading.enumerate()) == before


class TestCarry:
    @pytest.mark.parametrize("factor", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("length", [7, 13, 60, 128])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_equals_the_window_loop(self, axis, length, factor):
        # the long axis in each place in turn; the others are long enough for one output
        shape = [5, 4, 3]
        shape[axis] = length
        rng = np.random.default_rng(length)
        for density in (0.01, 0.2):
            bad = rng.random(shape) < density
            expected = bad
            for a in range(3):
                expected = carry_by_windows(expected, a, factor)
            assert np.array_equal(_carry(bad, factor), expected)

    def test_no_object_reads_what_an_all_false_mask_reads(self):
        # a no_object estimate makes and carries no mask; reading every
        # positive sample is the carried path on a mask of nothing, bit for bit
        vol = const_phantom(value=0.0, sigma=100.0, seed=48, width=40, height=36, n_slices=12)
        assert estimate(vol).threshold.no_object
        for factor in (1.5, 2.0, 3.0):
            out, nothing = downsample(vol, factor).data, np.zeros(vol.shape, dtype=bool)
            moments = _positive_moments(out)
            assert _masked_noise(out, moments, None, 1.53) == _masked_noise(out, moments, _carry(nothing, factor), 1.53)

    def test_a_mask_over_every_sample_reads_every_positive_one(self):
        # as when the full estimate's threshold cut the noise tail of an
        # object-free volume, and its scattered voxels cover every window
        vol = const_phantom(value=0.0, sigma=100.0, seed=49, width=40, height=36, n_slices=12)
        out = downsample(vol, 2.0).data
        moments = _positive_moments(out)
        assert _masked_noise(out, moments, np.ones(out.shape, dtype=bool), 1.53) == _masked_noise(out, moments, None, 1.53)


class TestMomentsNoise:
    """A factor's noise comes from each slice's count, sum and sum of
    squares (``noise.slice_sigmas``), the formula of the estimate's
    per-slice sigmas."""

    @pytest.mark.parametrize("has_disk", [False, True], ids=["object-free", "disk"])
    @pytest.mark.parametrize("dtype", [np.uint16, np.float32, np.float64])
    def test_moments_noise_lies_within_1e_12_of_the_two_pass_std(self, dtype, has_disk):
        objects = (PhantomObject("disk", (32.0, 30.0), 18.0, 1500.0),) if has_disk else ()
        data = generate(PhantomSpec(width=64, height=60, n_slices=24, objects=objects, sigma=100.0, seed=5)).data
        vol = Volume.from_array(np.rint(data).astype(dtype) if dtype == np.uint16 else data.astype(dtype))
        # the disk's own region, whether or not the phantom holds it
        region = np.broadcast_to(disk_mask(64, 60, (32.0, 30.0), 22.0), vol.shape)
        # oracle.positive_noise is np.std of the float64 positive samples: the
        # mean first, then the squared deviations
        for factor in (1.5, 2.0, 3.0):
            out = downsample(vol, factor).data
            moments = _positive_moments(out)
            for bad in (None, _carry(region, factor)):
                kept = out if bad is None else np.where(bad, 0, out)
                expected = [v for v in (positive_noise(img, math.inf, 1.53) for img in kept) if v is not None]
                assert _masked_noise(out, moments, bad, 1.53) == pytest.approx(np.mean(expected), rel=1e-12, abs=0)
            for got, img in zip(slice_sigmas(*moments, 1.53), out, strict=True):
                assert got == pytest.approx(positive_noise(img, math.inf, 1.53), rel=1e-12, abs=0)

    @pytest.mark.parametrize("dtype", [np.uint16, np.float32, np.float64])
    def test_single_sample_slices_read_exactly_0_and_fail(self, dtype):
        # at factor 3 the carried disk leaves each slice of TestCurvePipeline's
        # volume one sample: its noise is exactly 0, not the rounding of a
        # difference of moments, and the factor is a failures entry
        data = TestCurvePipeline.volume().data
        vol = Volume.from_array(np.rint(data).astype(dtype) if dtype == np.uint16 else data.astype(dtype))
        bad = _carry(vol.data > estimate(vol).threshold.t_opt, 3.0)
        out = downsample(vol, 3.0).data
        assert np.array_equal(np.count_nonzero((out > 0) & ~bad, axis=(1, 2)), [1, 1, 1])
        assert _masked_noise(out, _positive_moments(out), bad, 1.53) == 0.0
        curve = noise_resolution_curve(vol, [1.0, 1.5, 2.0, 3.0])
        assert curve.failures == ((3.0, "estimated noise is not positive"),)
        assert [p.resolution_mm for p in curve.points] == [1.0, 1.5, 2.0]

    def test_random_float64_single_samples_read_exactly_0(self):
        # a float64 sample's square can round away from libm's pow(), so
        # s2/k - pow(s1/k, 2) of one sample need not be 0: slice_sigmas reads
        # every one-sample slice as exactly 0, for the estimate and the curve
        slices = np.zeros((2000, 3, 4))
        slices[:, 1, 2] = np.random.default_rng(0).uniform(1.0, 5000.0, 2000)
        moments = _positive_moments(slices)
        assert set(slice_sigmas(*moments, 1.53)) == {0.0}
        assert _masked_noise(slices, moments, None, 1.53) == 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_random_constant_slices_read_exactly_0_and_fail(self, dtype, monkeypatch):
        # 85x85 slices that each hold one random value, one of them on a
        # single pixel: their sums of squares round, so the bare difference of
        # moments reads some of them as a std of a few 1e-8 of the value, where
        # np.std reads 0. slice_sigmas reads each as exactly 0, within the
        # rounding of its sums, and the factor is a failures entry
        from qbench import resolution

        rng = np.random.default_rng(31)
        slices = np.broadcast_to(rng.uniform(1.0, 5000.0, (120, 1, 1)).astype(dtype), (120, 85, 85)).copy()
        slices[0, 1:] = 0
        slices[0, 0, 1:] = 0
        moments = _positive_moments(slices)
        assert slice_sigmas(*moments, 1.0) == [0.0] * 120
        assert _masked_noise(slices, moments, None, 1.53) == 0.0
        half = np.zeros(slices.shape, dtype=bool)
        half[:, :40] = True
        assert _masked_noise(slices, moments, half, 1.53) == 0.0
        flat = Volume.from_array(slices)
        monkeypatch.setattr(resolution, "downsample", lambda v, f: flat if f == 2.0 else downsample(v, f))
        vol = const_phantom(value=0.0, sigma=100.0, seed=48, width=22, height=18, n_slices=6)
        curve = noise_resolution_curve(vol, [1.0, 1.5, 2.0])
        assert curve.failures == ((2.0, "estimated noise is not positive"),)


def _expected_gradient(shape, factors):
    """The gradient of the power law through the noise that the resampling
    filter passes of white noise: T(f) = the product over axes of the root
    of the mean over output samples of the sum of their squared weights."""
    transfer = [
        math.prod(math.sqrt(np.mean(np.sum(_resample_weights(n, math.floor(n / f), f) ** 2, axis=1))) for n in shape)
        for f in factors
    ]
    return fit_power_law(factors, transfer)[0]


class TestCurveOnObjects:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("radius", [20, 30, 45])
    def test_disk_gradient_is_the_filter_s(self, radius, seed):
        # a centred disk at 15 sigma: each factor's noise is read outside the
        # disk and the Lanczos smear around it, as the filter passes it
        factors = [1.0, 1.5, 2.0, 3.0]
        data = disk_phantom(radius=radius, value=1500.0, sigma=100.0, seed=seed, width=128, height=128, n_slices=60).data
        vol = Volume.from_array(data.astype(np.float32))
        curve = noise_resolution_curve(vol, factors)
        assert not curve.full.threshold.no_object and curve.failures == ()
        assert abs(curve.gradient_m - _expected_gradient(vol.shape, factors)) <= 0.03


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

    @pytest.mark.parametrize(
        "args",
        [(13.4, 1.0, 400.0, 1e3), (1e300, 1e-10, 1.5, 1.0), (0.0, 1.0, 400.0, 1e3)],
        ids=["power-overflows", "product-overflows", "zero-snr-power-overflows"],
    )
    def test_projected_snr_beyond_the_float_range_rejected(self, args):
        # Python's float power raises OverflowError, a product turns inf
        with pytest.raises(ValueError, match="projects beyond the float range"):
            normalize_quality(*args)

    def test_projected_snr_that_underflows_is_zero(self):
        assert normalize_quality(13.4, 1e3, 400.0, 1.0).snr_normalized == 0.0


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

    def test_requires_two_points(self):
        from qbench import CurvePoint

        with pytest.raises(ValueError, match="a resolution curve needs at least 2 points"):
            ResolutionCurve((CurvePoint(1.0, 30.0, 1.0),), 1.5, 30.0, 0.0)

    def test_score_echoes_inputs(self):
        score = normalize_quality(12.0, 2.0, 1.4, 1.0)
        assert score == QualityScore(12.0, 2.0, 1.0, 1.4, 12.0 * (0.5) ** 1.4)
