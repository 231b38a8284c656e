import math

import numpy as np
import pytest

from qbench import PhantomObject, PhantomSpec, Volume, add_complex_gaussian, generate, quantize, render_template

RAYLEIGH_STD = math.sqrt(2.0 - math.pi / 2.0)
RAYLEIGH_MEAN = math.sqrt(math.pi / 2.0)


class TestRenderTemplate:
    def test_uniform_background(self):
        vol = render_template(PhantomSpec(width=8, height=6, n_slices=3, background_value=400.0))
        assert vol.shape == (3, 6, 8)
        assert np.all(vol.data == 400.0)

    def test_full_frame_rect_covers_everything(self):
        rect = PhantomObject("rect", (15.5, 7.5), (31.0, 15.0), 77.0)
        spec = PhantomSpec(width=32, height=16, n_slices=2, background_value=3.0, objects=(rect,))
        vol = render_template(spec)
        assert np.all(vol.data == 77.0)

    def test_disk_painting(self):
        disk = PhantomObject("disk", (16, 16), 8, 1000.0)
        vol = render_template(PhantomSpec(width=32, height=32, n_slices=1, objects=(disk,)))
        img = vol.data[0]
        assert img[16, 16] == 1000.0
        assert img[0, 0] == 0.0
        assert img[16, 16 + 8] == 1000.0  # boundary pixel is inside
        assert img[16, 16 + 9] == 0.0

    def test_slices_are_identical(self):
        disk = PhantomObject("disk", (10, 10), 4, 10.0)
        vol = render_template(PhantomSpec(width=20, height=20, n_slices=5, objects=(disk,)))
        for img in vol.data[1:]:
            assert np.array_equal(img, vol.data[0])

    def test_out_of_bounds_objects_rejected(self):
        with pytest.raises(ValueError):
            PhantomSpec(width=20, height=20, n_slices=1, objects=(PhantomObject("disk", (2, 10), 5, 1.0),))
        with pytest.raises(ValueError):
            PhantomSpec(width=20, height=20, n_slices=1, objects=(PhantomObject("rect", (19, 10), (4, 2), 1.0),))

    def test_invalid_objects_rejected(self):
        with pytest.raises(ValueError):
            PhantomObject("triangle", (1, 1), 1, 1.0)
        with pytest.raises(ValueError):
            PhantomObject("disk", (1, 1), -2.0, 1.0)
        with pytest.raises(ValueError):
            PhantomObject("rect", (1, 1), 3.0, 1.0)


class TestComplexGaussianNoise:
    def test_zero_sigma_is_identity(self):
        vol = render_template(PhantomSpec(width=16, height=16, n_slices=2, background_value=123.4))
        noisy = add_complex_gaussian(vol, 0.0, seed=5)
        assert np.array_equal(noisy.data, vol.data)

    def test_second_moment_pure_noise(self):
        # E[M^2] = 2 sigma^2 when the template is zero
        vol = render_template(PhantomSpec(width=128, height=128, n_slices=10))
        noisy = add_complex_gaussian(vol, 100.0, seed=6)
        assert float(np.mean(noisy.data**2)) == pytest.approx(2.0 * 100.0**2, rel=0.02)

    def test_second_moment_with_offset(self):
        # E[M^2] = 2 sigma^2 + A^2
        vol = render_template(PhantomSpec(width=128, height=128, n_slices=10, background_value=400.0))
        noisy = add_complex_gaussian(vol, 100.0, seed=7)
        assert float(np.mean(noisy.data**2)) == pytest.approx(2.0 * 100.0**2 + 400.0**2, rel=0.02)

    def test_rayleigh_moments_at_one_percent(self):
        # >= 1e6 samples: std -> sigma*sqrt(2 - pi/2), mean -> sigma*sqrt(pi/2)
        vol = render_template(PhantomSpec(width=1024, height=1024, n_slices=1))
        noisy = add_complex_gaussian(vol, 1.0, seed=8)
        samples = noisy.data
        assert float(samples.std()) == pytest.approx(RAYLEIGH_STD, rel=0.01)
        assert float(samples.mean()) == pytest.approx(RAYLEIGH_MEAN, rel=0.01)

    def test_high_snr_gaussian_limit(self):
        # A >= 10 sigma: the magnitude std approaches the channel sigma
        vol = render_template(PhantomSpec(width=256, height=256, n_slices=4, background_value=1000.0))
        noisy = add_complex_gaussian(vol, 100.0, seed=9)
        assert float(noisy.data.std()) == pytest.approx(100.0, rel=0.02)

    def test_negative_sigma_rejected(self):
        vol = render_template(PhantomSpec(width=4, height=4, n_slices=1))
        with pytest.raises(ValueError):
            add_complex_gaussian(vol, -1.0, seed=0)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        spec = PhantomSpec(width=32, height=32, n_slices=4, background_value=50.0, sigma=20.0, seed=1234)
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        spec_a = PhantomSpec(width=32, height=32, n_slices=4, sigma=20.0, seed=1)
        spec_b = PhantomSpec(width=32, height=32, n_slices=4, sigma=20.0, seed=2)
        assert not np.array_equal(generate(spec_a).data, generate(spec_b).data)

    def test_seed_range_validated(self):
        with pytest.raises(ValueError):
            PhantomSpec(width=4, height=4, n_slices=1, seed=-1)
        with pytest.raises(ValueError):
            PhantomSpec(width=4, height=4, n_slices=1, seed=2**64)


class TestQuantize:
    def test_rounds_to_nearest_integer(self):
        vol = Volume.from_array(np.array([[[0.4, 1.5, 2.51]]]))
        q = quantize(vol)
        assert np.array_equal(q.data, np.array([[[0.0, 2.0, 3.0]]]))

    def test_spec_flag_quantizes_generate(self):
        spec = PhantomSpec(width=16, height=16, n_slices=2, sigma=30.0, seed=3, quantize=True)
        vol = generate(spec)
        assert np.array_equal(vol.data, np.rint(vol.data))


class TestSpecSerialization:
    def test_round_trip(self):
        spec = PhantomSpec(
            width=48,
            height=40,
            n_slices=7,
            voxel_size=(0.5, 0.5, 2.0),
            background_value=12.0,
            objects=(
                PhantomObject("disk", (24.0, 20.0), 10.0, 900.0),
                PhantomObject("rect", (10.0, 10.0), (6.0, 4.0), 300.0),
            ),
            sigma=55.0,
            seed=99,
            quantize=True,
        )
        assert PhantomSpec.from_dict(spec.to_dict()) == spec
