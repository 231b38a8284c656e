import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbench import PhantomObject, PhantomSpec, _threads, generate
from qbench.cli import EXIT_OK, main

from oracle import phantom as out_of_place_phantom

RAYLEIGH_STD = math.sqrt(2.0 - math.pi / 2.0)
RAYLEIGH_MEAN = math.sqrt(math.pi / 2.0)


class TestRenderTemplate:
    """At sigma 0 ``generate`` returns the template itself."""

    def test_uniform_background(self):
        vol = generate(PhantomSpec(width=8, height=6, n_slices=3, background_value=400.0))
        assert vol.shape == (3, 6, 8)
        assert np.all(vol.data == 400.0)

    def test_full_frame_rect_covers_everything(self):
        rect = PhantomObject("rect", (15.5, 7.5), (31.0, 15.0), 77.0)
        spec = PhantomSpec(width=32, height=16, n_slices=2, background_value=3.0, objects=(rect,))
        vol = generate(spec)
        assert np.all(vol.data == 77.0)

    def test_disk_painting(self):
        disk = PhantomObject("disk", (16, 16), 8, 1000.0)
        vol = generate(PhantomSpec(width=32, height=32, n_slices=1, objects=(disk,)))
        img = vol.data[0]
        assert img[16, 16] == 1000.0
        assert img[0, 0] == 0.0
        assert img[16, 16 + 8] == 1000.0  # boundary pixel is inside
        assert img[16, 16 + 9] == 0.0

    def test_slices_are_identical(self):
        disk = PhantomObject("disk", (10, 10), 4, 10.0)
        vol = generate(PhantomSpec(width=20, height=20, n_slices=5, objects=(disk,)))
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

    @pytest.mark.parametrize("dims", [(0, 8, 2), (8, -1, 2), (8, 8, 0)])
    def test_non_positive_dims_rejected(self, dims):
        width, height, n_slices = dims
        with pytest.raises(ValueError, match="width, height and n_slices must be positive"):
            PhantomSpec(width=width, height=height, n_slices=n_slices)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PhantomObject("disk", (8, 8), 2.0, bad)
        with pytest.raises(ValueError, match="finite"):
            PhantomObject("disk", (8, 8), bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            PhantomObject("rect", (8, 8), (2.0, bad), 1.0)
        with pytest.raises(ValueError, match="finite"):
            PhantomObject("disk", (bad, 8), 2.0, 1.0)
        for field in ("sigma", "background_value"):
            with pytest.raises(ValueError, match="finite"):
                PhantomSpec(width=8, height=8, n_slices=1, **{field: bad})
        with pytest.raises(ValueError, match="finite"):
            PhantomSpec(width=8, height=8, n_slices=1, voxel_size=(1.0, bad, 1.0))


class TestComplexGaussianNoise:
    def test_zero_sigma_is_identity(self):
        noisy = generate(PhantomSpec(width=16, height=16, n_slices=2, background_value=123.4, sigma=0.0, seed=5))
        assert np.array_equal(noisy.data, np.full((2, 16, 16), 123.4))

    def test_second_moment_pure_noise(self):
        # E[M^2] = 2 sigma^2 when the template is zero
        noisy = generate(PhantomSpec(width=128, height=128, n_slices=10, sigma=100.0, seed=6))
        assert float(np.mean(noisy.data**2)) == pytest.approx(2.0 * 100.0**2, rel=0.02)

    def test_second_moment_with_offset(self):
        # E[M^2] = 2 sigma^2 + A^2
        noisy = generate(PhantomSpec(width=128, height=128, n_slices=10, background_value=400.0, sigma=100.0, seed=7))
        assert float(np.mean(noisy.data**2)) == pytest.approx(2.0 * 100.0**2 + 400.0**2, rel=0.02)

    def test_rayleigh_moments_at_one_percent(self):
        # >= 1e6 samples: std -> sigma*sqrt(2 - pi/2), mean -> sigma*sqrt(pi/2)
        noisy = generate(PhantomSpec(width=1024, height=1024, n_slices=1, sigma=1.0, seed=8))
        samples = noisy.data
        assert float(samples.std()) == pytest.approx(RAYLEIGH_STD, rel=0.01)
        assert float(samples.mean()) == pytest.approx(RAYLEIGH_MEAN, rel=0.01)

    def test_high_snr_gaussian_limit(self):
        # A >= 10 sigma: the magnitude std approaches the channel sigma
        noisy = generate(PhantomSpec(width=256, height=256, n_slices=4, background_value=1000.0, sigma=100.0, seed=9))
        assert float(noisy.data.std()) == pytest.approx(100.0, rel=0.02)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            PhantomSpec(width=4, height=4, n_slices=1, sigma=-1.0, seed=0)


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


@st.composite
def phantom_specs(draw):
    """Specs of 1 to 60 slices, with or without noise, objects and an offset background."""
    width, height = draw(st.integers(4, 20)), draw(st.integers(4, 20))
    objects = []
    for _ in range(draw(st.integers(0, 2))):
        shape = draw(st.sampled_from(["disk", "rect"]))
        if shape == "disk":
            half_w = half_h = size = draw(st.floats(0.5, (min(width, height) - 1) / 2))
        else:
            size = (draw(st.floats(0.5, width - 1)), draw(st.floats(0.5, height - 1)))
            half_w, half_h = size[0] / 2, size[1] / 2
        center = (draw(st.floats(half_w, width - 1 - half_w)), draw(st.floats(half_h, height - 1 - half_h)))
        objects.append(PhantomObject(shape, center, size, draw(st.floats(0.0, 3000.0))))
    return PhantomSpec(
        width=width,
        height=height,
        n_slices=draw(st.integers(1, 60)),
        background_value=draw(st.sampled_from([0.0, 0.0, 7.25, 250.0])),
        objects=tuple(objects),
        sigma=draw(st.sampled_from([0.0, 0.5, 40.0, 1500.0])),
        seed=draw(st.integers(0, 2**64 - 1)),
        quantize=draw(st.booleans()),
    )


class TestOneBuffer:
    """``generate`` builds in one buffer, with threads; the out-of-place oracle is the reference."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(spec=phantom_specs(), parts=st.integers(1, 4))
    def test_matches_the_out_of_place_oracle_byte_for_byte(self, spec, parts):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_threads, "WIDTH", parts)
            vol = generate(spec)
        expected = out_of_place_phantom(spec)
        assert vol.data.dtype == expected.dtype == np.float64
        assert vol.data.tobytes() == expected.tobytes()

    def test_no_thread_outlives_generate_or_synth(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_threads, "WIDTH", 4)
        spec = {"width": 24, "height": 16, "n_slices": 5, "sigma": 30.0, "seed": 4, "quantize": True}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        before = set(threading.enumerate())
        generate(PhantomSpec.from_dict(spec))
        assert set(threading.enumerate()) == before
        assert main(["synth", str(spec_path), "--output", str(tmp_path / "vol.qvol")]) == EXIT_OK
        assert set(threading.enumerate()) == before

    def test_exception_on_a_worker_propagates(self, monkeypatch):
        monkeypatch.setattr(_threads, "WIDTH", 3)
        hypot, callers = np.hypot, []

        def hypot_failing_off_main(*args, **kwargs):
            callers.append(threading.current_thread())
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("hypot failed")
            return hypot(*args, **kwargs)

        monkeypatch.setattr(np, "hypot", hypot_failing_off_main)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="hypot failed"):
            generate(PhantomSpec(width=8, height=8, n_slices=6, sigma=5.0, seed=1))
        assert set(threading.enumerate()) == before
        assert len(callers) == 3 and callers.count(threading.main_thread()) == 1

    @pytest.mark.parametrize("quantize", [False, True])
    def test_peak_is_two_volume_blocks(self, quantize):
        # the buffer and the imaginary block; the imaginary block is freed
        # before the volume copies the buffer. The slack holds the template
        # slice and numpy's small allocations.
        spec = PhantomSpec(width=64, height=48, n_slices=40, sigma=30.0, seed=5, quantize=quantize)
        block = spec.n_slices * spec.height * spec.width * 8
        generate(PhantomSpec(width=4, height=4, n_slices=1, sigma=1.0))
        tracemalloc.start()
        try:
            generate(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2 * block <= peak <= 2 * block + spec.height * spec.width * 8 + 64 * 1024


class TestQuantize:
    def test_rounds_to_nearest_integer(self):
        # one-pixel rects at (1, 1), (2, 1) and (3, 1) of a 5x3 image, at sigma 0
        values = (0.4, 1.5, 2.51)
        objects = tuple(PhantomObject("rect", (x, 1.0), (0.5, 0.5), v) for x, v in enumerate(values, start=1))
        q = generate(PhantomSpec(width=5, height=3, n_slices=1, objects=objects, quantize=True))
        expected = np.zeros((1, 3, 5))
        expected[0, 1, 1:4] = (0.0, 2.0, 3.0)
        assert np.array_equal(q.data, expected)

    def test_spec_flag_quantizes_generate(self):
        spec = PhantomSpec(width=16, height=16, n_slices=2, sigma=30.0, seed=3, quantize=True)
        vol = generate(spec)
        assert np.array_equal(vol.data, np.rint(vol.data))


class TestSpecSerialization:
    def test_from_dict_parses_every_field(self):
        data = json.loads(
            """{"width": 48, "height": 40, "n_slices": 7, "voxel_size_mm": [0.5, 0.5, 2.0],
                "background_value": 12.0, "sigma": 55.0, "seed": 99, "quantize": true,
                "objects": [{"shape": "disk", "center": [24, 20], "radius": 10, "value": 900},
                            {"shape": "rect", "center": [10.0, 10.0], "size": [6, 4], "value": 300.0}]}"""
        )
        assert PhantomSpec.from_dict(data) == PhantomSpec(
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
