"""The Volume data model, and the per-slice statistics the noise scan takes over a volume's pixels."""

import numpy as np
import pytest

from qbench import Volume
from qbench.noise import _VolumeScan


def scan_of(values, shape=None):
    """The scan of a one-slice volume holding ``values``."""
    arr = np.asarray(values, dtype=float)
    if shape:
        arr = arr.reshape(shape)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return _VolumeScan(Volume.from_array(arr[None]))


def stats_all(scan, t=np.inf):
    """Population std of the one slice at t over all its pixels, zeros
    included: with one slice, the mean of the slice stds."""
    return float(scan.curve_and_count(np.array([t]))[1][0])


def stats_positive(scan, t=np.inf):
    """Count and population std of the one slice's positive pixels <= t (std None when there is none)."""
    [std] = scan.positive_sigmas(t, 1.0)
    return int(scan.curve_and_count(np.array([t]))[2][0]), std


class TestSliceAndVolume:
    def test_volume_requires_matching_slices(self):
        with pytest.raises(ValueError):
            Volume.from_array([np.zeros((2, 2)), np.zeros((3, 3))])
        with pytest.raises(ValueError):
            Volume.from_array(np.zeros((0, 2, 2)))
        with pytest.raises(ValueError):
            Volume.from_array(np.zeros((2, 2)))

    def test_volume_voxel_size_validation(self):
        data = np.zeros((1, 2, 2))
        with pytest.raises(ValueError):
            Volume.from_array(data, voxel_size=(1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            Volume.from_array(data, voxel_size=(1.0, 1.0))
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                Volume.from_array(data, voxel_size=(bad, 1.0, 1.0))

    def test_volume_rejects_negative_and_nonfinite(self):
        for bad in (-1.0, np.nan, np.inf, -np.inf):
            data = np.zeros((2, 2, 2))
            data[1, 0, 1] = bad
            with pytest.raises(ValueError):
                Volume.from_array(data)

    def test_validation_on_narrow_and_wide_sources(self):
        # u16, i16 and f32 sources are checked on their own samples
        data = np.zeros((2, 2, 2), dtype=np.uint16)
        data[1, 1, 0] = 65535
        vol = Volume.from_array(data)
        assert vol.intensity_max == 65535.0 and type(vol.intensity_max) is float
        with pytest.raises(ValueError, match="negative"):
            Volume.from_array(np.full((1, 2, 2), -3, dtype=np.int16))
        for bad in (np.nan, np.inf):
            f32 = np.zeros((1, 2, 2), dtype=np.float32)
            f32[0, 1, 1] = bad
            with pytest.raises(ValueError, match="finite"):
                Volume.from_array(f32)
        # a long double beyond the float64 range overflows in the conversion
        if np.finfo(np.longdouble).max > np.finfo(np.float64).max:
            wide = np.zeros((1, 2, 2), dtype=np.longdouble)
            wide[0, 0, 0] = np.longdouble(np.finfo(np.float64).max) * 4
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
                Volume.from_array(wide)

    def test_volume_is_one_readonly_copy(self):
        src = np.arange(8.0).reshape(2, 2, 2)
        vol = Volume.from_array(src)
        src[0, 0, 0] = 99.0
        assert vol.data[0, 0, 0] == 0.0
        assert vol.data.dtype == np.float64 and vol.data.flags.c_contiguous
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 5.0

    def test_readonly_view_of_bytes_is_adopted(self):
        data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        for dtype in (np.uint8, np.uint16, np.float32):
            src = np.frombuffer(data.astype(dtype).tobytes(), dtype).reshape(2, 3, 4)
            vol = Volume.from_array(src)
            assert vol.data.dtype == dtype and np.shares_memory(vol.data, src)
            assert not vol.data.flags.writeable

    def test_every_other_source_is_copied(self):
        data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        buf = bytearray(data.tobytes())
        wide = np.arange(48, dtype=np.float32).reshape(2, 3, 8)
        readonly_over_bytearray = np.frombuffer(buf, np.float32).reshape(2, 3, 4)
        readonly_over_bytearray.flags.writeable = False
        sources = {
            "writable": data.copy(),
            "bytearray": np.frombuffer(buf, np.float32).reshape(2, 3, 4),
            "memoryview": np.frombuffer(memoryview(buf), np.float32).reshape(2, 3, 4),
            "read-only over a bytearray": readonly_over_bytearray,
            "non-contiguous": wide[:, :, ::2],
            "non-contiguous over bytes": np.frombuffer(wide.tobytes(), np.float32).reshape(2, 3, 8)[:, :, ::2],
            "byte-swapped": data.astype(">f4"),
            "byte-swapped over bytes": np.frombuffer(data.astype(">u2").tobytes(), ">u2").reshape(2, 3, 4),
        }
        volumes = {name: Volume.from_array(src) for name, src in sources.items()}
        expected = {name: np.array(src, dtype=np.float64) for name, src in sources.items()}
        for name, src in sources.items():
            assert not np.shares_memory(volumes[name].data, src), name
            if src.flags.writeable:
                src[...] = 7.0
        buf[:] = bytes(len(buf))
        wide[...] = 7.0
        for name, vol in volumes.items():
            assert np.array_equal(vol.data, expected[name]) and not vol.data.flags.writeable, name
            assert vol.data.flags.c_contiguous and vol.data.dtype.isnative, name

    def test_intensity_max_matches_recomputation(self):
        rng = np.random.default_rng(11)
        vol = Volume.from_array(rng.random((4, 8, 8)) * 50)
        assert vol.intensity_max == vol.data.max()

    def test_from_array_shape(self):
        vol = Volume.from_array(np.zeros((3, 4, 5)), (1.0, 2.0, 3.0))
        assert vol.shape == (3, 4, 5)
        assert vol.n_slices == 3
        assert vol.voxel_size == (1.0, 2.0, 3.0)

    def test_volume_is_frozen(self):
        vol = Volume.from_array(np.zeros((1, 2, 2)))
        with pytest.raises(AttributeError):
            vol.voxel_size = (2.0, 2.0, 2.0)


class TestStatsAll:
    def test_all_zero_slice(self):
        scan = scan_of(np.zeros((4, 4)))
        assert stats_all(scan) == 0.0
        assert stats_positive(scan) == (0, None)

    def test_hand_computed_example(self):
        # population std of [0, 0, 4, 4]: mean 2, deviations all 2
        assert stats_all(scan_of([0.0, 0.0, 4.0, 4.0])) == pytest.approx(2.0)

    def test_constant_slice_has_zero_std(self):
        for c in (0.0, 1.0, 417.5):
            assert stats_all(scan_of(np.full((3, 3), c))) == 0.0


class TestStatsPositive:
    def test_positives_only(self):
        assert stats_positive(scan_of([0.0, 0.0, 4.0, 4.0])) == (2, 0.0)

    def test_hand_computed_example(self):
        # population std of {1, 3}: mean 2, deviations 1
        count, std = stats_positive(scan_of([0.0, 1.0, 3.0]))
        assert count == 2
        assert std == pytest.approx(1.0)

    def test_all_zero_gives_empty(self):
        assert stats_positive(scan_of(np.zeros((2, 2)))) == (0, None)


class TestStatsProperties:
    def test_positive_count_never_exceeds_all(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            arr = rng.random((6, 6)) * 10
            arr[rng.random((6, 6)) < 0.4] = 0.0
            count, _ = stats_positive(scan_of(arr))
            assert count == np.count_nonzero(arr) <= arr.size

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(6)
        arr = rng.random((8, 8)) * 100
        arr[rng.random((8, 8)) < 0.3] = 0.0
        base = scan_of(arr)
        for c in (2.0, 0.5, 7.25):
            scaled = scan_of(arr * c)
            for t in (40.0, np.inf):
                assert stats_all(scaled, c * t) == pytest.approx(c * stats_all(base, t), rel=1e-12)
                base_count, base_std = stats_positive(base, t)
                count, std = stats_positive(scaled, c * t)
                assert count == base_count
                assert std == pytest.approx(c * base_std, rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        arr = rng.random(36) * 10
        arr[:10] = 0.0
        shuffled = arr.copy()
        rng.shuffle(shuffled)
        a, b = scan_of(arr, (6, 6)), scan_of(shuffled, (6, 6))
        for t in (5.0, np.inf):
            assert stats_all(a, t) == pytest.approx(stats_all(b, t), rel=1e-12)
            assert stats_positive(a, t) == stats_positive(b, t)
