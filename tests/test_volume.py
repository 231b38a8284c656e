import numpy as np
import pytest

from qbench import PixelStats, Slice, Volume, stats_all, stats_positive


def make_slice(values, shape=None):
    arr = np.asarray(values, dtype=float)
    if shape:
        arr = arr.reshape(shape)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    return Slice(arr)


class TestSliceAndVolume:
    def test_slice_dimensions(self):
        sl = make_slice(np.zeros((3, 5)))
        assert (sl.height, sl.width) == (3, 5)

    def test_slice_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            make_slice([0.0, -1.0])
        with pytest.raises(ValueError):
            make_slice([0.0, np.nan])
        with pytest.raises(ValueError):
            make_slice([0.0, np.inf])

    def test_slice_pixels_are_immutable(self):
        sl = make_slice([1.0, 2.0])
        with pytest.raises(ValueError):
            sl.pixels[0, 0] = 5.0

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

    def test_volume_rejects_negative_and_nonfinite(self):
        for bad in (-1.0, np.nan, np.inf, -np.inf):
            data = np.zeros((2, 2, 2))
            data[1, 0, 1] = bad
            with pytest.raises(ValueError):
                Volume.from_array(data)

    def test_volume_is_one_readonly_copy(self):
        src = np.arange(8.0).reshape(2, 2, 2)
        vol = Volume.from_array(src)
        src[0, 0, 0] = 99.0
        assert vol.data[0, 0, 0] == 0.0
        assert vol.data.dtype == np.float64 and vol.data.flags.c_contiguous
        with pytest.raises(ValueError):
            vol.data[0, 0, 0] = 5.0

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


class TestPixelStats:
    def test_empty_state_is_explicit(self):
        empty = PixelStats.empty()
        assert empty.is_empty and empty.count == 0
        assert empty.mean is None and empty.std is None

    def test_inconsistent_state_rejected(self):
        with pytest.raises(ValueError):
            PixelStats(0, 0.0, 0.0)
        with pytest.raises(ValueError):
            PixelStats(3, None, None)


class TestStatsAll:
    def test_all_zero_slice(self):
        st = stats_all(make_slice(np.zeros((4, 4))))
        assert st == PixelStats(16, 0.0, 0.0)

    def test_hand_computed_example(self):
        # population std of [0, 0, 4, 4]: mean 2, deviations all 2
        st = stats_all(make_slice([0.0, 0.0, 4.0, 4.0]))
        assert st.count == 4
        assert st.mean == pytest.approx(2.0)
        assert st.std == pytest.approx(2.0)

    def test_constant_slice_has_zero_std(self):
        for c in (0.0, 1.0, 417.5):
            st = stats_all(make_slice(np.full((3, 3), c)))
            assert st.std == 0.0
            assert st.mean == pytest.approx(c)


class TestStatsPositive:
    def test_positives_only(self):
        st = stats_positive(make_slice([0.0, 0.0, 4.0, 4.0]))
        assert st == PixelStats(2, 4.0, 0.0)

    def test_hand_computed_example(self):
        # population std of {1, 3}: mean 2, deviations 1
        st = stats_positive(make_slice([0.0, 1.0, 3.0]))
        assert st.count == 2
        assert st.mean == pytest.approx(2.0)
        assert st.std == pytest.approx(1.0)

    def test_all_zero_gives_empty(self):
        assert stats_positive(make_slice(np.zeros((2, 2)))).is_empty


class TestStatsProperties:
    def test_positive_count_never_exceeds_all(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            arr = rng.random((6, 6)) * 10
            arr[rng.random((6, 6)) < 0.4] = 0.0
            sl = Slice(arr)
            assert stats_all(sl).count >= stats_positive(sl).count

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(6)
        arr = rng.random((8, 8)) * 100
        arr[rng.random((8, 8)) < 0.3] = 0.0
        for c in (2.0, 0.5, 7.25):
            base_all, base_pos = stats_all(Slice(arr)), stats_positive(Slice(arr))
            scl_all, scl_pos = stats_all(Slice(arr * c)), stats_positive(Slice(arr * c))
            assert scl_all.mean == pytest.approx(c * base_all.mean, rel=1e-12)
            assert scl_all.std == pytest.approx(c * base_all.std, rel=1e-12)
            assert scl_pos.mean == pytest.approx(c * base_pos.mean, rel=1e-12)
            assert scl_pos.std == pytest.approx(c * base_pos.std, rel=1e-12)
            assert scl_pos.count == base_pos.count

    def test_permutation_invariance(self):
        rng = np.random.default_rng(7)
        arr = rng.random(36) * 10
        arr[:10] = 0.0
        shuffled = arr.copy()
        rng.shuffle(shuffled)
        a, b = make_slice(arr, (6, 6)), make_slice(shuffled, (6, 6))
        assert stats_all(a).mean == pytest.approx(stats_all(b).mean, rel=1e-12)
        assert stats_all(a).std == pytest.approx(stats_all(b).std, rel=1e-12)
        assert stats_positive(a).count == stats_positive(b).count
