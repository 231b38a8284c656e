import numpy as np
import pytest

from qbench import (
    PhantomObject,
    PhantomSpec,
    SearchConfig,
    ThresholdResult,
    Volume,
    estimate,
    generate,
)
from qbench.noise import _tied_argmin, find_t_lower, find_t_opt
from conftest import build_scan, const_phantom, disk_phantom, pure_noise, volume_from
from oracle import homogeneity_variance


def descending_at_start_volume():
    """Across-slice spread below 40, a shared ramp through (40, 60] that
    collapses it, and a far tail keeping t_max high: the curve drops hard
    right from the first probe."""
    slices = []
    for j in range(10):
        vals = np.concatenate([
            np.full(200, 20.0 + j),
            np.linspace(41.0, 55.0, 400),
            np.full(100, 200.0),
            np.zeros(300),
        ])
        slices.append(vals.reshape(40, 25))
    return volume_from(np.stack(slices))


def staircase_volume():
    """One value band per slice at 100*(j+1): the variance curve only ever
    steps upward, so no descent exists anywhere."""
    slices = [
        np.concatenate([np.full(200, 100.0 * (j + 1)), np.zeros(800)]).reshape(40, 25)
        for j in range(10)
    ]
    return volume_from(np.stack(slices))


def brain_like_volume(seed=9):
    """Low-noise background plus a large object, shaped like real scanner
    curves: the variance bump tops out in the 60-90 range."""
    return generate(
        PhantomSpec(
            width=64,
            height=64,
            n_slices=24,
            sigma=15.0,
            seed=seed,
            objects=(PhantomObject("disk", (32, 32), 22, 400.0),),
        )
    )


class TestFindTLower:
    def test_descending_curve_fires_at_t_start(self):
        vol = descending_at_start_volume()
        variances, _ = build_scan(vol).curve_and_count(np.array([40, 50]))[:2]
        assert variances[1] < 0.25 * variances[0]  # shape precondition
        assert find_t_lower(vol) == 40.0

    def test_monotone_curve_falls_back_to_t_max(self):
        vol = staircase_volume()
        seq, _ = build_scan(vol).curve_and_count(np.arange(40, int(vol.intensity_max), 10))[:2]
        assert np.all(np.diff(seq) >= 0)  # shape precondition: no descent
        assert find_t_lower(vol) == vol.intensity_max

    @pytest.mark.parametrize("seed", [9, 10, 11])
    def test_brain_like_bump_brackets_right_of_peak(self, seed):
        vol = brain_like_volume(seed)
        t_l = find_t_lower(vol)
        assert 63.0 <= t_l <= 110.0
        assert t_l < 300.0  # well left of the object values

    def test_const_400_bracket_contains_rejected_dip(self):
        vol = const_phantom(value=400.0, sigma=100.0, seed=1)
        t_l = find_t_lower(vol)
        assert 300.0 <= t_l <= 440.0


def _volumes_and_configs():
    disk = disk_phantom(radius=20, value=1000.0, sigma=100.0, seed=3)
    volumes = {
        "disk": disk,
        "object-free": pure_noise(sigma=100.0, seed=4),
        "constant": const_phantom(value=400.0, sigma=100.0, seed=1),
        "x40": volume_from(disk.data * 40.0),
        "x0.01": volume_from(disk.data * 0.01),
    }
    configs = {
        "default": SearchConfig(),
        "step0.5": SearchConfig(grid_step=0.5),
        "step3": SearchConfig(grid_step=3.0),
        "start5-eps3": SearchConfig(t_start=5.0, epsilon=3.0),
    }
    for vname, vol in volumes.items():
        u16 = Volume.from_array(np.rint(vol.data).astype(np.uint16))
        for dname, v in (("float64", vol), ("uint16", u16)):
            for cname, cfg in configs.items():
                yield pytest.param(v, cfg, id=f"{vname}-{dname}-{cname}")


@pytest.mark.parametrize("vol, cfg", list(_volumes_and_configs()))
def test_the_search_on_a_scan_is_the_threshold_of_estimate(vol, cfg):
    """``estimate(v, cfg).threshold`` is the package's search: the search
    on a scan of v on the lattice of cfg gives it field by field, its curve
    bit for bit, and the probe walk alone gives its t_lower."""
    want = estimate(vol, cfg).threshold
    got = find_t_opt(build_scan(vol, cfg))
    fields = ("t_opt", "t_lower", "t_max", "no_object", "t_rejected")
    assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
    assert got.curve.dtype == want.curve.dtype and got.curve.tobytes() == want.curve.tobytes()
    assert find_t_lower(vol, cfg) == want.t_lower


class TestTiedArgmin:
    def test_prefers_smallest_index_within_tolerance(self):
        vals = np.array([5.0, 3.0 * (1 + 5e-13), 3.0, 4.0])
        assert _tied_argmin(vals) == 1

    def test_zero_minimum_requires_exact_tie(self):
        vals = np.array([1e-300, 0.0, 0.0])
        assert _tied_argmin(vals) == 1


class TestFindTOpt:
    def test_all_zero_volume(self):
        tr = find_t_opt(build_scan(volume_from(np.zeros((3, 6, 6)))))
        assert tr.t_opt == tr.t_max == 0.0
        assert tr.no_object

    def test_const_400_guard_rejects_interior_minimum(self):
        vol = const_phantom(value=400.0, sigma=100.0, seed=1)
        tr = find_t_opt(build_scan(vol))
        assert tr.no_object and tr.t_opt == tr.t_max
        assert tr.t_rejected is not None
        assert 380.0 <= tr.t_rejected <= 440.0

    def test_modes_agree_on_disk_phantom(self, disk_volume):
        # the scan's two builds: u16 data folds its level counts into the
        # lattice bins, and binning each pixel must give the same search,
        # bit for bit, on all 20 slices
        vol = Volume.from_array(np.rint(disk_volume.data).astype(np.uint16))
        fold, pixel = build_scan(vol), build_scan(vol, per_pixel=True)
        a, b = find_t_opt(fold), find_t_opt(pixel)
        assert (a.t_opt, a.t_lower, a.no_object, a.t_rejected) == (b.t_opt, b.t_lower, b.no_object, b.t_rejected)
        assert np.array_equal(a.curve, b.curve)

    def test_bracket_bounds_hold(self, disk_volume):
        tr = find_t_opt(build_scan(disk_volume))
        assert tr.t_lower <= tr.t_opt <= tr.t_max
        ts = tr.curve[:, 0]
        assert np.all(np.diff(ts) > 0)
        assert ts[0] == tr.t_lower and ts[-1] == tr.t_max  # the no-object guard reads the last sample

    def test_scaling_maps_t_opt_linearly(self, disk_volume):
        base = find_t_opt(build_scan(disk_volume))
        doubled = volume_from(disk_volume.data * 2.0)
        scaled = find_t_opt(build_scan(doubled, SearchConfig(t_start=80.0, epsilon=20.0, grid_step=2.0)))
        assert scaled.t_opt == 2.0 * base.t_opt
        assert scaled.no_object == base.no_object

    def test_adversarial_two_cluster_volume(self):
        # background cluster at sigma=100 plus a bright wide-spread cluster:
        # the variance curve grows a second valley inside the object range
        spec = PhantomSpec(
            width=64,
            height=64,
            n_slices=20,
            sigma=100.0,
            seed=17,
            objects=(PhantomObject("disk", (32, 32), 24, 5000.0),),
        )
        vol = generate(spec)
        tr = find_t_opt(build_scan(vol))
        ts, variances = tr.curve[:, 0], tr.curve[:, 1]
        hump = int(np.argmax(variances))
        valley = hump + int(np.argmin(variances[hump:]))
        # shape precondition: a hump inside the object's intensities, then a valley
        assert ts[hump] > 4000.0 and valley < ts.size - 1
        assert variances[valley] < min(variances[-1], 0.01 * variances[hump])
        # the search keeps the deeper background valley left of the hump
        assert not tr.no_object and tr.t_opt < ts[hump]
        assert homogeneity_variance(vol, tr.t_opt)[0] < homogeneity_variance(vol, ts[valley])[0]

    def test_minimum_at_t_max_is_not_rejected(self):
        # an object-free volume whose variance minimum sits at t_max: the
        # no-object guard compares the mean std there with itself
        vol = generate(PhantomSpec(width=24, height=24, n_slices=10, sigma=50.0, seed=56))
        tr = find_t_opt(build_scan(vol))
        assert tr.curve[_tied_argmin(tr.curve[:, 1]), 0] == tr.t_max  # shape precondition
        assert tr.no_object and tr.t_opt == tr.t_max
        assert tr.t_rejected is None


class TestThresholdResultInvariants:
    def test_ordering_enforced(self):
        curve = np.array([[0.0, 1.0, 1.0]])
        with pytest.raises(ValueError):
            ThresholdResult(t_opt=5.0, t_lower=6.0, t_max=10.0, curve=curve, no_object=False)

    def test_no_object_requires_t_max(self):
        curve = np.array([[0.0, 1.0, 1.0]])
        with pytest.raises(ValueError):
            ThresholdResult(t_opt=5.0, t_lower=0.0, t_max=10.0, curve=curve, no_object=True)

    def test_curve_must_ascend(self):
        curve = np.array([[1.0, 0.5, 0.5], [1.0, 0.4, 0.6]])
        with pytest.raises(ValueError):
            ThresholdResult(t_opt=1.0, t_lower=0.0, t_max=2.0, curve=curve, no_object=False)


class TestPureNoiseBehaviour:
    @pytest.mark.parametrize("sigma,seed", [(50.0, 31), (100.0, 32), (200.0, 33)])
    def test_threshold_lands_in_the_tail(self, sigma, seed):
        vol = pure_noise(sigma=sigma, seed=seed)
        tr = find_t_opt(build_scan(vol))
        # anything at or beyond ~4 sigma keeps the truncated-std bias under 1%
        assert tr.t_opt >= 3.9 * sigma
