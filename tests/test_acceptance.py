"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time

import numpy as np

from qbench import (
    PhantomObject,
    PhantomSpec,
    SearchConfig,
    Volume,
    background_roi_noise,
    downsample,
    estimate,
    find_t_opt,
    fit_power_law,
    generate,
    load_volume,
    noise_resolution_curve,
    write_container,
)
from qbench.cli import EXIT_OK, main
from qbench.noise import _lattice_index
from conftest import build_scan, const_phantom
from oracle import background_covered, homogeneity_variance, select_t_opt


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_rayleigh_calibration():
    vol = generate(PhantomSpec(width=64, height=64, n_slices=20, sigma=100.0, seed=2025))
    start = time.perf_counter()
    est = estimate(vol)
    elapsed = time.perf_counter() - start
    roi = background_roi_noise(vol, np.ones((64, 64), dtype=bool))
    ok = 95.0 <= est.sigma <= 105.0 and 98.0 <= roi <= 102.0 and elapsed < 1.0
    _report(
        "criterion 1 (Rayleigh calibration)",
        ok,
        f"sigma={est.sigma:.2f} (want 100 +-5%), roi={roi:.2f} (want 100 +-2%), runtime={elapsed:.3f}s < 1s",
    )


def test_criterion_2_degenerate_constant_volume():
    vol = generate(PhantomSpec(width=64, height=64, n_slices=20, background_value=400.0, sigma=100.0, seed=2026))
    tr = find_t_opt(vol)
    ts, variances = tr.curve[:, 0], tr.curve[:, 1]
    window = (ts >= 380.0) & (ts <= 440.0)
    interior = np.zeros_like(window)
    interior[1:-1] = (variances[1:-1] < variances[:-2]) & (variances[1:-1] < variances[2:])
    has_local_min = bool(np.any(window & interior))
    rejected_in_window = tr.t_rejected is not None and 380.0 <= tr.t_rejected <= 440.0
    ok = has_local_min and rejected_in_window and tr.t_opt == tr.t_max and tr.no_object
    _report(
        "criterion 2 (constant-400 degenerate case)",
        ok,
        f"local min in [380,440]={has_local_min}, guard rejected t={tr.t_rejected}, "
        f"t_opt={tr.t_opt:.1f}==t_max={tr.t_max:.1f}, no_object={tr.no_object}",
    )


def _criterion_3_corpus():
    sigmas = (50.0, 100.0, 200.0)
    phantoms = []
    for i in range(108):
        sigma = sigmas[i % 3]
        scale = sigma / 100.0
        if i % 4 == 0:
            objects = ()
            background = 0.0 if i % 8 else 400.0 * scale
        elif i % 4 == 1:
            radius = 8 + (i % 5) * 4
            objects = (PhantomObject("disk", (32, 32), radius, (800.0 + 150.0 * (i % 7)) * scale),)
            background = 0.0
        elif i % 4 == 2:
            size = (10 + (i % 4) * 6, 8 + (i % 5) * 5)
            objects = (PhantomObject("rect", (30, 34), size, (900.0 + 120.0 * (i % 6)) * scale),)
            background = 0.0
        else:
            objects = (
                PhantomObject("disk", (20, 20), 6 + (i % 4) * 2, (1000.0 + 100.0 * (i % 5)) * scale),
                PhantomObject("rect", (46, 44), (10, 12), (1500.0 + 80.0 * (i % 3)) * scale),
            )
            background = 0.0
        yield PhantomSpec(
            width=64,
            height=64,
            n_slices=20,
            background_value=background,
            objects=objects,
            sigma=sigma,
            seed=i,
        )


def _selection_differs(vol, tr) -> bool:
    """Whether find_t_opt's (t_opt, t_rejected) differs from the three-branch
    selection of the oracle on the same grid, with the search's epsilon: a
    whole number of grid steps."""
    scan = build_scan(vol)
    ts, variances, mean_sigmas = tr.curve.T
    ns = _lattice_index(ts, scan.lattice.step)
    covered = background_covered(scan, ns, np.maximum(ns - scan.lattice.epsilon, 0))
    return (tr.t_opt, tr.t_rejected) != select_t_opt(ts, variances, mean_sigmas, covered)


def test_criterion_3_search_oracle_equivalence():
    """The curve the search minimises is the per-slice reference curve, and
    its minimum is the reference minimum over the grid.

    ``homogeneity_variance`` thresholds the pixels one t at a time; on every
    grid point the corpus would take about a minute. So it checks the scanned
    curve on every 128th point, and the minimum on every point whose scanned
    variance lies within 1e-9 of the smallest: at the agreement checked here,
    only those can hold the reference minimum. Grid points between two pixel
    levels threshold the same pixels and share one value, so one point of
    each value is evaluated.

    The search's one selection rule also picks what the three-branch
    selection of ``oracle.select_t_opt`` picks, on every phantom and on two
    more volumes: the constant-400 one, whose raw minimum the no-object
    guard rejects, and an object-free one whose raw minimum is t_max.
    """
    start = time.perf_counter()
    checked = mismatches = 0
    worst = 0.0
    extra = (
        const_phantom(value=400.0, sigma=100.0, seed=1),
        generate(PhantomSpec(width=24, height=24, n_slices=10, sigma=50.0, seed=56)),
    )
    rule_mismatches = sum(_selection_differs(vol, find_t_opt(vol)) for vol in extra)
    for spec in _criterion_3_corpus():
        vol = generate(spec)
        tr = find_t_opt(vol)
        rule_mismatches += _selection_differs(vol, tr)
        ts, variances = tr.curve[:, 0], tr.curve[:, 1]
        checked += 1
        near = np.nonzero(variances <= variances.min() * (1 + 1e-9))[0]
        near = near[np.unique(variances[near], return_index=True)[1]]
        sample = np.union1d(np.arange(0, ts.size, 128), near)
        ref = np.array([homogeneity_variance(vol, t)[0] for t in ts[sample]])
        worst = max(worst, float(np.max(np.abs(ref - variances[sample]) / np.maximum(ref, 1e-300))))
        v_s = homogeneity_variance(vol, ts[np.argmin(variances)])[0]
        v_o = ref[np.isin(sample, near)].min()
        if tr.t_opt not in ts or v_s - v_o > 1e-12 * max(abs(v_s), abs(v_o)):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = checked >= 100 and mismatches == 0 and rule_mismatches == 0 and worst < 1e-9 and elapsed < 60.0
    _report(
        "criterion 3 (search-oracle equivalence)",
        ok,
        f"{checked} phantoms, {mismatches} mismatches beyond 1e-12 ties, "
        f"{rule_mismatches} selections unlike the three-branch rule on {checked + len(extra)} volumes, "
        f"curve within {worst:.1e} of the reference, runtime={elapsed:.1f}s < 60s",
    )


def test_criterion_4_matches_roi_method():
    worst = 0.0
    cases = 0
    for sigma in (50.0, 100.0, 200.0):
        for radius, seed in ((12, 3001), (16, 3002), (20, 3003), (24, 3004)):
            value = 10.0 * sigma
            spec = PhantomSpec(
                width=64,
                height=64,
                n_slices=20,
                objects=(PhantomObject("disk", (32, 32), radius, value),),
                sigma=sigma,
                seed=seed,
            )
            vol = generate(spec)
            yy, xx = np.mgrid[0:64, 0:64]
            background_mask = (xx - 32) ** 2 + (yy - 32) ** 2 > radius**2
            est = estimate(vol)
            roi = background_roi_noise(vol, background_mask)
            worst = max(worst, abs(est.sigma - roi) / sigma)
            cases += 1
    ok = worst <= 0.05
    _report(
        "criterion 4 (agreement with background-ROI method)",
        ok,
        f"{cases} masked phantoms, worst |sigma_auto - sigma_roi|/sigma_true = {worst:.4f} <= 0.05",
    )


def test_criterion_5_scaling_law():
    start = time.perf_counter()
    factors = (1.0, 1.25, 1.5, 2.0, 2.5, 3.0)
    gradients = {}
    for sigma, seed in ((50.0, 4001), (100.0, 4002), (200.0, 4003)):
        vol = generate(PhantomSpec(width=64, height=64, n_slices=20, sigma=sigma, seed=seed))
        curve = noise_resolution_curve(vol, factors)
        gradients[sigma] = curve.gradient_m
    elapsed = time.perf_counter() - start
    in_band = all(1.3 <= m <= 1.7 for m in gradients.values())

    rs = np.array([1.0, 1.25, 1.5, 2.0, 2.5, 3.0])
    m_exact, _, _ = fit_power_law(rs, 87.0 * rs ** (-1.5))
    exact_ok = abs(m_exact - 1.5) <= 1e-9

    ok = in_band and exact_ok and elapsed < 30.0
    detail = ", ".join(f"m(sigma={int(s)})={m:.3f}" for s, m in gradients.items())
    _report(
        "criterion 5 (scaling-law reproduction)",
        ok,
        f"{detail} (want [1.3, 1.7]); exact-curve m error={abs(m_exact - 1.5):.2e} <= 1e-9; "
        f"runtime={elapsed:.1f}s < 30s",
    )


def test_criterion_6_correction_factor_identity():
    vol = generate(PhantomSpec(width=1024, height=1024, n_slices=1, sigma=1.0, seed=5005))
    samples = vol.data
    ratio = 1.53 * float(samples.std()) / 1.0
    analytic = 1.53 * math.sqrt(2.0 - math.pi / 2.0)
    ok = samples.size >= 10**6 and 0.99 <= ratio <= 1.01
    _report(
        "criterion 6 (correction-factor identity)",
        ok,
        f"{samples.size} samples, 1.53*std(Rayleigh)/sigma = {ratio:.5f} in [0.99, 1.01] "
        f"(analytic {analytic:.5f})",
    )


def test_criterion_7_property_suites(tmp_path):
    checks = {}

    # threshold monotonicity and idempotence, as the noise scan applies the threshold
    rng = np.random.default_rng(6006)
    arr = rng.random((1, 16, 16)) * 300
    scan = build_scan(Volume.from_array(arr))
    counts = scan.curve_and_count(np.array([0, 50, 120, scan.lattice.stop]))[2].tolist()
    once = build_scan(Volume.from_array(np.where(arr <= 90.0, arr, 0.0)))
    at_90 = np.array([90])
    # one slice: the mean of the slice stds is that slice's std
    checks["threshold monotone+idempotent"] = counts == sorted(counts) and np.array_equal(
        once.curve_and_count(at_90)[1], scan.curve_and_count(at_90)[1]
    )

    # scale equivariance of sigma and t_opt
    base_vol = generate(
        PhantomSpec(
            width=64,
            height=64,
            n_slices=20,
            objects=(PhantomObject("disk", (32, 32), 18, 1000.0),),
            sigma=100.0,
            seed=6007,
        )
    )
    est1 = estimate(base_vol)
    doubled = Volume.from_array(base_vol.data * 2.0, base_vol.voxel_size)
    est2 = estimate(doubled, SearchConfig(t_start=80.0, epsilon=20.0, grid_step=2.0))
    checks["scale equivariance"] = (
        est2.threshold.t_opt == 2.0 * est1.threshold.t_opt
        and abs(est2.sigma - 2.0 * est1.sigma) <= 1e-9 * est2.sigma
    )

    # constant-volume DC preservation under downsample
    const = Volume.from_array(np.full((12, 30, 30), 55.0))
    down = downsample(const, 1.7)
    checks["downsample DC preservation"] = bool(np.allclose(down.data, 55.0, rtol=1e-11, atol=1e-8))

    # container round-trip byte identity
    vol_path = tmp_path / "c7.qvol"
    write_container(vol_path, generate(PhantomSpec(width=24, height=24, n_slices=4, sigma=40.0, seed=6008, quantize=True)), dtype="u16")
    round_path = tmp_path / "c7rt.qvol"
    write_container(round_path, load_volume(vol_path), dtype="u16")
    checks["container round-trip"] = vol_path.read_bytes() == round_path.read_bytes()

    # report reproducibility, byte-identical
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    ok1 = main(["estimate", str(vol_path), "--output", str(r1)]) == EXIT_OK
    ok2 = main(["estimate", str(vol_path), "--output", str(r2)]) == EXIT_OK
    checks["report reproducibility"] = ok1 and ok2 and r1.read_bytes() == r2.read_bytes()
    json.loads(r1.read_text())  # must be valid JSON

    failed = [name for name, passed in checks.items() if not passed]
    _report(
        "criterion 7 (property suites)",
        not failed,
        "all passed: " + ", ".join(checks) if not failed else "failed: " + ", ".join(failed),
    )
