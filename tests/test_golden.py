"""Golden reports: the sha256 of the canonical report bytes for four small phantoms.

The hashes were recorded before the noise scan moved to the histogram and
sorted-table layouts, and pin that reports stayed byte-identical through it.
Phantoms are bit-exact only on one numpy build (README, Determinism), so a
numpy upgrade that changes the noise stream changes these hashes too.
"""

import hashlib

import pytest

from qbench import PhantomObject, PhantomSpec, generate, write_container
from qbench.cli import EXIT_OK, main

DISK = (PhantomObject("disk", (24.0, 22.0), 13.0, 1100.0),)

PHANTOMS = {
    "u16-disk": (PhantomSpec(width=48, height=44, n_slices=12, objects=DISK, sigma=90.0, seed=101, quantize=True), "u16"),
    "f32-disk": (PhantomSpec(width=48, height=44, n_slices=12, objects=DISK, sigma=90.0, seed=102), "f32"),
    "f32-noobj": (PhantomSpec(width=40, height=40, n_slices=10, sigma=120.0, seed=103), "f32"),
    "u16-offset": (
        PhantomSpec(width=40, height=40, n_slices=10, background_value=200.0, sigma=100.0, seed=104, quantize=True),
        "u16",
    ),
}

REPORT_SHA256 = {
    "u16-disk": "8fe6835eda7d00792bcd0c402a6834e6258dcdfc9571c3b05120397c20648ad0",
    "f32-disk": "ba79618acef97cd9ba39ab22c46daedcad76fb12d2fc7d01b7eeef6977ca7724",
    "f32-noobj": "ecc930a00cfc10f0f6a749ec0b2daf63c652a12436350f1fbf494eda844e80f0",
    "u16-offset": "4abf8f35fbeb776387cbab00a206169e799421e4bb0f094b5a39348fe2ef7187",
}

CURVE_SHA256 = {
    "report": "3da89ae968288b7892ce76e5c7a28aef8bff3531ce7a6a49daaf0dc9d8d4dfee",
    "csv": "e3ba8aa886c0115fe67176555c2c6a6eaae3c9727f19fe7c66defa4495f6c284",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def container(tmp_path, name):
    spec, dtype = PHANTOMS[name]
    path = tmp_path / f"{name}.qvol"
    write_container(path, generate(spec), dtype=dtype)
    return path


@pytest.mark.parametrize("name", sorted(PHANTOMS))
def test_estimate_report_bytes(tmp_path, name):
    out = tmp_path / "report.json"
    assert main(["estimate", str(container(tmp_path, name)), "--output", str(out)]) == EXIT_OK
    assert sha256(out) == REPORT_SHA256[name]


def test_curve_report_and_csv_bytes(tmp_path):
    out = tmp_path / "curve.json"
    path = container(tmp_path, "f32-noobj")
    assert main(["curve", str(path), "--factors", "1,1.5,2", "--output", str(out)]) == EXIT_OK
    assert {"report": sha256(out), "csv": sha256(out.with_suffix(".csv"))} == CURVE_SHA256
