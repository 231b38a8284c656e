"""Golden reports: the sha256 of the canonical report bytes for four small phantoms.

The hashes were first recorded before the noise scan moved to the histogram
and sorted-table layouts, and pin that reports stayed byte-identical through
it. They were re-recorded for schema ``qbench-report/2``, whose reports differ
from those of ``/1`` only by the schema string, the removed
``config.search_mode`` and ``threshold.mode_used`` fields and the removed
search-fallback warning; the curve CSV did not change. They were re-recorded
again for ``qbench-report/3``, whose reports differ from those of ``/2`` only
by the schema string and the removed ``config.grid`` field.
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
    "u16-disk": "8338636817a27836d7f0563f7699274dcb46f9d5723f95055b94a90cbc6ef413",
    "f32-disk": "092e863093bbbb37b415335446e92395d414a3089e9bfbe4e57dcc3219f5621e",
    "f32-noobj": "198a05de0492f1e9947b57d607e75ee1ed99a69ca29799980b15fbb57cb5db41",
    "u16-offset": "0a2d52011407370acf14088fb08e73a62d68bb5212bd873c6d0e525e7e0c7d37",
}

CURVE_SHA256 = {
    "report": "2151bcc6c270f5dd2b179ea2da6368cea7819c824a114a4fd32f4f2f86680ccb",
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
