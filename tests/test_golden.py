"""Golden reports: the sha256 of the canonical report bytes for four small phantoms.

The hashes were first recorded before the noise scan moved to the histogram
and sorted-table layouts, and pin that reports stayed byte-identical through
it. They were re-recorded for schema ``qbench-report/2``, whose reports differ
from those of ``/1`` only by the schema string, the removed
``config.search_mode`` and ``threshold.mode_used`` fields and the removed
search-fallback warning; the curve CSV did not change.
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
    "u16-disk": "cd305ac3546de79eb0c024da7e43077cc653c210d268d557e1e3c66ed5467481",
    "f32-disk": "cbbbac08ccb2a1dc78c3fe54ddeb56f1666e25ebc62b6e34b382f5a077789aae",
    "f32-noobj": "ff279462aea1544dea3f1f6442a66de20417be9f7877697f9e0ef788f282a064",
    "u16-offset": "e624779618f7e7692a03aa22a7bc3f5c3a9f525e5d72644e189da76efe25bc7a",
}

CURVE_SHA256 = {
    "report": "c0f508287a3965d5f83bdde76f0c10b0d1db00438aa03939c6ec3bf8bedec62b",
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
