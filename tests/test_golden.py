"""Golden reports: the sha256 of the canonical report bytes for four small phantoms.

The hashes were first recorded before the noise scan moved to the histogram
and sorted-table layouts, and pin that reports stayed byte-identical through
it. They were re-recorded for schema ``qbench-report/2``, whose reports differ
from those of ``/1`` only by the schema string, the removed
``config.search_mode`` and ``threshold.mode_used`` fields and the removed
search-fallback warning; the curve CSV did not change. They were re-recorded
again for ``qbench-report/3``, whose reports differ from those of ``/2`` only
by the schema string and the removed ``config.grid`` field. They were
re-recorded once more for version 0.2.0, and again for 0.3.0, whose reports
each differ from those of the version before only by ``tool.version``.
The curve hashes were re-recorded when ``downsample`` moved from
``tensordot`` to one matrix product per axis: the noise at 1.5 mm moved
from 54.645146276800894 to 54.64514627680092 (4 ulp), in the report and in
the CSV; every other value is unchanged. Resampled values depend on the
BLAS build's reduction order, not on its thread count, and CI checks these
hashes with one BLAS thread and with the default.
The f32 and curve hashes were re-recorded when the noise scan moved from a
sorted copy of float volumes to tables binned on the search lattice: float
sums now accumulate bin by bin, not in sorted order, so the per-slice
sigmas, and the noise, SNR and fit derived from them, moved in their last
digits (sigma of f32-disk from 89.69651997420071 to 89.69651997420134,
7e-15 relative; at most 1e-13 relative over these reports). Every
threshold, the curve's points and the signal mean are unchanged, and so
are the u16 hashes, whose sums are exact integers.
The curve hashes were re-recorded when the curve stopped searching a
threshold per factor and read each factor's noise, as the std of its
positive samples per slice, inside the full-resolution background: on this
object-free phantom the noise at 2 mm moved from 35.93028049358535 to
35.93028049358544 (2.5e-15 relative), in the report and in the CSV, and
``gradient_m``, ``y0`` and ``residual`` with it in their last digits; the
point at 1.5 mm and every other value are unchanged.
The report hashes were re-recorded when the ``units`` block gained the
curve's failed factors, after the phantom build without its offset worker
thread had passed the hashes before it unchanged. Every report differs from
the one before by one line of that block, and the curve CSV did not change::

    >     "resolution_curve.failures.factor": "dimensionless",

The curve hashes were re-recorded when ``downsample`` moved to float32
products for float32 and integer volumes. On this f32 phantom only the curve
floats moved, in the report and the CSV alike::

    <     "gradient_m": 1.7425008914922693,
    >     "gradient_m": 1.7425009128839526,
    <         "noise": 54.64514627680057,
    >         "noise": 54.64514632563555,
    <         "noise": 35.93028049358544,
    >         "noise": 35.930279919546386,
    <     "residual": 0.03676149224516548,
    <     "y0": 116.64369075580632
    >     "residual": 0.03676148744137039,
    >     "y0": 116.64369108312312

The noises at 1.5 and 2 mm moved by 8.9e-10 and 1.6e-8 relative, and the
full-resolution point and every estimate value are unchanged.
The curve hashes were re-recorded when each factor's per-slice noise moved
from ``np.std`` of its positive samples to the slice's count, sum and sum of
squares, the formula of the estimate's per-slice sigmas. Only the curve
floats moved, in the report and the CSV alike::

    <     "gradient_m": 1.7425009128839526,
    >     "gradient_m": 1.7425009128839513,
    <         "noise": 54.64514632563555,
    >         "noise": 54.64514632563552,
    <         "noise": 35.930279919546386,
    >         "noise": 35.93027991954636,
    <     "residual": 0.03676148744137039,
    <     "y0": 116.64369108312312
    >     "residual": 0.03676148744137032,
    >     "y0": 116.643691083123

The noises at 1.5 and 2 mm moved by 5.2e-16 and 7.9e-16 relative.
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
    "u16-disk": "845ed09c2b640a10b1a9accc6f01d246460cda49c619e796557dff856c80cee8",
    "f32-disk": "e23aec7ee0c368fda2cba7771c8421351af88ee9397f3c8acd15997dc1bdb283",
    "f32-noobj": "d8d7807e37d69113d7ed052a43fedf72e19897f45ebe8350b29a0bab51acbcd6",
    "u16-offset": "4dec675a6d948e6371996e5da91144674eb07d8673978ee51078327d72b682c0",
}

CURVE_SHA256 = {
    "report": "be8fc690d0dbef4158d8108ac1a80ebed7a29ee60799292f95b91c6731f16792",
    "csv": "f814a3e728370b67350ea7617752a4d69227c3e98d252470aa47f760ed8f5afe",
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
