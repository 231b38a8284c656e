"""Correctness checks applied to the report of every op."""

from __future__ import annotations

import json

SIGMA_TOLERANCE = 0.05
GRADIENT_RANGE = (1.3, 1.7)

# ROADMAP item 4 and aim 3: below the 12-bit range the probe constants are
# not rescaled, and the probe walk runs past a dim object; the report then
# says no_object with sigma taken from the whole image. At the seed commit
# this hits exactly these inputs, on every seed (the phantoms are fixed per
# workload). Their ops count as failed and are named, but do not make a run
# incorrect. The same failure on any other input does. Drop this once item 4
# lands.
KNOWN_DEFECT = "ROADMAP item 4: an object phantom silently reads as no_object"
KNOWN_DEFECT_INPUTS = {"estimate-f32-mixed": frozenset({"disk-x0.01-s100", "rect-x0.01-s100"})}

def check_report(
    exit_code: int, report_bytes: bytes | None, reference: bytes | None, expect: dict
) -> tuple[dict[str, str], float | None]:
    """Failed checks of one op as {check: reason}, empty when the op is correct,
    and the report's sigma (None when there is no usable report).

    ``expect`` holds the input's ``sha256``, ``sigma_expected`` and
    ``has_object``, and ``curve`` when the op ran ``qbench curve``.
    ``reference`` is the first report this run produced for the same input;
    every repeat must reproduce it byte for byte.
    """
    if exit_code != 0:
        return {"exit": f"exit code {exit_code}"}, None
    try:
        report = json.loads(report_bytes)
        sigma = float(report["noise"]["sigma"])
        no_object = report["threshold"]["no_object"]
        digest = report["input"]["sha256"]
        gradient = float(report["resolution_curve"]["gradient_m"]) if expect.get("curve") else None
    except (TypeError, ValueError, KeyError) as exc:
        return {"parse": f"report does not parse: {exc!r}"}, None
    failed = {}
    if reference is not None and report_bytes != reference:
        failed["repeat"] = "report bytes differ from this input's first report"
    if digest != expect["sha256"]:
        failed["digest"] = "report sha256 does not match the input file"
    err = abs(sigma - expect["sigma_expected"]) / expect["sigma_expected"]
    if err > SIGMA_TOLERANCE:
        failed["sigma"] = f"sigma {sigma:.6g} is {err:.1%} off {expect['sigma_expected']:.6g}"
    if no_object != (not expect["has_object"]):
        failed["no_object"] = f"no_object={no_object} but the phantom has {'an' if expect['has_object'] else 'no'} object"
    if gradient is not None and not GRADIENT_RANGE[0] <= gradient <= GRADIENT_RANGE[1]:
        failed["gradient"] = f"gradient_m {gradient:.4f} outside {list(GRADIENT_RANGE)}"
    return failed, sigma


def known_defect(workload: str, name: str, failed: dict[str, str]) -> bool:
    """True when a listed input failed only by the known defect: read as no_object."""
    return name in KNOWN_DEFECT_INPUTS.get(workload, ()) and "no_object" in failed and set(failed) <= {"no_object", "sigma"}
