"""Command-line interface.

Subcommands: ``estimate`` (noise/SNR report for one volume), ``synth``
(deterministic phantom volume from a JSON spec) and ``curve`` (noise across
resolutions with the fitted gradient and a CSV sidecar).

Exit codes: 0 success, 2 usage error, 3 input load error, 4 estimation error,
5 internal error (an unexpected exception, reported as one
``qbench: internal error: ...`` line with no traceback).
A no-object result is a successful run that prints a prominent warning.
The input is read once: the loader parses the bytes it read and the report
hashes the same bytes, on one worker thread that starts before the parse
and runs while the main thread parses and analyses. ``curve`` estimates the
input volume once and reuses that estimate for both the report and the
curve's factor-1 point.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import fields
from pathlib import Path

from .noise import EstimationError, SearchConfig, estimate
from .phantom import PhantomSpec, generate
from .qvol import VolumeFormatError, load_volume, read_input, write_container
from .report import build_report, curve_csv, input_digest, report_json, write_text_atomic
from .resolution import (
    DEFAULT_EXPONENT,
    DEFAULT_REF_MM,
    check_factors,
    check_quality_params,
    effective_resolution,
    noise_resolution_curve,
    normalize_quality,
)
from .volume import Volume

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_LOAD = 3
EXIT_ESTIMATION = 4
EXIT_INTERNAL = 5


class _UsageError(ValueError):
    pass


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    cfg = SearchConfig  # the defaults are the config's own
    parser.add_argument("--t-start", type=float, default=cfg.t_start, help="first probed threshold (12-bit intensity units, snapped to whole grid steps)")
    parser.add_argument("--epsilon", type=float, default=cfg.epsilon, help="probe step of the walk that finds t_lower (12-bit intensity units, whole grid steps, at least one)")
    parser.add_argument("--grid-step", type=float, default=cfg.grid_step, help="threshold lattice step (12-bit intensity units; times intensity_max/4095 above 4095); at most 2**22 steps up to the maximum times slices")
    parser.add_argument("--correction-factor", type=float, default=cfg.correction_factor, help="background-std to sigma multiplier")


def _add_quality_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ref-resolution", type=float, default=DEFAULT_REF_MM, help="reference resolution for SNR normalization (mm)")
    parser.add_argument("--exponent-m", type=float, default=DEFAULT_EXPONENT, help="noise-vs-resolution exponent")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qbench", description="Noise/SNR quality benchmark for magnitude MR volumes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate noise, signal and SNR of one volume")
    p_est.add_argument("input", help="QVOL1 container or directory of PGM slices")
    _add_search_flags(p_est)
    _add_quality_flags(p_est)
    p_est.add_argument("--output", help="write the JSON report here instead of stdout")

    p_syn = sub.add_parser("synth", help="generate a deterministic phantom volume")
    p_syn.add_argument("spec", help="JSON phantom spec file")
    p_syn.add_argument("--output", required=True, help="QVOL1 container to write")

    p_cur = sub.add_parser("curve", help="noise across resolutions with fitted gradient")
    p_cur.add_argument("input", help="QVOL1 container or directory of PGM slices")
    p_cur.add_argument("--factors", required=True, help="comma-separated downsampling factors, e.g. 1,1.5,2,3")
    _add_search_flags(p_cur)
    _add_quality_flags(p_cur)
    p_cur.add_argument("--output", required=True, help="JSON report path; the CSV sidecar lands next to it")
    return parser


def _config_from(args) -> SearchConfig:
    """The search config of the flags; each flag's dest is its field's name."""
    return SearchConfig(**{f.name: getattr(args, f.name) for f in fields(SearchConfig)})


def _parse_factors(text: str) -> list[float]:
    try:
        factors = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"unparsable --factors value {text!r}") from None
    return check_factors(factors, "--factors")


def _load(path: str, files: list[tuple[Path, bytes]]) -> tuple[Volume, str, list[str]]:
    """The volume parsed from ``files``, the bytes ``read_input`` read from
    ``path``, with the input format and the loader's warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        volume = load_volume(path, files)
    fmt = "pgm-stack" if Path(path).is_dir() else "qvol"
    return volume, fmt, [str(w.message) for w in caught]


def _cmd_analyze(args) -> int:
    """``estimate`` and ``curve``: one analysis, in which the resolution curve
    and its CSV sidecar are the only extras of ``curve``. Every flag is
    checked, by the module that owns its contract, before the input is
    loaded."""
    try:
        cfg = _config_from(args)
        check_quality_params(args.exponent_m, args.ref_resolution, ("--exponent-m", "--ref-resolution"))
        factors = _parse_factors(args.factors) if args.command == "curve" else None
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    files = read_input(args.input)
    # the hash starts before the parse and runs while the bytes are parsed and
    # analysed; leaving the block joins the hashing thread, on every exit path.
    # A container's bytes are the volume's array, so they live as long as the
    # volume; a PGM stack's are released once both the parse and the hash are done.
    with input_digest(args.input, files) as digest:
        volume, fmt, load_warnings = _load(args.input, files)
        del files
        est = estimate(volume, cfg)
        curve = None if factors is None else noise_resolution_curve(volume, factors, cfg, full=est)
        score = normalize_quality(est.snr, effective_resolution(volume.voxel_size), args.exponent_m, args.ref_resolution)
        report = build_report(
            digest=digest.result(),
            input_format=fmt,
            volume=volume,
            cfg=cfg,
            est=est,
            curve=curve,
            score=score,
            extra_warnings=tuple(load_warnings),
        )
    text = report_json(report)
    if args.output:
        write_text_atomic(args.output, text)
    else:
        sys.stdout.write(text)
    if curve is not None:
        write_text_atomic(Path(args.output).with_suffix(".csv"), curve_csv(curve))
    if est.threshold.no_object:
        print("WARNING: no object separated from the background; SNR is zero", file=sys.stderr)
    return EXIT_OK


def _cmd_synth(args) -> int:
    try:
        spec_data = json.loads(Path(args.spec).read_text())
    except OSError as exc:
        raise VolumeFormatError(f"{args.spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{args.spec}: invalid JSON: {exc}") from exc
    try:
        spec = PhantomSpec.from_dict(spec_data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"{args.spec}: invalid phantom spec: {exc}") from exc
    volume = generate(spec)
    try:
        write_container(args.output, volume, dtype="u16" if spec.quantize else "f32")
    except ValueError as exc:  # a pixel beyond the container dtype's range
        raise _UsageError(f"{args.spec}: {exc}") from exc
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"estimate": _cmd_analyze, "synth": _cmd_synth, "curve": _cmd_analyze}
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"qbench: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VolumeFormatError as exc:
        print(f"qbench: cannot load input: {exc}", file=sys.stderr)
        return EXIT_LOAD
    except OSError as exc:
        print(f"qbench: I/O error: {exc}", file=sys.stderr)
        return EXIT_LOAD
    except EstimationError as exc:
        print(f"qbench: estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION
    except Exception as exc:
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"qbench: internal error: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
