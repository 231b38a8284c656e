"""Command-line interface.

Subcommands: ``estimate`` (noise/SNR report for one volume), ``synth``
(deterministic phantom volume from a JSON spec) and ``curve`` (noise across
resolutions with the fitted gradient and a CSV sidecar).

Exit codes: 0 success, 2 usage error, 3 input load error, 4 estimation error.
A no-object result is a successful run that prints a prominent warning.
``curve`` estimates the input volume once and reuses that estimate for both
the report and the curve's factor-1 point.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from .noise import EstimationError, SearchConfig, estimate
from .phantom import PhantomSpec, generate
from .qvol import VolumeFormatError, load_volume, write_container
from .report import build_report, curve_csv, input_digest, report_json, write_text_atomic
from .resolution import DEFAULT_EXPONENT, effective_resolution, noise_resolution_curve, normalize_quality
from .volume import Volume

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_LOAD = 3
EXIT_ESTIMATION = 4


class _UsageError(ValueError):
    pass


def _add_search_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--t-start", type=float, default=40.0, help="first probed threshold (intensity units)")
    parser.add_argument("--epsilon", type=float, default=10.0, help="probe step of the bracket search (intensity units)")
    parser.add_argument("--grid-step", type=float, default=1.0, help="threshold grid quantum (intensity units)")
    parser.add_argument("--correction-factor", type=float, default=1.53, help="background-std to sigma multiplier")
    parser.add_argument(
        "--search-mode",
        choices=("bracketed", "exhaustive"),
        default="bracketed",
        help="minimum search strategy (bracketed falls back to exhaustive on non-unimodal curves)",
    )


def _add_quality_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ref-resolution", type=float, default=1.0, help="reference resolution for SNR normalization (mm)")
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
    try:
        return SearchConfig(
            t_start=args.t_start,
            epsilon=args.epsilon,
            grid_step=args.grid_step,
            correction_factor=args.correction_factor,
            search_mode=args.search_mode,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _load(path: str) -> tuple[Volume, str, list[str]]:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        volume = load_volume(path)
    fmt = "pgm-stack" if Path(path).is_dir() else "qvol"
    return volume, fmt, [str(w.message) for w in caught]


def _emit(report: dict, output: str | None) -> None:
    text = report_json(report)
    if output:
        write_text_atomic(output, text)
    else:
        sys.stdout.write(text)


def _warn_no_object(report: dict) -> None:
    if report["threshold"]["no_object"]:
        print("WARNING: no object separated from the background; SNR is zero", file=sys.stderr)


def _parse_factors(text: str) -> list[float]:
    try:
        factors = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"unparsable --factors value {text!r}") from exc
    if len(factors) < 2:
        raise _UsageError("--factors needs at least 2 values")
    if any(f < 1 for f in factors):
        raise _UsageError("--factors must all be >= 1")
    return factors


def _cmd_estimate(args) -> int:
    cfg = _config_from(args)
    volume, fmt, load_warnings = _load(args.input)
    est = estimate(volume, cfg)
    score = normalize_quality(est.snr, effective_resolution(volume.voxel_size), args.exponent_m, args.ref_resolution)
    report = build_report(
        digest=input_digest(args.input),
        input_format=fmt,
        volume=volume,
        cfg=cfg,
        est=est,
        score=score,
        extra_warnings=tuple(load_warnings),
    )
    _emit(report, args.output)
    _warn_no_object(report)
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
    write_container(args.output, volume, dtype="u16" if spec.quantize else "f32")
    return EXIT_OK


def _cmd_curve(args) -> int:
    cfg = _config_from(args)
    factors = _parse_factors(args.factors)
    volume, fmt, load_warnings = _load(args.input)
    est = estimate(volume, cfg)
    curve = noise_resolution_curve(volume, factors, cfg, full=est)
    score = normalize_quality(est.snr, effective_resolution(volume.voxel_size), args.exponent_m, args.ref_resolution)
    report = build_report(
        digest=input_digest(args.input),
        input_format=fmt,
        volume=volume,
        cfg=cfg,
        est=est,
        curve=curve,
        score=score,
        extra_warnings=tuple(load_warnings),
    )
    _emit(report, args.output)
    write_text_atomic(Path(args.output).with_suffix(".csv"), curve_csv(curve))
    _warn_no_object(report)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"estimate": _cmd_estimate, "synth": _cmd_synth, "curve": _cmd_curve}
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"qbench: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (VolumeFormatError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"qbench: cannot load input: {exc}", file=sys.stderr)
        return EXIT_LOAD
    except OSError as exc:
        print(f"qbench: I/O error: {exc}", file=sys.stderr)
        return EXIT_LOAD
    except EstimationError as exc:
        print(f"qbench: estimation failed: {exc}", file=sys.stderr)
        return EXIT_ESTIMATION


if __name__ == "__main__":
    sys.exit(main())
