"""Command line interface.

Subcommands
-----------
detect            run the detection pipeline on a sampled series
simulate          Monte Carlo error/power study from a JSON config
estimate-moments  report spectral moment estimates for a series
pvalue-table      tabulate peak-height p-values (or inverse) for given moments

Exit codes: 0 success, 1 usage or configuration error, 2 unreadable or
malformed input data, 3 degenerate moment estimates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, asdict, fields

import numpy as np

from .detector import DetectorConfig, _smooth, detect, estimate_smoothed_moments
from .evaluation import SimConfig, run_simulation, standard_design
from .io import (
    SeriesFormatError,
    load_series,
    sim_report_dict,
    write_detection_report,
    write_sim_report,
)
from .model import NoiseSpec, SignalSpec
from .moments_est import ESTIMATORS
from .nulldist import (
    InvalidMomentsError,
    SpectralMoments,
    gaussian_model_moments,
    peak_height_right_cdf,
    peak_height_right_cdf_inverse,
)
from .series import Grid

__all__ = ["main", "entry_point"]


def _add_input_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="path to the sampled series")
    sub.add_argument(
        "--format",
        choices=("plain", "csv"),
        default="plain",
        help="input layout: one value per line, or time,value rows",
    )
    sub.add_argument(
        "--spacing", type=float, default=1.0, help="sample spacing (plain format)"
    )
    sub.add_argument(
        "--origin", type=float, default=0.0, help="time of first sample (plain format)"
    )


def _add_output_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--output", help="write the report here instead of stdout")
    sub.add_argument(
        "--output-format",
        choices=("json", "csv"),
        default="json",
        help="report layout (csv needs --output; writes a manifest sidecar)",
    )


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="peaksig",
        description="Peak detection in noisy 1-D signals via smoothing and "
        "multiple testing of local maxima.",
    )
    parser.add_argument(
        "--version", action="version", version=f"peaksig {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("detect", help="detect peaks in a sampled series")
    _add_input_args(p)
    p.add_argument("--config", help="JSON file with detector settings")
    p.add_argument("--gamma", type=float, help="smoothing bandwidth")
    p.add_argument("--alpha", type=float, help="error budget (default 0.05)")
    p.add_argument("--method", choices=("bonferroni", "bh"), help="testing procedure")
    p.add_argument(
        "--moments",
        dest="moments_source",
        choices=tuple(sorted(ESTIMATORS)),
        help="moment estimator when moments are not supplied directly",
    )
    p.add_argument("--sigma2", type=float, help="known smoothed variance")
    p.add_argument("--lambda2", type=float, help="known second spectral moment")
    p.add_argument("--lambda4", type=float, help="known fourth spectral moment")
    p.add_argument(
        "--noise-sigma", dest="sigma", type=float, help="known pre-smoothing noise level"
    )
    p.add_argument(
        "--noise-nu", dest="nu", type=float, help="known noise autocorrelation bandwidth"
    )
    p.add_argument("--kernel-truncation", type=float, help="kernel support, in bandwidths")
    p.add_argument(
        "--no-subtract-mean",
        dest="subtract_mean",
        action="store_false",
        default=None,
        help="skip centering the series before smoothing",
    )
    _add_output_args(p)
    p.set_defaults(func=_cmd_detect)

    p = commands.add_parser("simulate", help="run a Monte Carlo study")
    p.add_argument("--config", required=True, help="JSON study description")
    p.add_argument(
        "--seed", dest="base_seed", type=int, required=True,
        help="base seed for noise draws",
    )
    p.add_argument("--replications", type=int, help="override replication count")
    p.add_argument(
        "--gammas", type=_parse_list, help="override bandwidth grid, comma separated"
    )
    p.add_argument("--alpha", type=float, help="override error budget")
    p.add_argument(
        "--methods",
        type=lambda text: _parse_list(text, str),
        help="override procedures, comma separated",
    )
    p.add_argument(
        "--workers",
        type=int,
        help="worker processes (default: the config's workers, else "
        "PEAKSIG_WORKERS, else 1)",
    )
    _add_output_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = commands.add_parser(
        "estimate-moments", help="estimate spectral moments from a series"
    )
    _add_input_args(p)
    p.add_argument(
        "--estimator",
        choices=tuple(sorted(ESTIMATORS)),
        default="mad",
        help="estimation strategy",
    )
    p.add_argument(
        "--gamma",
        type=float,
        help="smooth at this bandwidth first; omit if the series is already smoothed",
    )
    p.add_argument(
        "--lag-window",
        type=int,
        help="fit window, in lags, for the acf estimator",
    )
    p.add_argument("--output", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_estimate)

    p = commands.add_parser(
        "pvalue-table",
        help="tabulate height p-values, or the inverse map, under given moments",
    )
    p.add_argument("--sigma2", type=float, help="smoothed variance")
    p.add_argument("--lambda2", type=float, help="second spectral moment")
    p.add_argument("--lambda4", type=float, help="fourth spectral moment")
    p.add_argument("--sigma", type=float, help="noise level (closed-form model)")
    p.add_argument("--nu", type=float, help="noise bandwidth (closed-form model)")
    p.add_argument("--gamma", type=float, help="smoothing bandwidth (closed-form model)")
    p.add_argument("--heights", help="explicit heights, comma separated")
    p.add_argument("--min", dest="hmin", type=float, help="grid start")
    p.add_argument("--max", dest="hmax", type=float, help="grid end")
    p.add_argument("--num", type=int, default=50, help="grid size (default 50)")
    p.add_argument(
        "--pvalues",
        help="tabulate the inverse instead: heights at these p-values, "
        "comma separated",
    )
    p.add_argument("--output", help="write the table here instead of stdout")
    p.set_defaults(func=_cmd_pvalue_table)

    return parser


# ---------------------------------------------------------------------------
# settings: the dataclass fields are the schema


def _load_json_object(path: str, what: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object")
    return raw


def _refuse_unknown(block: dict, names, where: str) -> None:
    unknown = set(block) - set(names)
    if unknown:
        raise ValueError(f"unknown {where} keys: {sorted(unknown)}")


def _names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


# Config fields spelled as nested JSON objects, by their annotation.
_NESTED = {cls.__name__: cls for cls in (SignalSpec, NoiseSpec, Grid)}
# Numeric fields, by their annotation.
_FLOATS = ("float", "float | None")
_FLOAT_LISTS = ("tuple[float, ...]", "tuple[tuple[float, float], ...]")  # gammas, peaks
# The design layout's parameters and the study fields it passes on.
_DESIGN_KINDS = {f.name: f.type for f in fields(SimConfig)} | {
    k: v for k, v in standard_design.__annotations__.items() if k != "return"
}


def _number(value, where: str, key: str):
    """``value`` if it is a JSON number; a bool or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} key {key!r} must be a number, got {json.dumps(value)}")
    return value


def _floats(value, where: str, key: str) -> tuple:
    """A JSON list of numbers, or of lists of them, as a tuple of floats."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{where} key {key!r} must be a list, got {json.dumps(value)}")
    return tuple(
        _floats(v, where, f"{key}[{i}]") if isinstance(v, (list, tuple))
        else float(_number(v, where, f"{key}[{i}]"))
        for i, v in enumerate(value)
    )


def _read_fields(kinds: dict, block: dict, where: str) -> dict:
    """``block`` with each key read by its annotation in ``kinds``.

    Numeric fields, list items included, must be JSON numbers: a bool or
    a string is refused by name. Float fields become floats, so a JSON
    ``1`` is echoed as ``1.0``; nested specs are read as objects. Keys
    ``kinds`` does not know pass through for the caller to refuse.
    """
    read = {}
    for key, value in block.items():
        kind = kinds.get(key)
        if kind in _NESTED:
            value = _from_json(_NESTED[kind], value, key)
        elif kind in _FLOAT_LISTS:
            value = _floats(value, where, key)
        elif value is not None and kind in _FLOATS:
            value = float(_number(value, where, key))
        elif kind == "int":
            value = _number(value, where, key)
        read[key] = value
    return read


def _from_json(cls, block, where: str):
    """``cls`` from the JSON object ``block``: keys must be fields, fields
    without a default must be given, and values are read by
    :func:`_read_fields`."""
    if not isinstance(block, dict):
        raise ValueError(f"{where} must be a JSON object")
    _refuse_unknown(block, _names(cls), where)
    for f in fields(cls):
        if f.name not in block and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{where} missing key: {f.name!r}")
    return cls(**_read_fields({f.name: f.type for f in fields(cls)}, block, where))


_TRIPLE = _names(SpectralMoments)
# The moment-source settings; each is also its flag's destination.
_SOURCE_KEYS = _TRIPLE | _names(NoiseSpec)


def _moments_source(given: dict):
    """A :class:`SpectralMoments` from ``sigma2``/``lambda2``/``lambda4``, a
    :class:`NoiseSpec` from ``sigma``/``nu`` (its defaults fill the one
    left out), or ``None`` from an empty ``given``."""
    if not given:
        return None
    _refuse_unknown(given, _SOURCE_KEYS, "moments_source")
    if _TRIPLE & set(given) and set(given) != _TRIPLE:
        raise ValueError(
            "sigma2, lambda2, lambda4 must be given together, without sigma or nu"
        )
    cls = SpectralMoments if _TRIPLE & set(given) else NoiseSpec
    return _from_json(cls, given, "moments_source")


def _given(args, names) -> dict:
    """The flags, by destination among ``names``, that were given."""
    return {k: getattr(args, k) for k in names if getattr(args, k, None) is not None}


# ---------------------------------------------------------------------------
# detect


def _detector_config(args) -> DetectorConfig:
    settings = _load_json_object(args.config, "detector config") if args.config else {}
    settings.update(_given(args, _names(DetectorConfig)))
    source = _given(args, _SOURCE_KEYS) or settings.get("moments_source")
    if isinstance(source, dict):
        settings["moments_source"] = _moments_source(source)
    if "gamma" not in settings:
        raise ValueError("a smoothing bandwidth is required (--gamma or config file)")
    return _from_json(DetectorConfig, settings, "detector config")


def _cmd_detect(args) -> int:
    config = _detector_config(args)
    series = load_series(args.input, args.format, args.spacing, args.origin)
    result = detect(series, config)
    for message in result.warnings:
        print(f"warning: {message}", file=sys.stderr)
    write_detection_report(
        result, args.output or sys.stdout, fmt=args.output_format, input_path=args.input
    )
    return 0


# ---------------------------------------------------------------------------
# simulate


def _parse_list(text: str, cast=float) -> tuple:
    return tuple(cast(part.strip()) for part in text.split(",") if part.strip())


def _sim_config(args) -> SimConfig:
    settings = _load_json_object(args.config, "simulation config")
    settings.update(_given(args, _names(SimConfig)))
    design = settings.pop("design", None)
    if design is not None:
        if not isinstance(design, dict):
            raise ValueError("design must be a JSON object")
        settings = {
            **_read_fields(_DESIGN_KINDS, design, "design"),
            **_read_fields(_DESIGN_KINDS, settings, "simulation config"),
        }
    if "workers" not in settings:  # read only when it is used
        text = os.environ.get("PEAKSIG_WORKERS", "1")
        try:
            settings["workers"] = int(text)
        except ValueError:
            raise ValueError(f"PEAKSIG_WORKERS must be an integer, got {text!r}") from None
    if design is None:
        return _from_json(SimConfig, settings, "simulation config")
    return standard_design(**settings)  # SimConfig refuses a key it lacks


def _cmd_simulate(args) -> int:
    config = _sim_config(args)
    report = run_simulation(config)
    if args.output:
        write_sim_report(report, args.output, fmt=args.output_format)
    else:
        print(json.dumps(sim_report_dict(report), indent=2))
    return 0


# ---------------------------------------------------------------------------
# estimate-moments


def _cmd_estimate(args) -> int:
    if args.estimator == "acf" and args.lag_window is None and args.gamma is None:
        raise ValueError("the acf estimator needs --lag-window or --gamma")
    series = load_series(args.input, args.format, args.spacing, args.origin)
    if args.gamma is not None:
        series, _ = _smooth(series, args.gamma)
    estimate = estimate_smoothed_moments(
        series, args.estimator, args.gamma, args.lag_window
    )
    payload = {
        "estimator": estimate.method,
        "gamma": args.gamma,
        "num_samples": len(series) - 2 * series.boundary,
        "moments": asdict(estimate.moments),
        "degenerate": estimate.degenerate,
        "diagnostics": estimate.diagnostics,
    }
    text = json.dumps(payload, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if estimate.degenerate:
        print("error: degenerate moment estimate", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# pvalue-table


def _cmd_pvalue_table(args) -> int:
    source = _moments_source(_given(args, _SOURCE_KEYS))
    if isinstance(source, SpectralMoments):
        moments = source
    elif args.gamma is not None:
        moments = gaussian_model_moments(source or NoiseSpec(), args.gamma)
    else:
        raise ValueError(
            "supply moments directly (--sigma2/--lambda2/--lambda4) or via the "
            "closed-form model (--gamma with optional --sigma/--nu)"
        )
    moments.validate()
    if args.pvalues is not None:
        if args.heights is not None or args.hmin is not None or args.hmax is not None:
            raise ValueError("--pvalues cannot be combined with a height grid")
        ps = _parse_list(args.pvalues)
        if not ps:
            raise ValueError("--pvalues parsed to an empty list")
        us = [peak_height_right_cdf_inverse(moments, p) for p in ps]
        lines = ["p_value,height"]
        lines += [f"{p!r},{u!r}" for p, u in zip(ps, us)]
    else:
        if args.heights is not None:
            if args.hmin is not None or args.hmax is not None:
                raise ValueError("--heights cannot be combined with --min/--max")
            heights = np.array(_parse_list(args.heights))
            if heights.size == 0:
                raise ValueError("--heights parsed to an empty list")
            if not np.all(np.isfinite(heights)):
                raise ValueError("--heights must be finite")
        elif args.hmin is not None and args.hmax is not None:
            # Finite only if both ends are and the span does not overflow.
            if not np.isfinite(args.hmax - args.hmin):
                raise ValueError("--min and --max must be finite, and so must their span")
            if not args.hmax > args.hmin:
                raise ValueError("--max must exceed --min")
            if args.num < 2:
                raise ValueError("--num must be at least 2")
            heights = np.linspace(args.hmin, args.hmax, args.num)
        else:
            raise ValueError("supply --heights, --min and --max, or --pvalues")
        p = peak_height_right_cdf(moments, heights)
        lines = ["height,p_value"]
        lines += [f"{h!r},{v!r}" for h, v in zip(heights.tolist(), p.tolist())]
    text = "\n".join(lines)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


# ---------------------------------------------------------------------------
# dispatch


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold that into the config-error code
        return 0 if exc.code in (0, None) else 1
    try:
        # Checked before any work, so a bad combination fails at once.
        if getattr(args, "output_format", "json") != "json" and not args.output:
            raise ValueError("csv output requires --output")
        return args.func(args)
    except InvalidMomentsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SeriesFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
