"""Command line interface.

Subcommands
-----------
detect            run the detection pipeline on a sampled series
simulate          Monte Carlo error/power study from a JSON config
estimate-moments  report spectral moment estimates for a series
pvalue-table      tabulate peak-height p-values (or inverse) for given moments

A config file is read by the field types of ``DetectorConfig``,
``SimConfig`` and, for a design, ``standard_design``: a nested spec from
an object, a tuple from a list (a pair from two items), a float or an int
from a number but never a boolean (nor, for a float, an integer past the
float range), a bool or a str only from its own JSON type. Flags a chosen mode would ignore are refused. Every command writes
its output through :mod:`peaksig.io`.

Exit codes: 0 success, 1 usage or configuration error, 2 unreadable or
malformed input data, 3 degenerate moment estimates.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import MISSING, asdict, fields, is_dataclass
from types import NoneType, UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .detector import DetectorConfig, _resolve_moments, _smooth, detect, estimate_smoothed_moments
from .evaluation import SimConfig, run_simulation, standard_design
from .io import (
    SeriesFormatError,
    load_series,
    write_detection_report,
    write_json,
    write_sim_report,
    write_table,
)
from .model import NoiseSpec
from .moments_est import ESTIMATORS
from .mtp import _METHODS
from .nulldist import (
    InvalidMomentsError,
    SpectralMoments,
    peak_height_right_cdf,
    peak_height_right_cdf_inverse,
)

__all__ = ["main", "entry_point"]


def _add_input_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="path to the sampled series")
    sub.add_argument(
        "--format",
        choices=("plain", "csv"),
        default="plain",
        help="input layout: one value per line, or time,value rows",
    )
    sub.add_argument("--spacing", type=float, help="sample spacing (plain format; default 1)")
    sub.add_argument("--origin", type=float, help="time of first sample (plain format; default 0)")


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
    parser.add_argument("--version", action="version", version=f"peaksig {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("detect", help="detect peaks in a sampled series")
    _add_input_args(p)
    p.add_argument("--config", help="JSON file with detector settings")
    p.add_argument("--gamma", type=float, help="smoothing bandwidth")
    p.add_argument("--alpha", type=float, help="error budget (default 0.05)")
    p.add_argument("--method", choices=tuple(_METHODS), help="testing procedure")
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
    p.add_argument("--num", type=int, help="grid size (default 50)")
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


# The design layout's parameters and the study fields it passes on.
_DESIGN_KINDS = get_type_hints(SimConfig) | get_type_hints(standard_design)
del _DESIGN_KINDS["return"]


def _fits(kind, value) -> bool:
    """Whether ``value`` is a JSON value that a field of type ``kind`` is read from."""
    if is_dataclass(kind):
        return isinstance(value, (dict, kind))
    if get_origin(kind) is tuple:
        items = get_args(kind)
        if not isinstance(value, (list, tuple)):
            return False
        return items[-1] is Ellipsis or len(value) == len(items)
    if kind in (float, int):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, kind)


def _named(kind) -> str:
    """How an error names the JSON values a field of type ``kind`` is read from."""
    if get_origin(kind) is tuple:
        items = get_args(kind)
        return "a list" if items[-1] is Ellipsis else f"a list of {len(items)} items"
    if is_dataclass(kind):
        return "a JSON object"
    return {bool: "a boolean", str: "a string"}.get(kind, "a number")


def _read(kind, value, where: str, key: str):
    """``value``, the key ``key`` of ``where``, read as the type ``kind`` by the
    rules in the module docstring; a float field turns a JSON ``1`` into ``1.0``,
    a built spec is taken as it is, and a union reads ``value`` as its first
    member that fits."""
    members = get_args(kind) if get_origin(kind) in (Union, UnionType) else (kind,)
    fit = next((m for m in members if _fits(m, value)), None)
    if fit is None and not is_dataclass(kind):  # _from_json refuses a non-object itself
        named = " or ".join(dict.fromkeys(_named(m) for m in members if m is not NoneType))
        raise ValueError(f"{where} key {key!r} must be {named}, got {json.dumps(value)}")
    kind = fit or kind
    if is_dataclass(kind):
        return value if isinstance(value, kind) else _from_json(kind, value, key)
    if get_origin(kind) is tuple:
        items = get_args(kind)
        items = items[:1] * len(value) if items[-1] is Ellipsis else items
        pairs = enumerate(zip(items, value))
        return tuple(_read(item, v, where, f"{key}[{i}]") for i, (item, v) in pairs)
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{where} key {key!r} is too large: it does not fit in a float") from None


def _read_fields(kinds: dict, block: dict, where: str) -> dict:
    """``block``, each key ``kinds`` knows read by :func:`_read`; the caller refuses the rest."""
    return {k: _read(kinds[k], v, where, k) if k in kinds else v for k, v in block.items()}


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
    return cls(**_read_fields(get_type_hints(cls), block, where))


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
        raise ValueError("sigma2, lambda2, lambda4 must be given together, without sigma or nu")
    cls = SpectralMoments if _TRIPLE & set(given) else NoiseSpec
    return _from_json(cls, given, "moments_source")


def _given(args, names) -> dict:
    """The flags, by destination among ``names``, that were given."""
    return {k: getattr(args, k) for k in names if getattr(args, k, None) is not None}


# ---------------------------------------------------------------------------
# detect


def _refuse_with(mode: str, flags) -> None:
    """Refuse the given ``flags``, spelled as typed, beside ``mode``, which ignores them."""
    if flags:
        raise ValueError(f"{mode} cannot be combined with {', '.join(flags)}")


def _detector_config(args) -> DetectorConfig:
    flags = _given(args, _SOURCE_KEYS)
    if args.moments_source is not None:
        named = [f"--noise-{k}" if k in _names(NoiseSpec) else f"--{k}" for k in sorted(flags)]
        _refuse_with("--moments", named)
    settings = _load_json_object(args.config, "detector config") if args.config else {}
    settings.update(_given(args, _names(DetectorConfig)))
    source = flags or settings.get("moments_source")
    if isinstance(source, dict):
        settings["moments_source"] = _moments_source(source)
    if "gamma" not in settings:
        raise ValueError("a smoothing bandwidth is required (--gamma or config file)")
    return _from_json(DetectorConfig, settings, "detector config")


def _series(args):
    """The input series; a csv file carries its times, so --spacing and --origin are refused."""
    grid = _given(args, ("spacing", "origin"))
    if args.format == "csv":
        _refuse_with("--format csv", [f"--{k}" for k in sorted(grid)])
    return load_series(args.input, args.format, **grid)


def _cmd_detect(args) -> int:
    config = _detector_config(args)
    result = detect(_series(args), config)
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
    report = run_simulation(_sim_config(args))
    write_sim_report(report, args.output or sys.stdout, fmt=args.output_format)
    return 0


# ---------------------------------------------------------------------------
# estimate-moments


def _cmd_estimate(args) -> int:
    # detect's settings, checked before the input is read, then its smoothing
    config = args.gamma is not None and DetectorConfig(args.gamma, moments_source=args.estimator)
    series = _series(args)
    if config:
        series, _ = _smooth(series, config)
    moments, diagnostics = estimate_smoothed_moments(series, args.estimator)
    reason = None
    try:
        moments.validate()
    except InvalidMomentsError as exc:
        reason = str(exc)
    payload = {
        "estimator": args.estimator,
        "gamma": args.gamma,
        "num_samples": diagnostics["n"],
        "moments": asdict(moments),
        "degenerate": reason is not None,
        "diagnostics": diagnostics,
        "reason": reason,
    }
    write_json(payload, args.output or sys.stdout)
    if reason is not None:
        raise InvalidMomentsError(f"degenerate moment estimate: {reason}")
    return 0


# ---------------------------------------------------------------------------
# pvalue-table


def _cmd_pvalue_table(args) -> int:
    source = _moments_source(_given(args, _SOURCE_KEYS))
    if isinstance(source, SpectralMoments):
        _refuse_with("--sigma2/--lambda2/--lambda4", [f"--{k}" for k in _given(args, ("gamma",))])
    elif args.gamma is None:
        raise ValueError(
            "supply moments directly (--sigma2/--lambda2/--lambda4) or via the "
            "closed-form model (--gamma with optional --sigma/--nu)"
        )
    moments = _resolve_moments(source or NoiseSpec(), args.gamma)
    if args.num is not None and (args.hmin is None or args.hmax is None):
        raise ValueError("--num needs --min and --max")
    if args.pvalues is not None:
        if args.heights is not None or args.hmin is not None or args.hmax is not None:
            raise ValueError("--pvalues cannot be combined with a height grid")
        ps = _parse_list(args.pvalues)
        if not ps:
            raise ValueError("--pvalues parsed to an empty list")
        header = ("p_value", "height")
        rows = [(p, peak_height_right_cdf_inverse(moments, p)) for p in ps]
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
            num = 50 if args.num is None else args.num
            if num < 2:
                raise ValueError("--num must be at least 2")
            heights = np.linspace(args.hmin, args.hmax, num)
        else:
            raise ValueError("supply --heights, --min and --max, or --pvalues")
        header = ("height", "p_value")
        rows = zip(heights.tolist(), peak_height_right_cdf(moments, heights).tolist())
    write_table(header, rows, args.output or sys.stdout)
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
    except (SeriesFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
