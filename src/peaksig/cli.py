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

import numpy as np

from .detector import DetectorConfig, _kernel_for, detect, estimate_smoothed_moments
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
    GaussianModelParams,
    InvalidMomentsError,
    SpectralMoments,
    gaussian_model_moments,
    peak_height_right_cdf,
    peak_height_right_cdf_inverse,
)
from .series import Grid
from .smoothing import convolve

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
        choices=tuple(sorted(ESTIMATORS)),
        help="moment estimator when moments are not supplied directly",
    )
    p.add_argument("--sigma2", type=float, help="known smoothed variance")
    p.add_argument("--lambda2", type=float, help="known second spectral moment")
    p.add_argument("--lambda4", type=float, help="known fourth spectral moment")
    p.add_argument(
        "--noise-sigma", type=float, help="known pre-smoothing noise level"
    )
    p.add_argument(
        "--noise-nu", type=float, help="known noise autocorrelation bandwidth"
    )
    p.add_argument("--kernel-truncation", type=float, help="kernel support, in bandwidths")
    p.add_argument(
        "--no-subtract-mean",
        action="store_true",
        help="skip centering the series before smoothing",
    )
    _add_output_args(p)
    p.set_defaults(func=_cmd_detect)

    p = commands.add_parser("simulate", help="run a Monte Carlo study")
    p.add_argument("--config", required=True, help="JSON study description")
    p.add_argument("--seed", type=int, required=True, help="base seed for noise draws")
    p.add_argument("--replications", type=int, help="override replication count")
    p.add_argument("--gammas", help="override bandwidth grid, comma separated")
    p.add_argument("--alpha", type=float, help="override error budget")
    p.add_argument("--methods", help="override procedures, comma separated")
    p.add_argument(
        "--workers",
        type=int,
        help="worker processes (default: PEAKSIG_WORKERS or 1)",
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
# detect


def _moments_source_from_json(value):
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        if {"sigma2", "lambda2", "lambda4"} <= set(value):
            return SpectralMoments(
                float(value["sigma2"]), float(value["lambda2"]), float(value["lambda4"])
            )
        if "sigma" in value:
            return NoiseSpec(float(value["sigma"]), float(value.get("nu", 0.0)))
    raise ValueError(
        "moments_source must be an estimator name, a sigma2/lambda2/lambda4 "
        "object, or a sigma/nu object"
    )


def _detector_config(args) -> DetectorConfig:
    settings: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError("detector config must be a JSON object")
        known = {"gamma", "alpha", "method", "moments_source", "kernel_truncation", "subtract_mean"}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown detector config keys: {sorted(unknown)}")
        settings.update(raw)
        if "moments_source" in settings:
            settings["moments_source"] = _moments_source_from_json(
                settings["moments_source"]
            )
    triple = (args.sigma2, args.lambda2, args.lambda4)
    if any(v is not None for v in triple):
        if any(v is None for v in triple):
            raise ValueError("--sigma2, --lambda2, --lambda4 must be given together")
        settings["moments_source"] = SpectralMoments(*triple)
    elif args.noise_sigma is not None:
        settings["moments_source"] = NoiseSpec(
            args.noise_sigma, args.noise_nu if args.noise_nu is not None else 0.0
        )
    elif args.moments is not None:
        settings["moments_source"] = args.moments
    if args.gamma is not None:
        settings["gamma"] = args.gamma
    if args.alpha is not None:
        settings["alpha"] = args.alpha
    if args.method is not None:
        settings["method"] = args.method
    if args.kernel_truncation is not None:
        settings["kernel_truncation"] = args.kernel_truncation
    if args.no_subtract_mean:
        settings["subtract_mean"] = False
    if "gamma" not in settings:
        raise ValueError("a smoothing bandwidth is required (--gamma or config file)")
    return DetectorConfig(**settings)


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


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


def _sim_config(args) -> SimConfig:
    with open(args.config, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("simulation config must be a JSON object")
    overrides: dict = {"base_seed": args.seed}
    if args.replications is not None:
        overrides["replications"] = args.replications
    if args.gammas is not None:
        overrides["gammas"] = _parse_float_list(args.gammas)
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.methods is not None:
        overrides["methods"] = tuple(
            part.strip() for part in args.methods.split(",") if part.strip()
        )
    workers = args.workers
    if workers is None:
        workers = int(os.environ.get("PEAKSIG_WORKERS", "1"))
    overrides["workers"] = workers
    shared = {
        key: raw[key]
        for key in (
            "gammas",
            "alpha",
            "methods",
            "replications",
            "base_seed",
            "kernel_truncation",
            "workers",
        )
        if key in raw
    }
    if "gammas" in shared:
        shared["gammas"] = tuple(float(g) for g in shared["gammas"])
    if "methods" in shared:
        shared["methods"] = tuple(shared["methods"])
    if "design" in raw:
        unknown = set(raw) - set(shared) - {"design"}
        if unknown:
            raise ValueError(f"unknown simulation config keys: {sorted(unknown)}")
        config = standard_design(**raw["design"], **shared)
    else:
        try:
            sig = raw["signal"]
            peaks = tuple((float(a), float(t)) for a, t in sig["peaks"])
            signal = SignalSpec(
                peaks,
                float(sig["peak_scale"]),
                float(sig.get("peak_truncation", 2.0)),
            )
            noi = raw["noise"]
            noise = NoiseSpec(float(noi["sigma"]), float(noi.get("nu", 0.0)))
            gr = raw["grid"]
            grid = Grid(
                int(gr["length"]),
                float(gr.get("spacing", 1.0)),
                float(gr.get("origin", 0.0)),
            )
            # The bandwidth grid may arrive via --gammas instead of the file.
            shared.setdefault("gammas", overrides.get("gammas", ()))
        except KeyError as exc:
            raise ValueError(f"simulation config missing key: {exc}") from None
        if "peak_spacing" in raw:
            shared["peak_spacing"] = float(raw["peak_spacing"])
        config = SimConfig(signal=signal, noise=noise, grid=grid, **shared)
    import dataclasses

    return dataclasses.replace(config, **overrides)


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
        series = convolve(series, _kernel_for(series, args.gamma))
    estimate = estimate_smoothed_moments(
        series, args.estimator, args.gamma, args.lag_window
    )
    payload = {
        "estimator": estimate.method,
        "gamma": args.gamma,
        "num_samples": len(series) - 2 * series.boundary,
        "moments": {
            "sigma2": estimate.moments.sigma2,
            "lambda2": estimate.moments.lambda2,
            "lambda4": estimate.moments.lambda4,
        },
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
    triple = (args.sigma2, args.lambda2, args.lambda4)
    if any(v is not None for v in triple):
        if any(v is None for v in triple):
            raise ValueError("--sigma2, --lambda2, --lambda4 must be given together")
        moments = SpectralMoments(*triple)
    elif args.gamma is not None:
        moments = gaussian_model_moments(
            GaussianModelParams(
                sigma=args.sigma if args.sigma is not None else 1.0,
                nu=args.nu if args.nu is not None else 0.0,
                gamma=args.gamma,
            )
        )
    else:
        raise ValueError(
            "supply moments directly (--sigma2/--lambda2/--lambda4) or via the "
            "closed-form model (--gamma with optional --sigma/--nu)"
        )
    moments.validate()
    if args.pvalues is not None:
        if args.heights is not None or args.hmin is not None or args.hmax is not None:
            raise ValueError("--pvalues cannot be combined with a height grid")
        ps = _parse_float_list(args.pvalues)
        if not ps:
            raise ValueError("--pvalues parsed to an empty list")
        us = [peak_height_right_cdf_inverse(moments, p) for p in ps]
        lines = ["p_value,height"]
        lines += [f"{p!r},{u!r}" for p, u in zip(ps, us)]
    else:
        if args.heights is not None:
            heights = np.array(_parse_float_list(args.heights))
            if heights.size == 0:
                raise ValueError("--heights parsed to an empty list")
        elif args.hmin is not None and args.hmax is not None:
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
