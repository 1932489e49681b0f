"""Command-line front end: figure sweeps, single-point queries, config checks.

Exit codes: 0 success, 2 usage error, 3 configuration error (including an
unreadable config file or an unwritable output path), 4 numerical or
divergence error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .config import _read_yaml, config_from_dict, key_type, validate_config
from .energy import energy_efficiency_mc, energy_efficiency_quad
from .errors import ConfigurationError, DivergenceError, ParameterError, check
from .figures import FIGURE_IDS, run_figure
from .interference import MODELS, model_interference
from .zf_capacity import (
    spectral_efficiency_bound,
    spectral_efficiency_exact,
    spectral_efficiency_mc,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CONFIG = 3
EXIT_NUMERICAL = 4


def _override(parser: argparse.ArgumentParser, flag: str, key: str, text: str) -> None:
    """Declare ``flag`` as the override of config ``key``, such as ``channel/alpha``, at dest ``/key``.

    The flag parses its value to the type the config states for ``key``.
    """
    metavar = flag.lstrip("-").upper().replace("-", "_")
    parser.add_argument(flag, dest="/" + key, type=key_type(key), metavar=metavar, help=f"{text}; sets {key}")


@functools.cache  # built once per process: parsing does not change the parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcppnet",
        description="Interference, spectral-efficiency and energy-efficiency studies "
        "for hard-core random cellular networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="YAML config file (defaults are built in)")
    _override(common, "--seed", "seed", "master seed")

    fig = sub.add_parser("figure", parents=[common], help="run a full sweep and write CSV plus metadata")
    fig.set_defaults(handler=_cmd_figure)
    fig.add_argument("id", type=int, choices=FIGURE_IDS, help="figure number")
    fig.add_argument("--out", help="output CSV path (default figure<id>.csv)")
    fig.add_argument("--reps", type=int, help="Monte Carlo effort per grid point")
    fig.add_argument("--workers", type=int, help="parallel worker processes")

    itf = sub.add_parser("interference", parents=[common], help="mean interference at one operating point")
    itf.set_defaults(handler=_cmd_interference)
    itf.add_argument("--model", choices=MODELS, default="hcpp")
    _override(itf, "--x-off", "interference/x_off", "user distance from its station, meters")
    _override(itf, "--delta", "point_process/delta", "minimum station spacing, meters")
    _override(itf, "--alpha", "channel/alpha", "path-loss exponent")
    _override(itf, "--lambda-p", "point_process/lambda_p", "parent station intensity per m^2")
    itf.add_argument("--mc", action="store_true", help="also run the Monte Carlo estimator")
    _override(itf, "--reps", "interference/realizations", "Monte Carlo realizations (with --mc)")

    se = sub.add_parser("se", parents=[common], help="spectral efficiency at one operating point")
    se.set_defaults(handler=_cmd_se)
    _override(se, "--n-t", "antennas/n_t", "station antennas")
    _override(se, "--s", "antennas/s", "streams (served single-antenna users)")
    se.add_argument("--xi", type=float, default=10.0, help="large-scale SINR factor")
    _override(se, "--draws", "mc/se_draws", "Monte Carlo channel draws")

    ee = sub.add_parser("ee", parents=[common], help="energy efficiency at one operating point")
    ee.set_defaults(handler=_cmd_ee)
    ee.add_argument("--model", choices=MODELS, default="hcpp")
    _override(ee, "--n-t", "antennas/n_t", "station antennas")
    _override(ee, "--s", "antennas/s", "streams (served single-antenna users)")
    _override(ee, "--x-off", "energy/x_off", "user distance for the energy model, meters")
    _override(ee, "--delta", "point_process/delta", "minimum station spacing, meters")
    _override(ee, "--theta", "traffic/theta", "traffic heaviness index")
    _override(ee, "--alpha", "channel/alpha", "path-loss exponent")
    _override(ee, "--draws", "mc/ee_draws", "Monte Carlo draws")

    val = sub.add_parser("validate", help="check a config file and report diagnostics")
    val.set_defaults(handler=_cmd_validate)
    val.add_argument("--config", required=True, help="YAML config file")

    return parser


def _load(args: argparse.Namespace):
    """The config file's mapping (or none) with every override flag given written over it, resolved once."""
    raw = _read_yaml(args.config) if args.config else {}
    for dest, value in vars(args).items():
        if dest.startswith("/") and value is not None:
            *sections, key = dest[1:].split("/")
            node = raw
            for section in sections:
                node = node.setdefault(section, {}) if isinstance(node, dict) else None
            if isinstance(node, dict):  # else the config reports the non-mapping in its place
                node[key] = value
    return config_from_dict(raw)


def _emit(payload: dict) -> None:
    """Print ``payload`` as JSON, with ``null`` for a non-finite number such as an unknown standard error."""
    finite = {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in payload.items()}
    print(json.dumps(finite, indent=2, sort_keys=True))


def _cmd_figure(args) -> int:
    if args.reps is not None:  # rejected before any work, under the flag's own name
        check("--reps", args.reps, (">=", 1))
    cfg = _load(args)
    table = run_figure(args.id, cfg, reps=args.reps, workers=args.workers)
    out = args.out or (cfg.out_path or f"figure{args.id}.csv")
    meta = out[:-4] + ".meta.json" if out.endswith(".csv") else out + ".meta.json"
    try:
        table.write_csv(out)
        table.write_metadata(meta)
    except OSError as exc:
        raise ConfigurationError(f"cannot write figure output: {exc}") from exc
    print(f"wrote {out} ({len(table.rows)} rows) and {meta}")
    return EXIT_OK


def _cmd_interference(args) -> int:
    if vars(args)["/interference/realizations"] is not None and not args.mc:
        print("error: --reps sets the Monte Carlo realizations and needs --mc", file=sys.stderr)
        return EXIT_USAGE
    cfg = _load(args)
    scenario = cfg.scenario()
    reps = cfg.realizations if args.mc else None
    analytic, _, est = model_interference(args.model, scenario, reps, np.random.default_rng(cfg.seed))
    payload = {
        "model": args.model,
        "x_off_m": scenario.x_off,
        "delta_m": scenario.hcpp.delta,
        "alpha": scenario.channel.alpha,
        "lambda_p_per_m2": scenario.hcpp.lambda_p,
        "analytic_w": analytic,
    }
    if est is not None:
        payload.update(mc_mean_w=est.mean, mc_std_error_w=est.std_error, replications=est.replications)
    _emit(payload)
    return EXIT_OK


def _cmd_se(args) -> int:
    cfg = _load(args)
    antennas, xi = cfg.antennas, args.xi
    est = spectral_efficiency_mc(antennas, xi, cfg.se_draws, np.random.default_rng(cfg.seed))
    _emit(
        {
            "n_t": antennas.n_t,
            "s": antennas.s,
            "xi": xi,
            "bound_bit_s_hz": spectral_efficiency_bound(antennas, xi),
            "exact_bit_s_hz": spectral_efficiency_exact(antennas, xi),
            "mc_mean_bit_s_hz": est.mean,
            "mc_std_error": est.std_error,
            "draws": est.replications,
        }
    )
    return EXIT_OK


def _cmd_ee(args) -> int:
    cfg = _load(args)
    scenario = cfg.ee_scenario()
    i_avg, intensity, _ = model_interference(args.model, scenario)
    inputs = (cfg.antennas, cfg.traffic, scenario, cfg.energy)
    per_curve = {"i_avg": i_avg, "station_intensity": intensity}
    est = energy_efficiency_mc(*inputs, cfg.ee_draws, np.random.default_rng(cfg.seed), **per_curve)
    _emit(
        {
            "model": args.model,
            "n_t": cfg.antennas.n_t,
            "s": cfg.antennas.s,
            "x_off_m": scenario.x_off,
            "theta": cfg.traffic.theta,
            "alpha": scenario.channel.alpha,
            "quad_bit_hz_j": energy_efficiency_quad(*inputs, **per_curve),
            "mc_bit_hz_j": est.mean,
            "mc_std_error": est.std_error,
            "draws": est.replications,
        }
    )
    return EXIT_OK


def _cmd_validate(args) -> int:
    diagnostics = validate_config(args.config)
    if not diagnostics:
        print("configuration OK")
        return EXIT_OK
    for line in diagnostics:
        print(f"error: {line}", file=sys.stderr)
    return EXIT_CONFIG


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigurationError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
