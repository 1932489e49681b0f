"""Command-line front end: figure sweeps, single-point queries, config checks.

Exit codes: 0 success, 2 usage error, 3 configuration error (including an
unreadable config file or an unwritable output path), 4 numerical or
divergence error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import _deep_merge, config_from_dict, load_config, validate_config
from .energy import energy_efficiency_mc, energy_efficiency_quad
from .errors import ConfigurationError, DivergenceError, ParameterError
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcppnet",
        description="Interference, spectral-efficiency and energy-efficiency studies "
        "for hard-core random cellular networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="run a full sweep and write CSV plus metadata")
    fig.add_argument("id", type=int, choices=FIGURE_IDS, help="figure number")
    fig.add_argument("--config", help="YAML config file (defaults are built in)")
    fig.add_argument("--seed", type=int, help="master seed override")
    fig.add_argument("--out", help="output CSV path (default figure<id>.csv)")
    fig.add_argument("--reps", type=int, help="Monte Carlo effort per grid point")
    fig.add_argument("--workers", type=int, help="parallel worker processes")

    itf = sub.add_parser("interference", help="mean interference at one operating point")
    itf.add_argument("--config", help="YAML config file")
    itf.add_argument("--model", choices=MODELS, default="hcpp")
    itf.add_argument("--x-off", type=float, help="user distance from its station, meters")
    itf.add_argument("--delta", type=float, help="minimum station spacing, meters")
    itf.add_argument("--alpha", type=float, help="path-loss exponent")
    itf.add_argument("--lambda-p", type=float, help="parent station intensity per m^2")
    itf.add_argument("--mc", action="store_true", help="also run the Monte Carlo estimator")
    itf.add_argument("--reps", type=int, help="Monte Carlo realizations (with --mc)")
    itf.add_argument("--seed", type=int, help="master seed override")

    se = sub.add_parser("se", help="spectral efficiency at one operating point")
    se.add_argument("--config", help="YAML config file")
    se.add_argument("--n-t", type=int, help="station antennas")
    se.add_argument("--s", type=int, help="streams (served single-antenna users)")
    se.add_argument("--xi", type=float, default=10.0, help="large-scale SINR factor")
    se.add_argument("--draws", type=int, help="Monte Carlo channel draws")
    se.add_argument("--seed", type=int, help="master seed override")

    ee = sub.add_parser("ee", help="energy efficiency at one operating point")
    ee.add_argument("--config", help="YAML config file")
    ee.add_argument("--model", choices=MODELS, default="hcpp")
    ee.add_argument("--n-t", type=int, help="station antennas")
    ee.add_argument("--s", type=int, help="streams (served single-antenna users)")
    ee.add_argument("--x-off", type=float, help="user distance for the energy model, meters")
    ee.add_argument("--delta", type=float, help="minimum station spacing, meters")
    ee.add_argument("--theta", type=float, help="traffic heaviness index")
    ee.add_argument("--alpha", type=float, help="path-loss exponent")
    ee.add_argument("--draws", type=int, help="Monte Carlo draws")
    ee.add_argument("--seed", type=int, help="master seed override")

    val = sub.add_parser("validate", help="check a config file and report diagnostics")
    val.add_argument("--config", required=True, help="YAML config file")

    return parser


def _overrides(args: argparse.Namespace) -> dict:
    over: dict = {}

    def put(section: str, key: str, value):
        if value is not None:
            over.setdefault(section, {})[key] = value

    put("interference", "x_off", getattr(args, "x_off", None) if args.command == "interference" else None)
    put("point_process", "delta", getattr(args, "delta", None))
    put("point_process", "lambda_p", getattr(args, "lambda_p", None))
    put("channel", "alpha", getattr(args, "alpha", None))
    put("antennas", "n_t", getattr(args, "n_t", None))
    put("antennas", "s", getattr(args, "s", None))
    put("traffic", "theta", getattr(args, "theta", None))
    if args.command == "ee":
        put("energy", "x_off", getattr(args, "x_off", None))
    if getattr(args, "seed", None) is not None:
        over["seed"] = args.seed
    return over


def _load(args: argparse.Namespace):
    base = {}
    if getattr(args, "config", None):
        base = load_config(args.config).raw
    merged = base
    over = _overrides(args)
    if over:
        # re-validate the merged mapping so overrides obey the same structure checks
        merged = _deep_merge(base, over)
    return config_from_dict(merged)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_figure(args) -> int:
    cfg = _load(args)
    table = run_figure(args.id, cfg, reps=args.reps, seed=args.seed, workers=args.workers)
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
    cfg = _load(args)
    scenario = cfg.scenario()
    rng = np.random.default_rng(cfg.seed)
    reps = (args.reps or cfg.realizations) if args.mc else None
    analytic, _, est = model_interference(args.model, scenario, reps, rng)
    payload = {
        "model": args.model,
        "x_off_m": scenario.x_off,
        "delta_m": scenario.hcpp.delta,
        "alpha": scenario.channel.alpha,
        "lambda_p_per_m2": scenario.hcpp.lambda_p,
        "analytic_w": analytic,
    }
    if est is not None:
        payload.update(
            {"mc_mean_w": est.mean, "mc_std_error_w": est.std_error, "replications": est.replications}
        )
    _emit(payload)
    return EXIT_OK


def _cmd_se(args) -> int:
    cfg = _load(args)
    antennas = cfg.antennas
    xi = args.xi
    draws = args.draws or cfg.se_draws
    rng = np.random.default_rng(cfg.seed)
    est = spectral_efficiency_mc(antennas, xi, draws, rng)
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
    draws = args.draws or cfg.ee_draws
    rng = np.random.default_rng(cfg.seed)
    est = energy_efficiency_mc(
        cfg.antennas, cfg.traffic, scenario, cfg.energy, draws, rng,
        i_avg=i_avg, station_intensity=intensity,
    )
    _emit(
        {
            "model": args.model,
            "n_t": cfg.antennas.n_t,
            "s": cfg.antennas.s,
            "x_off_m": scenario.x_off,
            "theta": cfg.traffic.theta,
            "alpha": scenario.channel.alpha,
            "quad_bit_hz_j": energy_efficiency_quad(
                cfg.antennas, cfg.traffic, scenario, cfg.energy,
                i_avg=i_avg, station_intensity=intensity,
            ),
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "figure": _cmd_figure,
        "interference": _cmd_interference,
        "se": _cmd_se,
        "ee": _cmd_ee,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
