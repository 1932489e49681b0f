"""Reproduction sweeps: paired analytic and Monte Carlo columns per study.

Each supported figure id maps to a sweep (interference versus user offset,
spectral efficiency versus the SINR factor, energy efficiency versus
antenna counts) evaluated on a deterministic per-point seed lattice, so a
run is reproducible bit-for-bit regardless of worker count.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from importlib import metadata as _im

import numpy as np

from .config import ExperimentConfig, load_config
from .energy import EnergyModel, TrafficModel, energy_efficiency_mc, energy_efficiency_quad
from .errors import ConfigurationError, ParameterError
from .interference import MODELS, InterferenceScenario, model_interference
from .point_process import HcppParams
from .zf_capacity import AntennaConfig, spectral_efficiency_bound, spectral_efficiency_mc

__all__ = ["FIGURE_IDS", "ResultRow", "ResultTable", "run_figure"]

try:
    _VERSION = _im.version("hcppnet")
except _im.PackageNotFoundError:
    _VERSION = "0.0.0"


@dataclass(frozen=True)
class ResultRow:
    series: str
    sweep_value: float
    analytic: float
    mc_mean: float
    mc_std_error: float
    replications: int
    units: str


@dataclass
class ResultTable:
    figure_id: int
    axis: str
    rows: list[ResultRow]
    metadata: dict = field(default_factory=dict)

    CSV_HEADER = ("series", "sweep_value", "analytic", "mc_mean", "mc_std_error", "replications", "units")

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.CSV_HEADER)
            for row in self.rows:
                writer.writerow(
                    (
                        row.series,
                        repr(float(row.sweep_value)),
                        repr(float(row.analytic)),
                        repr(float(row.mc_mean)),
                        repr(float(row.mc_std_error)),
                        row.replications,
                        row.units,
                    )
                )

    def write_metadata(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.metadata, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _rng_for(master: int, figure_id: int, series_idx: int, point_idx: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master, spawn_key=(figure_id, series_idx, point_idx))
    return np.random.Generator(np.random.PCG64(seq))


@dataclass(frozen=True)
class Series:
    """One curve of a figure: its label and what it changes in the configured scenario.

    ``label`` is a format template over the curve's resolved ``model``,
    ``alpha``, ``delta``, ``lambda_p``, ``theta``, ``n_t`` and ``s``.  Unset
    fields keep the configured value; ``n_t`` and ``s`` fix the antennas
    where the sweep axis does not.
    """

    label: str
    model: str = "hcpp"
    alpha: float | None = None
    delta: float | None = None
    lambda_scale: float = 1.0
    theta: float | None = None
    n_t: int | None = None
    s: int | None = None


@dataclass(frozen=True)
class FigureSpec:
    """A figure: the quantity it compares on both routes, its sweep axis and default grid, its curves.

    ``kind`` is ``"itf"`` (mean interference, over ``x_off``), ``"se"``
    (spectral efficiency, over ``xi``) or ``"ee"`` (energy efficiency, over
    the stream count ``s`` or the common antenna and stream count ``n``).
    """

    kind: str
    axis: str
    grid: tuple[float, ...]
    series: tuple[Series, ...]


_XI_GRID = tuple(np.logspace(-2.0, 4.0, 13))
_N_GRID = tuple(float(n) for n in range(1, 17))

FIGURES: dict[int, FigureSpec] = {
    2: FigureSpec("itf", "x_off", tuple(50.0 * k for k in range(1, 9)), tuple(
        Series("{model} alpha={alpha:g}", m, alpha=a) for a in (3.4, 3.8, 4.2) for m in MODELS
    )),
    3: FigureSpec("itf", "x_off", tuple(40.0 * k for k in range(8)), tuple(
        Series("hcpp delta={delta:g}", delta=d) for d in (300.0, 400.0, 500.0)
    )),
    4: FigureSpec("itf", "x_off", tuple(50.0 * k for k in range(9)), tuple(
        Series("hcpp lambda_p={lambda_p:.4e}", lambda_scale=f) for f in (0.5, 1.0, 2.0)
    )),
    6: FigureSpec("se", "xi", _XI_GRID, tuple(Series("n_t={n_t}", n_t=n, s=1) for n in (2, 4, 8))),
    7: FigureSpec("se", "xi", _XI_GRID, tuple(Series("s={s}", n_t=8, s=s) for s in (1, 2, 4, 8))),
    # the grid of a curve stops at its antenna count
    8: FigureSpec("ee", "s", _N_GRID, tuple(
        Series("{model} n_t={n_t}", m, n_t=n) for n in (8, 12, 16) for m in MODELS
    )),
    # station spacing does not enter the Poisson baseline, so one curve
    9: FigureSpec("ee", "n", _N_GRID, tuple(
        Series("hcpp delta={delta:g}", delta=d) for d in (300.0, 400.0, 500.0)
    ) + (Series("ppp", "ppp"),)),
    10: FigureSpec("ee", "n", _N_GRID, tuple(
        Series("{model} theta={theta:g}", m, theta=t) for t in (1.2, 1.5, 1.8) for m in MODELS
    )),
    11: FigureSpec("ee", "n", _N_GRID, tuple(
        Series("{model} alpha={alpha:g}", m, alpha=a) for a in (3.8, 4.0, 4.2) for m in MODELS
    )),
}

FIGURE_IDS = tuple(FIGURES)

_UNITS = {"itf": "W", "se": "bit/s/Hz", "ee": "bit/Hz/J"}


@dataclass(frozen=True)
class Task:
    """One grid point of one curve, with everything both routes need to evaluate it."""

    kind: str
    label: str
    seed_key: tuple[int, int, int, int]
    sweep_value: float
    reps: int
    model: str
    scenario: InterferenceScenario
    antennas: AntennaConfig | None
    traffic: TrafficModel
    energy: EnergyModel
    i_avg: float | None
    station_intensity: float | None


def _eval_task(task: Task) -> ResultRow:
    rng = _rng_for(*task.seed_key)
    if task.kind == "itf":
        analytic, _, est = model_interference(task.model, task.scenario, task.reps, rng)
    elif task.kind == "se":
        analytic = spectral_efficiency_bound(task.antennas, task.sweep_value)
        est = spectral_efficiency_mc(task.antennas, task.sweep_value, task.reps, rng)
    else:
        inputs = (task.antennas, task.traffic, task.scenario, task.energy)
        per_curve = {"i_avg": task.i_avg, "station_intensity": task.station_intensity}
        analytic = energy_efficiency_quad(*inputs, **per_curve)
        est = energy_efficiency_mc(*inputs, task.reps, rng, **per_curve)
    return ResultRow(
        series=task.label,
        sweep_value=task.sweep_value,
        analytic=float(analytic),
        mc_mean=est.mean,
        mc_std_error=est.std_error,
        replications=est.replications,
        units=_UNITS[task.kind],
    )


def _grid(cfg: ExperimentConfig, axis: str, default: tuple[float, ...]) -> list[float]:
    if cfg.sweep_axis is None:
        return list(default)
    if cfg.sweep_axis != axis:
        raise ConfigurationError(
            f"config sweep axis {cfg.sweep_axis!r} does not match this figure's axis {axis!r}"
        )
    return list(cfg.sweep_values)


def _point(axis: str, series: Series, scenario: InterferenceScenario, value: float):
    """Scenario and antenna counts at one value of the sweep axis."""
    if axis == "x_off":
        return replace(scenario, x_off=value), None
    if axis in ("n", "s"):
        if not float(value).is_integer():
            raise ConfigurationError(f"sweep axis {axis!r} counts antennas; {value!r} is not an integer")
        return scenario, AntennaConfig(int(value) if axis == "n" else series.n_t, int(value))
    return scenario, AntennaConfig(series.n_t, series.s)  # xi: the curve fixes the antennas


def _tasks(figure_id: int, cfg: ExperimentConfig, reps: int | None, master_seed: int) -> list[Task]:
    """Expand a figure's spec into its tasks, curve by curve, in grid order.

    A curve's index in the spec and a point's index in its grid key the
    point's random stream.  Energy curves evaluate the mean interference and
    the station intensity once per curve, since neither depends on the grid.
    """
    spec = FIGURES[figure_id]
    grid = _grid(cfg, spec.axis, spec.grid)
    base = cfg.ee_scenario() if spec.kind == "ee" else cfg.scenario()
    if reps is None:
        reps = {"itf": cfg.realizations, "se": cfg.se_draws, "ee": cfg.ee_draws}[spec.kind]
    tasks: list[Task] = []
    for series_idx, series in enumerate(spec.series):
        hcpp = HcppParams(base.hcpp.lambda_p * series.lambda_scale, series.delta or base.hcpp.delta)
        channel = replace(base.channel, alpha=series.alpha or base.channel.alpha)
        scenario = replace(base, hcpp=hcpp, channel=channel)
        traffic = replace(cfg.traffic, theta=series.theta or cfg.traffic.theta)
        label = series.label.format(
            model=series.model,
            alpha=channel.alpha,
            delta=hcpp.delta,
            lambda_p=hcpp.lambda_p,
            theta=traffic.theta,
            n_t=series.n_t,
            s=series.s,
        )
        values = [v for v in grid if spec.axis != "s" or v <= series.n_t]
        if not values:
            raise ConfigurationError(f"sweep grid has no feasible stream counts for n_t={series.n_t}")
        i_avg = intensity = None
        if spec.kind == "ee":
            i_avg, intensity, _ = model_interference(series.model, scenario)
        for point_idx, value in enumerate(values):
            point_scenario, antennas = _point(spec.axis, series, scenario, value)
            tasks.append(
                Task(
                    kind=spec.kind,
                    label=label,
                    seed_key=(master_seed, figure_id, series_idx, point_idx),
                    sweep_value=float(value),
                    reps=reps,
                    model=series.model,
                    scenario=point_scenario,
                    antennas=antennas,
                    traffic=traffic,
                    energy=cfg.energy,
                    i_avg=i_avg,
                    station_intensity=intensity,
                )
            )
    return tasks


def _resolve_workers(workers: int | None, figure_id: int, n_tasks: int) -> int:
    if workers is None:
        # pattern-level Monte Carlo dominates the interference figures; fan those out
        workers = min(4, os.cpu_count() or 1) if FIGURES[figure_id].kind == "itf" else 1
    if workers < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {workers}")
    return min(workers, n_tasks)


def run_figure(
    figure_id: int,
    cfg: ExperimentConfig | None = None,
    reps: int | None = None,
    seed: int | None = None,
    workers: int | None = None,
) -> ResultTable:
    """Produce the data table behind one figure.

    ``reps`` overrides the per-point Monte Carlo effort, ``seed`` the
    config's master seed, ``workers`` the process fan-out (default: up to
    four for the interference figures, else one).  Identical inputs give an
    identical table regardless of worker count.
    """
    if figure_id not in FIGURE_IDS:
        raise ParameterError(f"unknown figure id {figure_id}; supported: {FIGURE_IDS}")
    if cfg is None:
        cfg = load_config(None)
    master_seed = cfg.seed if seed is None else int(seed)
    axis = FIGURES[figure_id].axis
    tasks = _tasks(figure_id, cfg, reps, master_seed)

    n_workers = _resolve_workers(workers, figure_id, len(tasks))
    if n_workers > 1:
        try:
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                rows = list(pool.map(_eval_task, tasks))
        except OSError:
            rows = [_eval_task(t) for t in tasks]
    else:
        rows = [_eval_task(t) for t in tasks]

    metadata = {
        "figure": figure_id,
        "axis": axis,
        "seed": master_seed,
        "workers_affect_output": False,
        "package_version": _VERSION,
        "series": list(dict.fromkeys(r.series for r in rows)),
        "units": rows[0].units if rows else None,
        "columns": list(ResultTable.CSV_HEADER),
        "config": cfg.raw,
    }
    return ResultTable(figure_id=figure_id, axis=axis, rows=rows, metadata=metadata)
