"""Reproduction sweeps: paired analytic and Monte Carlo columns per study.

Each supported figure id maps to a sweep (interference versus user offset,
spectral efficiency versus the SINR factor, energy efficiency versus
antenna counts) evaluated on deterministic seeds, so a run is reproducible
bit-for-bit regardless of worker count.  Rows share their Monte Carlo
draws: all rows of an energy-efficiency figure share one draw set, the
rows of one spectral-efficiency curve share one gain matrix, and the rows
of an interference figure that share a parent intensity (a lambda family)
share one layout set.  Rows that share draws are correlated: they are
compared on common random numbers, and no row is independent of another
row drawn from the same set.
"""

from __future__ import annotations

import csv
import functools
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ExperimentConfig, load_config
from .energy import EnergyModel, TrafficModel, _shared_draw_terms, energy_efficiency_quad
from .errors import ConfigurationError, ParameterError, check
from .interference import (
    _SPAWN_CHUNK,
    MODELS,
    Estimate,
    InterferenceScenario,
    _influence,
    _mc_row,
    _tagged_station_mc,
    model_interference,
)
from .point_process import HcppParams
from .zf_capacity import AntennaConfig, _se_estimates, spectral_efficiency_bound

__all__ = ["FIGURE_IDS", "ResultRow", "ResultTable", "run_figure"]


@functools.cache
def _package_version() -> str:
    """The installed package's version, or ``0.0.0`` in a source tree; read on a figure's first run."""
    from importlib import metadata

    try:
        return metadata.version("hcppnet")
    except metadata.PackageNotFoundError:
        return "0.0.0"


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


def _rng_for(master: int, *spawn_key: int, spawned: int = 0) -> np.random.Generator:
    """The stream of a seed key; its next ``spawn`` starts at child ``spawned``."""
    seq = np.random.SeedSequence(entropy=master, spawn_key=spawn_key, n_children_spawned=spawned)
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
    """One grid point of one curve, with everything both routes need to evaluate it.

    ``seed_key`` is ``(master seed, figure id)`` in an energy-efficiency
    figure, ``(master seed, figure id, curve)`` in a spectral-efficiency
    one and ``(master seed, figure id, lambda family)`` in an interference
    one: the points that share it share their draws.
    """

    kind: str
    label: str
    seed_key: tuple[int, ...]
    sweep_value: float
    reps: int
    model: str
    scenario: InterferenceScenario
    antennas: AntennaConfig | None
    traffic: TrafficModel
    energy: EnergyModel
    i_avg: float | None
    station_intensity: float | None

    def ee_inputs(self) -> tuple:
        """The arguments of :func:`~hcppnet.energy.energy_efficiency_quad` at this point."""
        return self.antennas, self.traffic, self.scenario, self.energy, self.i_avg, self.station_intensity


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


def _tasks(figure_id: int, cfg: ExperimentConfig, reps: int | None) -> list[Task]:
    """Expand a figure's spec into its tasks, curve by curve, in grid order.

    The seed key of a point names the draws it shares (see :class:`Task`):
    an interference curve's parent intensity scale in order of first
    appearance, a spectral-efficiency curve's index in the spec, nothing
    more for an energy-efficiency figure.  Energy curves evaluate the mean
    interference and the station intensity once per curve, since neither
    depends on the grid.
    """
    spec = FIGURES[figure_id]
    name, reps = ("reps", reps) if reps is not None else {
        "itf": ("realizations", cfg.realizations), "se": ("se_draws", cfg.se_draws), "ee": ("ee_draws", cfg.ee_draws)
    }[spec.kind]
    check(name, reps, (">=", 1))  # before any analytic column is built
    grid = _grid(cfg, spec.axis, spec.grid)
    base = cfg.ee_scenario() if spec.kind == "ee" else cfg.scenario()
    families = list(dict.fromkeys(series.lambda_scale for series in spec.series))
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
        draw_set = {"itf": (families.index(series.lambda_scale),), "se": (series_idx,), "ee": ()}[spec.kind]
        seed_key = (cfg.seed, figure_id, *draw_set)
        for value in values:
            point_scenario, antennas = _point(spec.axis, series, scenario, value)
            tasks.append(
                Task(
                    kind=spec.kind,
                    label=label,
                    seed_key=seed_key,
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


def _resolve_workers(workers: int | None, n_units: int) -> int:
    """The process count of an interference figure: ``workers``, or up to four, and no more than its units."""
    if workers is None:
        workers = min(4, os.cpu_count() or 1)
    if workers < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {workers}")
    return min(workers, n_units)


def _map(fn, units: list, n_workers: int) -> list:
    if n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial run skips the pool's import

        try:
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                return list(pool.map(fn, units))
        except OSError:
            pass
    return [fn(u) for u in units]


def _by_seed_key(tasks: list[Task]) -> dict[tuple[int, ...], list[int]]:
    """The indices of the tasks that share each seed key, keys in order of first appearance."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, task in enumerate(tasks):
        groups.setdefault(task.seed_key, []).append(i)
    return groups


def _efficiency_columns(tasks: list[Task]) -> tuple[list[float], list[Estimate]]:
    """The analytic column and the estimates of a spectral- or energy-efficiency figure, in this process.

    One draw set serves each seed key: a spectral-efficiency curve draws
    one gain matrix, and every ``xi`` of the curve is evaluated on it
    (:func:`~hcppnet.zf_capacity._se_estimates`); an energy-efficiency
    figure draws one set for all its rows
    (:func:`~hcppnet.energy._shared_draw_terms`).  A single point's
    estimator is the one-row case of each.
    """
    kind = tasks[0].kind
    if kind == "se":
        analytic = [spectral_efficiency_bound(t.antennas, t.sweep_value) for t in tasks]
    else:
        analytic = [energy_efficiency_quad(*t.ee_inputs()) for t in tasks]
    reps = tasks[0].reps
    estimates = {}
    for key, idx in _by_seed_key(tasks).items():
        rng = _rng_for(*key)
        if kind == "se":
            xis = [tasks[i].sweep_value for i in idx]
            estimates.update(zip(idx, _se_estimates(tasks[idx[0]].antennas, xis, reps, rng)))
        else:
            rows = _shared_draw_terms([tasks[i].ee_inputs() for i in idx], reps, rng)
            estimates.update((idx[k], Estimate.from_influence(ee, terms, reps)) for k, (ee, _, terms) in rows)
    return analytic, [estimates[i] for i in range(len(tasks))]


def _layout_chunk(unit) -> tuple[np.ndarray, np.ndarray]:
    """Per-row totals and counts of realizations ``start .. start + count - 1`` of one layout set."""
    seed_key, rows, start, count = unit
    return _tagged_station_mc(rows, count, _rng_for(*seed_key, spawned=start))


def _interference_columns(tasks: list[Task], workers: int | None) -> tuple[list[float], list[Estimate]]:
    """The analytic column and the estimates of an interference figure: one layout set serves each seed key's rows.

    The unit of work is a chunk of ``_SPAWN_CHUNK`` realizations at fixed
    boundaries; chunks are joined in order, so the output does not depend on
    the worker count.
    """
    analytic = [model_interference(t.model, t.scenario)[0] for t in tasks]
    families = _by_seed_key(tasks)
    reps = tasks[0].reps
    chunks = [(start, min(_SPAWN_CHUNK, reps - start)) for start in range(0, reps, _SPAWN_CHUNK)]
    rows = {key: tuple(_mc_row(tasks[i].model, tasks[i].scenario) for i in idx) for key, idx in families.items()}
    units = [(key, rows[key], start, count) for key in families for start, count in chunks]
    parts = iter(_map(_layout_chunk, units, _resolve_workers(workers, len(units))))
    estimates = {}
    for key, idx in families.items():
        totals, counts = zip(*(next(parts) for _ in chunks))
        means, terms = _influence(rows[key], np.hstack(totals), np.hstack(counts))
        estimates.update((i, Estimate.from_influence(m, t, reps)) for i, m, t in zip(idx, means, terms))
    return analytic, [estimates[i] for i in range(len(tasks))]


def run_figure(
    figure_id: int, cfg: ExperimentConfig | None = None, reps: int | None = None, workers: int | None = None
) -> ResultTable:
    """Produce the data table behind one figure.

    The config sets the master seed and, unless ``reps`` overrides it, the
    per-point Monte Carlo effort: the realizations, SE draws or EE draws,
    whichever the figure's kind reads.  ``workers`` sets the process fan-out
    of an interference figure (default: up to four); the other figures run
    in this process, and only check it.  Identical inputs give an identical
    table regardless of worker count.
    """
    if figure_id not in FIGURE_IDS:
        raise ParameterError(f"unknown figure id {figure_id}; supported: {FIGURE_IDS}")
    if cfg is None:
        cfg = load_config(None)
    axis, kind = FIGURES[figure_id].axis, FIGURES[figure_id].kind
    tasks = _tasks(figure_id, cfg, reps)
    if kind == "itf":
        analytic, estimates = _interference_columns(tasks, workers)
    else:
        _resolve_workers(workers, len(tasks))  # rejects a count below one, as for every figure
        analytic, estimates = _efficiency_columns(tasks)
    rows = [
        ResultRow(t.label, t.sweep_value, float(a), e.mean, e.std_error, e.replications, _UNITS[kind])
        for t, a, e in zip(tasks, analytic, estimates)
    ]

    metadata = {
        "figure": figure_id,
        "axis": axis,
        "seed": cfg.seed,
        "workers_affect_output": False,
        "package_version": _package_version(),
        "series": list(dict.fromkeys(r.series for r in rows)),
        "units": rows[0].units if rows else None,
        "columns": list(ResultTable.CSV_HEADER),
        "config": cfg.raw,
    }
    return ResultTable(figure_id=figure_id, axis=axis, rows=rows, metadata=metadata)
