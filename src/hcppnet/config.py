"""Experiment configuration: built-in defaults, YAML loading, validation.

A config file is a YAML document with nested sections; anything omitted
falls back to the built-in defaults, so an empty file (or none at all) is a
complete, runnable configuration.  A config is resolved in one walk over
the defaults: each key must be one of theirs, and each value, given or
defaulted, must have the type of its default (or be null where that is
allowed), be finite and meet its key's bounds.  A key that sets a model
field takes the bounds declared on that field, which the model type checks
in the same words for library callers; only the five run settings no model
owns declare theirs here.  The walk returns the merged mapping as written,
the same mapping cast to each key's type, and every problem.  A sweep must
name an axis some figure sweeps, with strictly increasing values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import yaml

from .channel import ChannelParams, db_to_linear
from .energy import EnergyModel, TrafficModel
from .errors import ConfigurationError, DivergenceError, ParameterError, violation
from .interference import InterferenceScenario, avg_interference_hcpp, model_interference
from .point_process import HcppParams
from .zf_capacity import AntennaConfig, spectral_efficiency_bound

__all__ = ["ExperimentConfig", "DEFAULTS", "load_config", "config_from_dict", "validate_config"]

DEFAULTS: dict = {
    "seed": 20260817,
    "point_process": {
        "lambda_p": 1.0 / (math.pi * 800.0**2),
        "delta": 500.0,
    },
    "channel": {
        "beta_db": -31.54,
        "alpha": 3.8,
        "sigma_s_db": 6.0,
    },
    "interference": {
        "x_off": 300.0,
        "mean_tx_power": 2.0,
        "realizations": 10000,
    },
    "antennas": {
        "n_t": 8,
        "s": 4,
    },
    "traffic": {
        "theta": 1.8,
        "rho_min": 20000.0,
        "b_w": 10000.0,
    },
    "energy": {
        "eta": 0.38,
        "p_rf_chain": 0.05,
        "p_sta": 45.5,
        "p_link_max": 2.0,
        "n_link": 30,
        "lambda_m": None,
        # Calibrated once against the reference efficiency maxima; see README.
        "x_off": 188.0,
    },
    "mc": {
        "se_draws": 20000,
        "ee_draws": 50000,
    },
    "sweep": None,
    "output": {"path": None},
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment setup assembled from a config mapping."""

    seed: int
    hcpp: HcppParams
    channel: ChannelParams
    x_off: float
    mean_tx_power: float
    realizations: int
    antennas: AntennaConfig
    traffic: TrafficModel
    energy: EnergyModel
    ee_x_off: float
    se_draws: int
    ee_draws: int
    sweep_axis: str | None
    sweep_values: tuple[float, ...] | None
    out_path: str | None
    raw: dict

    def scenario(self) -> InterferenceScenario:
        """Interference geometry for single-point and figure 2-4 runs."""
        return InterferenceScenario(self.hcpp, self.channel, self.x_off, self.mean_tx_power)

    def ee_scenario(self) -> InterferenceScenario:
        """Interference geometry at the energy-efficiency user distance."""
        return InterferenceScenario(self.hcpp, self.channel, self.ee_x_off, self.mean_tx_power)


# keys whose value may be null, and the type a non-null value must have
_NULLABLE = {"energy/n_link": float, "energy/lambda_m": float, "output/path": str}

# the (op, bound) pairs a config number must meet: for a key that sets a
# field of the model its section builds, those declared on that field
# (channel.beta has no key: the config sets beta_db); for the five run
# settings no model owns, those written here
_BOUNDS = {
    "seed": ((">=", 0),),
    **{
        f"{section}/{f.name}": f.metadata["bounds"]
        for section, model in (
            ("point_process", HcppParams),
            ("channel", ChannelParams),
            ("interference", InterferenceScenario),
            ("antennas", AntennaConfig),
            ("traffic", TrafficModel),
            ("energy", EnergyModel),
        )
        for f in fields(model)
        if "bounds" in f.metadata and f.name in DEFAULTS[section]
    },
    "interference/realizations": ((">=", 1),),
    "energy/x_off": ((">", 0),),
    "mc/se_draws": ((">=", 1),),
    "mc/ee_draws": ((">=", 1),),
}
_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _leaf_problem(value, kind: type, nullable: bool = False) -> str | None:
    """Why ``value`` is not a ``kind`` (int, float or str), or None if it is."""
    if value is None and nullable:
        return None
    if kind is str:
        ok = isinstance(value, str)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        ok = False
    elif isinstance(value, float) and not math.isfinite(value):
        return f"must be a finite number, got {value}"
    else:  # an integral float such as 8.0 is an integer
        ok = kind is float or isinstance(value, int) or value.is_integer()
    return None if ok else f"must be {_TYPE_NAMES[kind]}{' or null' if nullable else ''}, got {value!r}"


def _sweep(sweep, path: tuple):
    """A sweep as written and as ``(axis, values)``, and its problems."""
    if not isinstance(sweep, dict):
        return None, None, [(path, f"must be null or a mapping, got {type(sweep).__name__}")]
    found = [(path, f"additional key {key!r} is not allowed") for key in sweep if key not in ("axis", "values")]
    found += [(path, f"required key {key!r} is missing") for key in ("axis", "values") if key not in sweep]
    axis, values, cast = sweep.get("axis"), sweep.get("values"), None
    if "axis" in sweep:
        from .figures import FIGURES  # figures imports this module, so not at import time
        axes = sorted({spec.axis for spec in FIGURES.values()})
        if not (isinstance(axis, str) and axis):
            found.append(((*path, "axis"), f"must be a non-empty string, got {axis!r}"))
        elif axis not in axes:
            found.append(((*path, "axis"), f"must be one of {', '.join(map(repr, axes))}, got {axis!r}"))
    if "values" in sweep:
        if not (isinstance(values, list) and values):
            found.append(((*path, "values"), f"must be a non-empty list of numbers, got {values!r}"))
        else:
            problems = [((*path, "values", str(i)), e) for i, v in enumerate(values) if (e := _leaf_problem(v, float))]
            cast = None if problems else tuple(float(v) for v in values)
            if cast and any(b <= a for a, b in zip(cast, cast[1:])):
                problems.append(((*path, "values"), f"must be strictly increasing, got {values!r}"))
            found += problems
    if found:
        return None, None, found
    return {**sweep, "values": list(values)}, (axis, cast), []


def _walk(user, default, path: tuple):
    """``user`` over ``default``, which stands in for each key left out: as written, cast, and every problem."""
    name = "/".join(path)
    if name == "sweep":
        return (None, None, []) if user is None else _sweep(user, path)
    if isinstance(default, dict):
        if not isinstance(user, dict):
            return None, None, [(path, f"must be a mapping, got {type(user).__name__}")]
        raw, cast = {}, {}
        found = [(path, f"additional key {key!r} is not allowed") for key in user if key not in default]
        for key, item in default.items():
            raw[key], cast[key], problems = _walk(user.get(key, item), item, (*path, key))
            found += problems
        return raw, cast, found
    kind = _NULLABLE.get(name, type(default))
    problem = _leaf_problem(user, kind, name in _NULLABLE)
    if problem is None and user is not None and name in _BOUNDS:
        problem = violation(user, _BOUNDS[name])
    if problem:
        return None, None, [(path, problem)]
    return user, None if user is None else kind(user), []


def _resolve(user) -> tuple[dict, dict, list[str]]:
    """A user mapping (None for none) over DEFAULTS: as written, cast, and every problem in path order."""
    user = {} if user is None else user
    if not isinstance(user, dict):
        return {}, {}, [f"config root must be a mapping, got {type(user).__name__}"]
    raw, cast, found = _walk(user, DEFAULTS, ())
    if found:
        found.sort(key=lambda problem: problem[0])
        return raw, cast, [f"config structure invalid at {'/'.join(path) or '(root)'}: {why}" for path, why in found]
    # the two link-count sources are alternatives: choosing one in the user
    # config silently retires the default of the other
    energy = user.get("energy", {})
    for given, other in (("lambda_m", "n_link"), ("n_link", "lambda_m")):
        if energy.get(given) is not None and other not in energy:
            raw["energy"][other] = cast["energy"][other] = None
    return raw, cast, []


def key_type(key: str) -> type:
    """The type of config ``key``, such as ``channel/alpha``: its default's, or a value's where null is allowed."""
    default = DEFAULTS
    for part in key.split("/"):
        default = default[part]
    return _NULLABLE.get(key, type(default))


def _build(raw: dict, cast: dict) -> ExperimentConfig:
    """The config of a resolved mapping: ``raw`` as written, ``cast`` with each value of its key's type."""
    channel, energy = cast["channel"], cast["energy"]
    ee_x_off = energy.pop("x_off")  # the energy model's user distance, not a field of EnergyModel
    sweep_axis, sweep_values = cast["sweep"] or (None, None)
    return ExperimentConfig(
        seed=cast["seed"],
        hcpp=HcppParams(**cast["point_process"]),
        # the config gives the unit-distance gain in dB, the model takes it linear
        channel=ChannelParams(beta=float(db_to_linear(channel.pop("beta_db"))), **channel),
        antennas=AntennaConfig(**cast["antennas"]),
        traffic=TrafficModel(**cast["traffic"]),
        energy=EnergyModel(**energy),
        ee_x_off=ee_x_off,
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        out_path=cast["output"]["path"],
        raw=raw,
        **cast["interference"],  # x_off, mean_tx_power, realizations
        **cast["mc"],  # se_draws, ee_draws
    )


def config_from_dict(user: dict | None = None) -> ExperimentConfig:
    """Build a validated config from a (possibly partial) mapping."""
    raw, cast, problems = _resolve(user)
    if problems:
        raise ConfigurationError("; ".join(problems))
    return _build(raw, cast)


def _read_yaml(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:  # missing, a directory, unreadable
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not UTF-8 text: {exc.reason}") from exc
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"config file is not valid YAML: {exc}") from exc
    return {} if data is None else data


def load_config(path: str | None = None) -> ExperimentConfig:
    """Load a YAML config file; ``None`` gives the pure defaults."""
    return config_from_dict(None if path is None else _read_yaml(path))


def validate_config(source: str | dict | None) -> list[str]:
    """Collect every problem with a config; an empty list means runnable.

    Structural errors and parameter-range violations come first, all of
    them at once; a config that has any is not dry-run.  Otherwise the
    config is dry-run through the code its runs execute, with no Monte
    Carlo draw: the analytic hard-core interference mean of the
    ``interference`` and ``ee`` commands at ``interference.x_off`` and
    ``energy.x_off``, and, for each figure the sweep allows, its task list
    (which rejects an infeasible or fractional antenna grid and evaluates
    each energy curve's interference mean) and the analytic column of each
    interference and spectral-efficiency row.  A failing figure is reported
    once, as ``figure <id>: <error>``, in the words ``hcppnet figure <id>``
    prints.  The energy-efficiency quadrature is not run, so its guard on
    the peak SNR at the power cap is checked only when a run reaches it.
    """
    try:
        raw, cast, problems = _resolve(source if source is None or isinstance(source, dict) else _read_yaml(source))
        if problems:
            return problems
        cfg = _build(raw, cast)
    except (ConfigurationError, ParameterError) as exc:
        return [str(exc)]

    from .figures import FIGURES, _tasks  # figures imports this module, so not at import time

    found = []
    for section, scenario in (("interference", cfg.scenario()), ("energy", cfg.ee_scenario())):
        try:
            avg_interference_hcpp(scenario)
        except DivergenceError as exc:
            found.append(f"{section}.x_off={scenario.x_off}: {exc}")
    for figure_id, spec in FIGURES.items():
        if cfg.sweep_axis not in (None, spec.axis):
            continue
        try:
            for task in _tasks(figure_id, cfg, None):
                if task.kind == "itf":
                    model_interference(task.model, task.scenario)
                elif task.kind == "se":
                    spectral_efficiency_bound(task.antennas, task.sweep_value)
        except (ConfigurationError, ParameterError) as exc:
            found.append(f"figure {figure_id}: {exc}")
    return found
