"""Experiment configuration: built-in defaults, YAML loading, validation.

A config file is a YAML document with nested sections; anything omitted
falls back to the built-in defaults, so an empty file (or none at all) is a
complete, runnable configuration.  Structure is checked against the
defaults themselves: each key must be one of theirs and each value must
have the type of its default, or be null where that is allowed; it is
then cast to that type once, so no other code restates it.  Numbers
must be finite and within a small table of bounds, which the model types
check again for library callers.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass

import yaml

from .channel import ChannelParams, db_to_linear
from .energy import EnergyModel, TrafficModel
from .errors import ConfigurationError, ParameterError
from .interference import InterferenceScenario
from .point_process import HcppParams
from .zf_capacity import AntennaConfig

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

# every bound a config number must meet; the model types check them again
_BOUNDS = (
    ("seed", ">=", 0),
    ("point_process/lambda_p", ">", 0),
    ("point_process/delta", ">=", 0),
    ("channel/alpha", ">", 2),
    ("channel/sigma_s_db", ">=", 0),
    ("interference/x_off", ">=", 0),
    ("interference/mean_tx_power", ">", 0),
    ("interference/realizations", ">=", 1),
    ("antennas/n_t", ">=", 1),
    ("antennas/s", ">=", 1),
    ("traffic/theta", ">", 1),
    ("traffic/theta", "<=", 2),
    ("traffic/rho_min", ">", 0),
    ("traffic/b_w", ">", 0),
    ("energy/eta", ">", 0),
    ("energy/eta", "<=", 1),
    ("energy/p_rf_chain", ">=", 0),
    ("energy/p_sta", ">=", 0),
    ("energy/p_link_max", ">", 0),
    ("energy/n_link", ">", 0),
    ("energy/lambda_m", ">", 0),
    ("energy/x_off", ">", 0),
    ("mc/se_draws", ">=", 1),
    ("mc/ee_draws", ">=", 1),
)
_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}
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


def _unknown_keys(mapping: dict, known, path: tuple) -> list[tuple[tuple, str]]:
    return [(path, f"additional key {key!r} is not allowed") for key in mapping if key not in known]


def _sweep_problems(sweep) -> list[tuple[tuple, str]]:
    path = ("sweep",)
    if not isinstance(sweep, dict):
        return [(path, f"must be null or a mapping, got {type(sweep).__name__}")]
    found = _unknown_keys(sweep, ("axis", "values"), path)
    found += [(path, f"required key {key!r} is missing") for key in ("axis", "values") if key not in sweep]
    axis, values = sweep.get("axis"), sweep.get("values")
    if "axis" in sweep and not (isinstance(axis, str) and axis):
        found.append(((*path, "axis"), f"must be a non-empty string, got {axis!r}"))
    if "values" in sweep:
        if not (isinstance(values, list) and values):
            found.append(((*path, "values"), f"must be a non-empty list of numbers, got {values!r}"))
        else:
            for i, value in enumerate(values):
                problem = _leaf_problem(value, float)
                if problem:
                    found.append(((*path, "values", str(i)), problem))
    return found


def _problems(value, default, path: tuple) -> list[tuple[tuple, str]]:
    """Every (path, message) at which ``value`` departs from the shape of ``default``."""
    name = "/".join(path)
    if name == "sweep":
        return [] if value is None else _sweep_problems(value)
    if isinstance(default, dict):
        if not isinstance(value, dict):
            return [(path, f"must be a mapping, got {type(value).__name__}")]
        found = _unknown_keys(value, default, path)
        for key, item in value.items():
            if key in default:
                found += _problems(item, default[key], (*path, str(key)))
        return found
    problem = _leaf_problem(value, _NULLABLE.get(name, type(default)), name in _NULLABLE)
    if problem:
        return [(path, problem)]
    return [
        (path, f"must be {op} {bound}, got {value}")
        for where, op, bound in _BOUNDS
        if where == name and value is not None and not _COMPARE[op](value, bound)
    ]


def _structure_problems(user) -> list[str]:
    """Every departure of a user mapping from the keys and types of DEFAULTS, in path order."""
    if not isinstance(user, dict):
        return [f"config root must be a mapping, got {type(user).__name__}"]
    found = sorted(_problems(user, DEFAULTS, ()), key=lambda problem: problem[0])
    return [f"config structure invalid at {'/'.join(path) or '(root)'}: {message}" for path, message in found]


def _deep_merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def _merge_defaults(user: dict) -> dict:
    merged = _deep_merge(DEFAULTS, user)
    # the two link-count sources are alternatives: choosing one in the user
    # config silently retires the default of the other
    user_energy = user.get("energy") or {}
    if user_energy.get("lambda_m") is not None and "n_link" not in user_energy:
        merged["energy"]["n_link"] = None
    if user_energy.get("n_link") is not None and "lambda_m" not in user_energy:
        merged["energy"]["lambda_m"] = None
    return merged


def key_type(key: str) -> type:
    """The type of config ``key``, such as ``channel/alpha``: its default's, or a value's where null is allowed."""
    default = DEFAULTS
    for part in key.split("/"):
        default = default[part]
    return _NULLABLE.get(key, type(default))


def _typed(node, default=DEFAULTS, key: str = ""):
    """A checked mapping with every value cast once, to the type of its key; a sweep is left as it is."""
    if key == "sweep" or node is None:
        return node
    if isinstance(default, dict):
        return {name: _typed(item, default[name], f"{key}/{name}" if key else name) for name, item in node.items()}
    return _NULLABLE.get(key, type(default))(node)


def _build(user: dict) -> ExperimentConfig:
    """The config of a mapping whose structure has been checked."""
    raw = _merge_defaults(user)
    typed = _typed(raw)
    channel, energy = typed["channel"], typed["energy"]
    ee_x_off = energy.pop("x_off")  # the energy model's user distance, not a field of EnergyModel
    sweep = raw["sweep"]
    sweep_values = None
    if sweep is not None:
        sweep_values = tuple(float(v) for v in sweep["values"])
        if any(b <= a for a, b in zip(sweep_values, sweep_values[1:])):
            raise ConfigurationError("sweep.values must be strictly increasing")

    return ExperimentConfig(
        seed=typed["seed"],
        hcpp=HcppParams(**typed["point_process"]),
        # the config gives the unit-distance gain in dB, the model takes it linear
        channel=ChannelParams(beta=float(db_to_linear(channel.pop("beta_db"))), **channel),
        antennas=AntennaConfig(**typed["antennas"]),
        traffic=TrafficModel(**typed["traffic"]),
        energy=EnergyModel(**energy),
        ee_x_off=ee_x_off,
        sweep_axis=None if sweep is None else sweep["axis"],
        sweep_values=sweep_values,
        out_path=typed["output"]["path"],
        raw=raw,
        **typed["interference"],  # x_off, mean_tx_power, realizations
        **typed["mc"],  # se_draws, ee_draws
    )


def config_from_dict(user: dict | None = None) -> ExperimentConfig:
    """Build a validated config from a (possibly partial) mapping."""
    user = user or {}
    problems = _structure_problems(user)
    if problems:
        raise ConfigurationError("; ".join(problems))
    return _build(user)


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

    Covers structural errors (all of them at once), parameter-range
    violations, and divergence conditions of the analytic interference
    mean.
    """
    try:
        user = (source or {}) if source is None or isinstance(source, dict) else _read_yaml(source)
        problems = _structure_problems(user)
        if problems:
            return problems
        cfg = _build(user)
    except (ConfigurationError, ParameterError) as exc:
        return [str(exc)]

    return [
        f"{section}.x_off={x_off} is not below delta={cfg.hcpp.delta}; {why}"
        for section, x_off, why in (
            ("interference", cfg.x_off, "the analytic hard-core interference mean diverges there"),
            ("energy", cfg.ee_x_off, "energy-efficiency runs need the analytic interference mean"),
        )
        if x_off >= cfg.hcpp.delta
    ]
