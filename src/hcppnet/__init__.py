"""Stochastic-geometry models for hard-core random cellular networks.

Station locations follow a Matern type-II hard-core process; the package
provides its samplers and moment formulas, the resulting mean downlink
interference (analytic quadrature and Monte Carlo), zero-forcing multi-user
spectral efficiency with its closed-form bound, and a capped-power energy
efficiency model, plus a CLI that reproduces the standard figure sweeps.
"""

from .channel import (
    ChannelParams,
    db_to_linear,
    mean_shadowing,
    path_gain,
    sample_shadowing,
)
from .config import DEFAULTS, ExperimentConfig, config_from_dict, load_config, validate_config
from .energy import (
    EnergyModel,
    TrafficModel,
    energy_efficiency_mc,
    energy_efficiency_quad,
    links_per_bs,
    required_link_power,
    traffic_pdf,
    traffic_sample,
)
from .errors import ConfigurationError, DivergenceError, ParameterError
from .figures import FIGURE_IDS, ResultRow, ResultTable, run_figure
from .interference import (
    Estimate,
    InterferenceScenario,
    avg_interference_hcpp,
    avg_interference_ppp,
    mc_interference,
    mc_interference_ppp,
    model_interference,
)
from .point_process import (
    HcppParams,
    Window,
    first_moment,
    matern2_thin,
    pair_retention,
    sample_hcpp,
    sample_ppp,
    second_moment,
    union_area,
)
from .zf_capacity import (
    AntennaConfig,
    sample_zf_gains,
    spectral_efficiency_bound,
    spectral_efficiency_exact,
    spectral_efficiency_mc,
    subchannel_capacity,
)

__all__ = [
    "AntennaConfig",
    "ChannelParams",
    "ConfigurationError",
    "DEFAULTS",
    "DivergenceError",
    "EnergyModel",
    "Estimate",
    "ExperimentConfig",
    "FIGURE_IDS",
    "HcppParams",
    "InterferenceScenario",
    "ParameterError",
    "ResultRow",
    "ResultTable",
    "TrafficModel",
    "Window",
    "avg_interference_hcpp",
    "avg_interference_ppp",
    "config_from_dict",
    "db_to_linear",
    "energy_efficiency_mc",
    "energy_efficiency_quad",
    "first_moment",
    "links_per_bs",
    "load_config",
    "matern2_thin",
    "mc_interference",
    "mc_interference_ppp",
    "mean_shadowing",
    "model_interference",
    "pair_retention",
    "path_gain",
    "required_link_power",
    "run_figure",
    "sample_hcpp",
    "sample_ppp",
    "sample_shadowing",
    "sample_zf_gains",
    "second_moment",
    "spectral_efficiency_bound",
    "spectral_efficiency_exact",
    "spectral_efficiency_mc",
    "subchannel_capacity",
    "traffic_pdf",
    "traffic_sample",
    "union_area",
    "validate_config",
]
