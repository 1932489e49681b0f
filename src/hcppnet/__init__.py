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
    linear_to_db,
    mean_shadowing,
    path_gain,
    sample_fading_matrix,
    sample_fading_power,
    sample_shadowing,
    zf_gain_pdf,
)
from .config import DEFAULTS, ExperimentConfig, config_from_dict, load_config, validate_config
from .energy import (
    EnergyModel,
    TrafficModel,
    avg_bs_power,
    energy_efficiency_mc,
    energy_efficiency_quad,
    links_per_bs,
    required_link_power,
    traffic_mean,
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
    ring_mean_decay,
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
    sinr_factor,
    spectral_efficiency_bound,
    spectral_efficiency_exact,
    spectral_efficiency_mc,
    subchannel_capacity,
    tx_power,
    zf_precoder,
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
    "avg_bs_power",
    "avg_interference_hcpp",
    "avg_interference_ppp",
    "config_from_dict",
    "db_to_linear",
    "energy_efficiency_mc",
    "energy_efficiency_quad",
    "first_moment",
    "linear_to_db",
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
    "ring_mean_decay",
    "run_figure",
    "sample_fading_matrix",
    "sample_fading_power",
    "sample_hcpp",
    "sample_ppp",
    "sample_shadowing",
    "sample_zf_gains",
    "second_moment",
    "sinr_factor",
    "spectral_efficiency_bound",
    "spectral_efficiency_exact",
    "spectral_efficiency_mc",
    "subchannel_capacity",
    "traffic_mean",
    "traffic_pdf",
    "traffic_sample",
    "tx_power",
    "union_area",
    "validate_config",
    "zf_gain_pdf",
    "zf_precoder",
]
