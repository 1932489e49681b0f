"""Heavy-tailed traffic, adaptive link power with a cap, and energy efficiency.

Each served link must deliver a Pareto-distributed rate; the station adapts
its transmit power to hit that rate against the average interference, and a
link whose required power exceeds the cap is dropped (outage).  Energy
efficiency is served traffic per consumed energy, normalized per Hz.  Two
independent routes are provided: a Monte Carlo average over joint draws of
(rate, shadowing, gain), and a deterministic tensor quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .channel import path_gain, sample_shadowing
from .errors import ConfigurationError, ParameterError
from .interference import Estimate, InterferenceScenario
from .zf_capacity import AntennaConfig

__all__ = [
    "TrafficModel",
    "EnergyModel",
    "traffic_pdf",
    "traffic_sample",
    "required_link_power",
    "links_per_bs",
    "energy_efficiency_mc",
    "energy_efficiency_quad",
]


@dataclass(frozen=True)
class TrafficModel:
    """Pareto rate demand: heaviness ``theta`` in (1, 2], floor ``rho_min`` bits/s, link bandwidth ``b_w`` Hz."""

    theta: float
    rho_min: float
    b_w: float

    def __post_init__(self):
        if not 1.0 < self.theta <= 2.0:
            raise ParameterError(f"theta must lie in (1, 2], got {self.theta}")
        if self.rho_min <= 0:
            raise ParameterError(f"rho_min must be positive, got {self.rho_min}")
        if self.b_w <= 0:
            raise ParameterError(f"b_w must be positive, got {self.b_w}")


@dataclass(frozen=True)
class EnergyModel:
    """Station power accounting.

    Exactly one of ``lambda_m`` (user intensity, links derived as
    ``lambda_m / station intensity``) or ``n_link`` (links per station,
    direct) must be set.
    """

    eta: float
    p_rf_chain: float
    p_sta: float
    p_link_max: float
    lambda_m: float | None = None
    n_link: float | None = None

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise ParameterError(f"eta must lie in (0, 1], got {self.eta}")
        if self.p_rf_chain < 0:
            raise ParameterError(f"p_rf_chain must be nonnegative, got {self.p_rf_chain}")
        if self.p_sta < 0:
            raise ParameterError(f"p_sta must be nonnegative, got {self.p_sta}")
        if self.p_link_max <= 0:
            raise ParameterError(f"p_link_max must be positive, got {self.p_link_max}")
        if (self.lambda_m is None) == (self.n_link is None):
            raise ConfigurationError("set exactly one of lambda_m and n_link")
        if self.lambda_m is not None and self.lambda_m <= 0:
            raise ParameterError(f"lambda_m must be positive, got {self.lambda_m}")
        if self.n_link is not None and self.n_link <= 0:
            raise ParameterError(f"n_link must be positive, got {self.n_link}")


def traffic_pdf(x, tm: TrafficModel):
    """Pareto density ``theta rho_min^theta / x^(theta+1)``, zero below the floor."""
    x_arr = np.asarray(x, dtype=float)
    out = np.zeros_like(x_arr)
    above = x_arr >= tm.rho_min
    out[above] = tm.theta * tm.rho_min**tm.theta / x_arr[above] ** (tm.theta + 1.0)
    return out if out.ndim else float(out)


def traffic_sample(tm: TrafficModel, rng: np.random.Generator, size=None):
    """Inverse-CDF Pareto draws ``rho_min * u**(-1/theta)``, never below the floor."""
    u = 1.0 - rng.random(size)  # in (0, 1]: u = 1 hits the floor exactly
    return tm.rho_min * u ** (-1.0 / tm.theta)


def required_link_power(
    rho,
    cfg: AntennaConfig,
    tm: TrafficModel,
    channel,
    w_ii,
    x_off: float,
    gain,
    i_avg: float,
):
    """Transmit power that makes the stream rate equal ``rho``.

    Inverts the stream-rate law exactly: ``(2^(rho/(s b_w)) - 1)`` times
    interference over the link gain.  A zero ``gain`` yields ``inf`` (the
    rate is unreachable at any power), not an exception.  Vectorized over
    ``rho``, ``w_ii`` and ``gain``.
    """
    if i_avg <= 0:
        raise ParameterError(f"i_avg must be positive, got {i_avg}")
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr < 0):
        raise ParameterError("rho must be nonnegative")
    w_arr = np.asarray(w_ii, dtype=float)
    if np.any(w_arr <= 0):
        raise ParameterError("w_ii must be positive")
    g_arr = np.asarray(gain, dtype=float)
    if np.any(g_arr < 0):
        raise ParameterError("gain must be nonnegative")
    with np.errstate(over="ignore"):  # huge rate demands overflow to inf = sure outage
        snr_needed = np.expm1(rho_arr * (math.log(2.0) / (cfg.s * tm.b_w)))
    link_gain = path_gain(channel, x_off) * w_arr * g_arr
    with np.errstate(divide="ignore"):
        out = snr_needed * i_avg / link_gain
    return out if out.ndim else float(out)


def links_per_bs(energy: EnergyModel, station_intensity: float | None) -> float:
    """Average simultaneously served links per station."""
    if energy.n_link is not None:
        return energy.n_link
    if station_intensity is None or station_intensity <= 0:
        raise ConfigurationError("lambda_m-based link count needs a positive station intensity")
    return energy.lambda_m / station_intensity


def _per_link_watts(mean_power, cfg, energy, station_intensity):
    return (
        mean_power / energy.eta
        + cfg.n_t * energy.p_rf_chain
        + energy.p_sta / links_per_bs(energy, station_intensity)
    )


def energy_efficiency_mc(
    cfg: AntennaConfig,
    tm: TrafficModel,
    scenario: InterferenceScenario,
    energy: EnergyModel,
    draws: int,
    rng: np.random.Generator,
    i_avg: float,
    station_intensity: float,
) -> Estimate:
    """Monte Carlo energy efficiency in bits/Hz/Joule, with a standard error.

    Served traffic (bits/s averaged over non-outage draws, normalized by
    the link bandwidth) divided by the per-link power budget: amplifier
    input for the mean served power, RF chain draw per antenna, and the
    per-link share of the static floor.  Outage draws are excluded from
    both the traffic and the power average.  The standard error propagates
    the sampling covariance of the two served-draw means through the ratio.
    ``i_avg`` and ``station_intensity`` are the mean interference and the
    station intensity of one station model, as
    :func:`~hcppnet.interference.model_interference` returns them.
    """
    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")
    rho = traffic_sample(tm, rng, draws)
    w = sample_shadowing(scenario.channel.sigma_s_db, rng, draws)
    g = rng.gamma(cfg.gain_shape, 1.0, draws)
    p = required_link_power(rho, cfg, tm, scenario.channel, w, scenario.x_off, g, i_avg)
    served = p <= energy.p_link_max
    n_ok = int(served.sum())
    if n_ok == 0:
        return Estimate(mean=0.0, std_error=0.0, replications=draws)
    t_mean = float(rho[served].mean())
    p_mean = float(p[served].mean())
    watts = _per_link_watts(p_mean, cfg, energy, station_intensity)
    ee = (t_mean / tm.b_w) / watts

    if n_ok >= 2:
        grad_t = 1.0 / (tm.b_w * watts)
        grad_p = -ee / (watts * energy.eta)
        cov = np.cov(rho[served], p[served], ddof=1) / n_ok
        var = grad_t**2 * cov[0, 0] + 2.0 * grad_t * grad_p * cov[0, 1] + grad_p**2 * cov[1, 1]
        std_error = float(np.sqrt(max(var, 0.0)))
    else:
        std_error = float("inf")
    return Estimate(mean=ee, std_error=std_error, replications=draws)


def _pareto_capped_moments(theta: float, rho_min: float, b: float, rho_star: np.ndarray):
    """Moments of the Pareto rate truncated at per-node caps ``rho_star``.

    Returns ``(P(served), E[rho; served], E[e^(b rho) - 1; served])`` for
    each entry of ``rho_star``; nodes with ``rho_star < rho_min`` cannot
    serve even the minimum rate and get zeros.  The exponential moment is a
    positive power series in ``b`` (no closed form); terms are accumulated
    until they fall below 1e-16 of the running sum.
    """
    rho_star = np.asarray(rho_star, dtype=float)
    served = rho_star >= rho_min
    p_ok = np.where(served, 1.0 - (rho_min / np.maximum(rho_star, rho_min)) ** theta, 0.0)
    e_rho = np.where(
        served,
        theta
        * rho_min**theta
        / (theta - 1.0)
        * (rho_min ** (1.0 - theta) - np.maximum(rho_star, rho_min) ** (1.0 - theta)),
        0.0,
    )

    rs = np.maximum(rho_star, rho_min)
    u_star = b * rs  # exponent at the cap; bounded by log(1 + max SNR)
    u_min = b * rho_min
    pow_star = np.ones_like(rs)  # u_star^n / n!
    pow_min = 1.0
    total = np.zeros_like(rs)
    rs_t = rs**-theta
    rm_t = rho_min**-theta
    for n in range(1, 600):
        pow_star = pow_star * u_star / n
        pow_min = pow_min * u_min / n
        if n == 2 and theta == 2.0:
            term = (b**2 / 2.0) * np.log(rs / rho_min)
        else:
            term = (rs_t * pow_star - rm_t * pow_min) / (n - theta)
        total += term
        if np.all(np.abs(term) <= 1e-16 * np.abs(total)) and np.all(u_star < n):
            break
    else:
        raise ParameterError("capped-power series did not converge; parameters are extreme")
    e_exp = np.where(served, theta * rho_min**theta * total, 0.0)
    return p_ok, e_rho, e_exp


_N_SHADOW = 96
_N_GAIN = 128


def energy_efficiency_quad(
    cfg: AntennaConfig,
    tm: TrafficModel,
    scenario: InterferenceScenario,
    energy: EnergyModel,
    i_avg: float,
    station_intensity: float,
) -> float:
    """Deterministic energy efficiency: quadrature twin of :func:`energy_efficiency_mc`.

    Gauss-Hermite nodes cover the lognormal shadowing, generalized
    Gauss-Laguerre nodes the Gamma stream gain, and the capped Pareto rate
    integrals are evaluated in closed form per node.  The power cap creates
    kinks in the per-node integrands, so the node counts
    (``_N_SHADOW`` x ``_N_GAIN``) are high; halving them moves results by
    well under a percent.
    """
    sigma = scenario.channel.sigma_s_db
    if sigma > 0:
        t, wt = special.roots_hermite(_N_SHADOW)
        w_nodes = np.exp(math.sqrt(2.0) * sigma * t * (math.log(10.0) / 10.0))
        w_weights = wt / math.sqrt(math.pi)
    else:
        w_nodes = np.array([1.0])
        w_weights = np.array([1.0])

    m = cfg.gain_shape
    g_nodes, g_wt = special.roots_genlaguerre(_N_GAIN, m - 1)
    g_weights = g_wt / special.gamma(m)

    pg = path_gain(scenario.channel, scenario.x_off)
    # peak SNR reachable at the power cap, per (shadowing, gain) node
    x_peak = energy.p_link_max * pg * np.outer(w_nodes, g_nodes) / i_avg
    rho_star = cfg.s * tm.b_w * np.log1p(x_peak) / math.log(2.0)

    b = math.log(2.0) / (cfg.s * tm.b_w)
    p_ok, e_rho, e_exp = _pareto_capped_moments(tm.theta, tm.rho_min, b, rho_star)
    # required power is (e^(b rho) - 1) * cap / x_peak
    with np.errstate(invalid="ignore"):
        e_pow = np.where(p_ok > 0, e_exp * energy.p_link_max / x_peak, 0.0)

    wt2d = np.outer(w_weights, g_weights)
    p_served = float((wt2d * p_ok).sum())
    if 1.0 - p_served >= 1.0:  # no node serves, or too few to register against 1
        return 0.0
    mean_traffic = float((wt2d * e_rho).sum()) / p_served
    mean_power = float((wt2d * e_pow).sum()) / p_served
    return (mean_traffic / tm.b_w) / _per_link_watts(mean_power, cfg, energy, station_intensity)
