"""Heavy-tailed traffic, adaptive link power with a cap, and energy efficiency.

Each served link must deliver a Pareto-distributed rate; the station adapts
its transmit power to hit that rate against the average interference, and a
link whose required power exceeds the cap is dropped (outage).  Energy
efficiency is served traffic per consumed energy, normalized per Hz.  Two
independent routes are provided: a Monte Carlo average over joint draws of
(rate, shadowing, gain), and a deterministic tensor quadrature.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .channel import path_gain, sample_shadowing
from .errors import ConfigurationError, ParameterError
from .interference import Estimate, InterferenceScenario
from .zf_capacity import AntennaConfig, _gauss_nodes

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
    with np.errstate(divide="ignore", over="ignore"):  # inf: unreachable at any power
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
    the sampling covariance of the two served-draw means through the ratio;
    it is infinite, unknown, with fewer than two served draws, and with none
    the mean is 0.  ``i_avg`` and ``station_intensity`` are the mean interference and the
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
    rho, p = rho[served], p[served]
    n_ok = rho.size
    std_error = math.inf
    if n_ok == 0:
        return Estimate(mean=0.0, std_error=std_error, replications=draws)
    t_mean = float(rho.mean())
    p_mean = float(p.mean())
    watts = _per_link_watts(p_mean, cfg, energy, station_intensity)
    ee = (t_mean / tm.b_w) / watts

    if n_ok >= 2:
        # the gradient's quadratic form with the sample covariance, summed per draw
        grad_t = 1.0 / (tm.b_w * watts)
        grad_p = -ee / (watts * energy.eta)
        dev = grad_t * (rho - t_mean) + grad_p * (p - p_mean)
        std_error = math.sqrt(float(dev @ dev) / ((n_ok - 1) * n_ok))
    return Estimate(mean=ee, std_error=std_error, replications=draws)


def _exp_kernel(theta: float, u):
    """The special-function part of :func:`_exp_moment`'s antiderivative at ``u``.

    ``u^a/a 1F1(a; a+1; u)`` with ``a = 2 - theta``, the integral of ``e^u u^(a-1)``; ``Ei(u)`` at
    ``theta = 2`` (where that integral is ``Ei``) and at ``theta = 1`` (where the antiderivative needs it).
    """
    if theta == 1.0 or theta == 2.0:
        return special.expi(u)
    a = 2.0 - theta
    return u**a / a * special.hyp1f1(a, a + 1.0, u)


def _exp_moment(theta: float, u_min: float, u_star: np.ndarray, k_star: np.ndarray) -> np.ndarray:
    """Integral of ``theta u_min^theta (e^u - 1) u^(-theta-1)`` from ``u_min`` to ``u_star``.

    By parts twice down to ``int e^u u^(a-1) du = u^a/a 1F1(a; a+1; u)``, ``a = 2 - theta``, which
    is ``Ei(u)`` at ``theta = 2``; at ``theta = 1`` the antiderivative is ``u_min (Ei(u) - (e^u - 1)/u)``.
    ``k_star`` is that kernel at ``u_star``, :func:`_exp_kernel`.  It alone needs a special function,
    and it does not depend on ``u_min``; the elementary rest does, so one kernel serves every ``u_min``.
    """
    def antiderivative(u, k):
        if theta == 1.0:
            return u_min * (k - np.expm1(u) / u)
        r = u_min / u
        tail = u_min ** (theta - 1.0) * k - np.exp(u) * r ** (theta - 1.0)
        return u_min / (theta - 1.0) * tail - np.expm1(u) * r**theta

    return antiderivative(u_star, k_star) - antiderivative(u_min, _exp_kernel(theta, u_min))


_EDGE_BAND = 3e-4  # nearer theta = 1 or 2 than this, _exp_moment loses digits to cancellation


def _moment_thetas(theta: float) -> tuple[float, ...]:
    """The heaviness indices at which :func:`_exp_moment` is evaluated for a curve at ``theta``.

    ``theta`` itself; within ``_EDGE_BAND`` of ``theta = 1`` or ``2``, the edge and two band points
    that :func:`_pareto_capped_moments` interpolates between.
    """
    edge = 1.0 if theta < 1.5 else 2.0
    if 0.0 < abs(theta - edge) / _EDGE_BAND < 1.0:
        step = math.copysign(_EDGE_BAND, 1.5 - edge)
        return edge, edge + step, edge + step / 2.0
    return (theta,)


def _pareto_capped_moments(theta: float, rho_min: float, b: float, u_star: np.ndarray, kernels):
    """Moments of the Pareto rate truncated at per-node caps ``rho* = u_star / b``, all closed-form.

    Returns ``(P(served), E[rho; served], E[e^(b rho) - 1; served])`` per entry of ``u_star``, zeros
    where ``rho* < rho_min`` (not even the minimum rate is served).  With ``l = ln(rho* / rho_min)``,
    ``P(served) = -expm1(-theta l)`` and ``E[rho; served] = theta rho_min l exprel(-(theta-1) l)``, exact
    as ``theta -> 1`` and ``rho* -> rho_min``.  The last is :func:`_exp_moment` (``Ei`` at ``theta = 2``);
    within ``_EDGE_BAND`` of ``theta = 1`` or ``2``, the quadratic through the endpoint and two band points.
    ``kernels`` holds :func:`_exp_kernel` at ``u_star`` for each of :func:`_moment_thetas`.
    """
    u_min = b * rho_min
    served = u_star >= u_min
    u_cap = np.maximum(u_star, u_min)
    ell = np.log(u_cap / u_min)
    p_ok = np.where(served, -np.expm1(-theta * ell), 0.0)
    e_rho = np.where(served, theta * rho_min * ell * special.exprel(-(theta - 1.0) * ell), 0.0)
    thetas = _moment_thetas(theta)
    e_exp, *band = (_exp_moment(th, u_min, u_cap, k) for th, k in zip(thetas, kernels))
    if band:
        e1, e_half = band
        t = abs(theta - thetas[0]) / _EDGE_BAND
        e_exp = (2.0 * t - 1.0) * ((t - 1.0) * e_exp + t * e1) + 4.0 * t * (1.0 - t) * e_half
    return p_ok, e_rho, np.where(served, e_exp, 0.0)


_N_SHADOW = 96
_N_GAIN = 128


@functools.lru_cache(maxsize=1)
def _curve_nodes(theta: float, sigma: float, m: int, c: float, n_shadow: int, n_gain: int):
    """Read-only node weights, peak SNRs ``x = c w g``, caps ``u* = ln(1 + x)`` and kernels at ``u*``.

    ``w`` are the shadowing nodes, ``g`` the gain nodes and ``c = p_link_max path_gain / i_avg``.  The
    stream count ``s`` cancels: the rate cap is ``rho* = s b_w log2(1 + x)`` and ``b = ln 2 / (s b_w)``,
    so ``u* = b rho*`` does not depend on it, nor do the :func:`_exp_kernel` values at ``u*``, one per
    :func:`_moment_thetas`.  Along a curve of figures 9-11 (``n = n_t = s``, gain shape 1) every
    point shares one entry; the memo holds only the current curve's.
    """
    if sigma > 0:
        t, wt = _gauss_nodes(special.roots_hermite, n_shadow)
        w_nodes = np.exp(math.sqrt(2.0) * sigma * t * (math.log(10.0) / 10.0))
        w_weights = wt / math.sqrt(math.pi)
    else:
        w_nodes = np.array([1.0])
        w_weights = np.array([1.0])
    g_nodes, g_wt = _gauss_nodes(special.roots_genlaguerre, n_gain, m - 1)
    g_weights = g_wt / special.gamma(m)

    with np.errstate(over="ignore"):  # an overflow to inf is caught by the guard below
        x_peak = c * np.outer(w_nodes, g_nodes)
    if not x_peak.max() < 1e300:  # the e^(b rho) terms of the power moment would overflow
        raise ParameterError(f"peak SNR at the power cap reaches {x_peak.max():.3g}; interference too weak")
    u_star = np.log1p(x_peak)
    kernels = [_exp_kernel(th, u_star) for th in _moment_thetas(theta)]
    arrays = (np.outer(w_weights, g_weights), x_peak, u_star, *kernels)
    for a in arrays:
        a.flags.writeable = False
    return arrays


def energy_efficiency_quad(
    cfg: AntennaConfig,
    tm: TrafficModel,
    scenario: InterferenceScenario,
    energy: EnergyModel,
    i_avg: float,
    station_intensity: float,
) -> float:
    """Deterministic energy efficiency: quadrature twin of :func:`energy_efficiency_mc`.

    Gauss-Hermite nodes cover the lognormal shadowing, generalized Gauss-Laguerre
    nodes the Gamma stream gain; at each node the capped Pareto rate moments are
    closed-form: elementary for the traffic, one ``1F1(a; a+1; u)`` antiderivative
    with ``a = 2 - theta`` for the power, ``Ei`` at ``theta = 2``.  The power cap creates
    kinks in the per-node integrands, so the node counts (``_N_SHADOW`` x ``_N_GAIN``)
    are high; halving them moves results by well under a percent.

    The nodes, peak SNRs and ``1F1`` kernels depend on ``theta``, the shadowing spread,
    the gain shape and ``p_link_max path_gain / i_avg``, not on the stream count, whose
    ``ln 2 / (s b_w)`` scale cancels in the cap ``u* = ln(1 + x)``.  They are computed
    once per curve (:func:`_curve_nodes`); only the elementary, ``s``-dependent part of
    the moments is evaluated per point.
    """
    c = float(energy.p_link_max * path_gain(scenario.channel, scenario.x_off) / i_avg)
    wt2d, x_peak, u_star, *kernels = _curve_nodes(
        tm.theta, scenario.channel.sigma_s_db, cfg.gain_shape, c, _N_SHADOW, _N_GAIN
    )
    b = math.log(2.0) / (cfg.s * tm.b_w)
    p_ok, e_rho, e_exp = _pareto_capped_moments(tm.theta, tm.rho_min, b, u_star, kernels)
    # required power is (e^(b rho) - 1) * cap / x_peak
    with np.errstate(invalid="ignore"):
        e_pow = np.where(p_ok > 0, e_exp * energy.p_link_max / x_peak, 0.0)

    p_served = float((wt2d * p_ok).sum())
    if 1.0 - p_served >= 1.0:  # no node serves, or too few to register against 1
        return 0.0
    mean_traffic = float((wt2d * e_rho).sum()) / p_served
    mean_power = float((wt2d * e_pow).sum()) / p_served
    return (mean_traffic / tm.b_w) / _per_link_watts(mean_power, cfg, energy, station_intensity)
