"""Heavy-tailed traffic, adaptive link power with a cap, and energy efficiency.

Each served link must deliver a Pareto-distributed rate; the station adapts
its transmit power to hit that rate against the average interference, and a
link whose required power exceeds the cap is dropped (outage).  Energy
efficiency is served traffic per consumed energy, normalized per Hz.  Two
independent routes are provided: a Monte Carlo average over joint draws of
(rate, shadowing, gain), and a deterministic tensor quadrature.  At each
quadrature node the capped rate moments are closed-form; the power moment
splits ``e^u - 1`` into ``u + u^2/2`` and a rest whose integral is
:func:`~hcppnet._special.exp_tail`, so no moment has a pole in ``theta``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._special import exp_tail, exprel
from .channel import path_gain, sample_shadowing
from .errors import ConfigurationError, ParameterError, bounded, check, check_fields
from .interference import Estimate, InterferenceScenario
from .zf_capacity import AntennaConfig, _check_link_draws, _gauss_nodes, _roots_genlaguerre, _roots_hermite

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

    theta: float = bounded((">", 1), ("<=", 2))
    rho_min: float = bounded((">", 0))
    b_w: float = bounded((">", 0))

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class EnergyModel:
    """Station power accounting.

    Exactly one of ``lambda_m`` (user intensity, links derived as
    ``lambda_m / station intensity``) or ``n_link`` (links per station,
    direct) must be set.
    """

    eta: float = bounded((">", 0), ("<=", 1))
    p_rf_chain: float = bounded((">=", 0))
    p_sta: float = bounded((">=", 0))
    p_link_max: float = bounded((">", 0))
    lambda_m: float | None = bounded((">", 0), default=None)
    n_link: float | None = bounded((">", 0), default=None)

    def __post_init__(self):
        check_fields(self)
        if (self.lambda_m is None) == (self.n_link is None):
            raise ConfigurationError("set exactly one of lambda_m and n_link")


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
    check("i_avg", i_avg, (">", 0))
    rho_arr, w_arr, g_arr = (np.asarray(a, dtype=float) for a in (rho, w_ii, gain))
    _check_link_draws(rho_arr, w_arr, g_arr)
    link_gain = path_gain(channel, x_off) * w_arr * g_arr
    out = np.empty(np.broadcast_shapes(rho_arr.shape, link_gain.shape))
    _link_power(rho_arr, cfg, tm, link_gain, i_avg, out)
    return out if out.ndim else float(out)


def _link_power(rho: np.ndarray, cfg: AntennaConfig, tm: TrafficModel, link_gain: np.ndarray, i_avg: float,
                out: np.ndarray) -> np.ndarray:
    """:func:`required_link_power` of checked arrays, with ``link_gain = path_gain * w_ii * gain``, written to ``out``.

    ``out`` has the broadcast shape of ``rho`` and ``link_gain``; the power is ``(expm1(b rho) i_avg) / link_gain``
    with ``b = ln 2 / (s b_w)``, in that order.
    """
    with np.errstate(over="ignore"):  # huge rate demands overflow to inf = sure outage
        np.expm1(np.multiply(rho, math.log(2.0) / (cfg.s * tm.b_w), out=out), out=out)
    with np.errstate(divide="ignore", over="ignore"):  # inf: unreachable at any power
        np.multiply(out, i_avg, out=out)
        return np.divide(out, link_gain, out=out)


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
    both the traffic and the power average.  The standard error is the delta method's, from the
    served draws' terms (:func:`_ee_row`) by :meth:`~hcppnet.interference.Estimate.from_influence`
    with its factor ``n/(n-1)``; it is infinite, unknown, with fewer than two served draws, and
    with none the mean is 0.  ``i_avg`` and ``station_intensity`` are the mean interference and the
    station intensity of one station model, as :func:`~hcppnet.interference.model_interference`
    returns them.
    """
    check("draws", draws, (">=", 1))
    rho = traffic_sample(tm, rng, draws)
    w = sample_shadowing(scenario.channel.sigma_s_db, rng, draws)
    g = rng.gamma(cfg.gain_shape, 1.0, draws)
    check("i_avg", i_avg, (">", 0))
    _check_link_draws(rho, w, g)
    link_gain = path_gain(scenario.channel, scenario.x_off) * w
    link_gain *= g
    ee, _, terms = _ee_row(rho, link_gain, cfg, tm, energy, i_avg, station_intensity, _row_buffers(draws))
    return Estimate.from_influence(ee, terms, draws)


def _row_buffers(draws: int) -> tuple[np.ndarray, ...]:
    """The work buffers of :func:`_ee_row` for rows of ``draws`` draws: power, served mask, served powers."""
    return np.empty(draws), np.empty(draws, dtype=bool), np.empty(draws)


def _ee_row(rho: np.ndarray, link_gain: np.ndarray, cfg: AntennaConfig, tm: TrafficModel, energy: EnergyModel,
            i_avg: float, station_intensity: float, buffers: tuple[np.ndarray, ...]):
    """Energy efficiency of one row of checked draws: ``(ee, served, terms)``, evaluated in ``buffers``.

    ``rho`` are the rate draws and ``link_gain`` the ``path_gain * w_ii * gain``
    draws paired with them; ``buffers`` are :func:`_row_buffers` of their
    length.  Beyond them a row allocates only the served draws' indices and
    the staging copies ``take`` makes of its bounds-checked gathers.
    ``served`` marks the draws within the power cap.  ``terms`` holds each
    served draw's influence term: the gradient of ``ee`` in the two
    served-draw means dotted with that draw's deviation from them, over the
    served count.  With no draw served, ``ee`` is 0 and ``terms`` is empty.
    ``served`` and ``terms`` are views of ``buffers``: use them before the
    next row is evaluated in the same buffers.
    """
    power, served, p_ok = buffers
    _link_power(rho, cfg, tm, link_gain, i_avg, power)
    np.less_equal(power, energy.p_link_max, out=served)
    idx = np.flatnonzero(served)
    n_ok = idx.size
    p_ok = power.take(idx, out=p_ok[:n_ok])
    rho_ok = rho.take(idx, out=power[:n_ok])  # the powers are gathered: reuse their buffer
    if n_ok == 0:
        return 0.0, served, rho_ok
    t_mean = float(rho_ok.mean())
    p_mean = float(p_ok.mean())
    watts = _per_link_watts(p_mean, cfg, energy, station_intensity)
    ee = (t_mean / tm.b_w) / watts
    grad_t = 1.0 / (tm.b_w * watts * n_ok)
    grad_p = -ee / (watts * energy.eta * n_ok)
    # terms = grad_t * (rho - t_mean) + grad_p * (p - p_mean), in the served rates' buffer
    terms = np.subtract(rho_ok, t_mean, out=rho_ok)
    terms *= grad_t
    p_ok -= p_mean
    p_ok *= grad_p
    terms += p_ok
    return ee, served, terms


def _summed_exponentials(rng: np.random.Generator, draws: int, shapes):
    """Yield ``(m, g)`` for each of the increasing gain ``shapes``: ``draws`` Gamma(m, 1) gains.

    Each gain is the sum of the first ``m`` of its own sequence of unit
    exponential draws, so the gains of every shape share their exponentials.
    ``g`` is one array summed in place: use it before the next step.  At
    ``m = 1`` it equals ``rng.gamma(1.0, 1.0, draws)`` bit for bit.
    """
    g = np.zeros(draws)
    m = 0
    for shape in shapes:
        while m < shape:
            g += rng.standard_exponential(draws)
            m += 1
        yield m, g


def _shared_draw_terms(rows, draws: int, rng: np.random.Generator):
    """Yield ``(k, terms)``: the :func:`_ee_row` of each row ``k`` of ``rows``, all on one set of draws.

    A row is the ``(cfg, tm, scenario, energy, i_avg, station_intensity)`` of
    :func:`energy_efficiency_quad`; the rows share the shadowing spread.  The
    set is drawn in the order :func:`energy_efficiency_mc` draws one row's:
    ``draws`` uniforms, from which each traffic model's Pareto rates follow
    by inverse CDF, then the shadowing, then unit exponentials, the first
    ``m`` of which sum to the gain of a row of gain shape ``m``
    (:func:`_summed_exponentials`).  Rows are evaluated in order of gain
    shape, and in the given order within one.  Rows that share draws are
    correlated.  Each array is checked once, not once per row.  Every row is
    evaluated in one set of :func:`_row_buffers`, and the link gain is formed
    once per path gain and gain shape, so a row's ``served`` and ``terms`` are
    valid only until the next step, as :func:`_summed_exponentials`' gains are.
    """
    check("draws", draws, (">=", 1))
    sigma = rows[0][2].channel.sigma_s_db
    if any(row[2].channel.sigma_s_db != sigma for row in rows):
        raise ParameterError("the rows of one draw set must share sigma_s_db")
    u = 1.0 - rng.random(draws)  # as traffic_sample draws it
    w = sample_shadowing(sigma, rng, draws)
    _check_link_draws(w_ii=w)
    by_shape: dict[int, list[int]] = {}
    for k, row in enumerate(rows):
        by_shape.setdefault(row[0].gain_shape, []).append(k)
    buffers = _row_buffers(draws)
    link_gain, rho = np.empty(draws), np.empty(draws)
    rates_of = None
    for m, g in _summed_exponentials(rng, draws, sorted(by_shape)):
        _check_link_draws(gain=g)
        gain_of = None
        for k in by_shape[m]:
            cfg, tm, scenario, energy, i_avg, station_intensity = rows[k]
            if rates_of != (tm.theta, tm.rho_min):  # rows come curve by curve: one traffic model's rates at a time
                rates_of = tm.theta, tm.rho_min
                np.power(u, -1.0 / tm.theta, out=rho)
                rho *= tm.rho_min  # rho_min * u^(-1/theta), as traffic_sample computes it
                _check_link_draws(rho=rho)
            check("i_avg", i_avg, (">", 0))
            pg = path_gain(scenario.channel, scenario.x_off)
            if gain_of != pg:  # (path_gain * w) * g, once per path gain at this gain shape
                gain_of = pg
                np.multiply(pg, w, out=link_gain)
                link_gain *= g
            yield k, _ee_row(rho, link_gain, cfg, tm, energy, i_avg, station_intensity, buffers)


def _pareto_capped_moments(theta: float, rho_min: float, b: float, u_star: np.ndarray, tail_star: np.ndarray):
    """Moments of the Pareto rate truncated at per-node caps ``rho* = u_star / b``, all closed-form.

    Returns ``(P(served), E[rho; served], E[e^(b rho) - 1; served])`` per entry of ``u_star``, zeros
    where ``rho* < rho_min`` (not even the minimum rate is served).  With ``l = ln(rho* / rho_min)``,
    ``P(served) = -expm1(-theta l)`` and ``E[rho; served] = theta rho_min l exprel(-(theta-1) l)``, exact
    as ``theta -> 1`` and ``rho* -> rho_min``.  For the last, ``u = b rho`` has the density ``theta
    u_min^theta u^(-theta-1)`` from ``u_min = b rho_min``, and ``e^u - 1 = u + u^2/2 + (e^u - 1 - u - u^2/2)``:
    ``b E[rho; served] + theta l (u_min^2/2) exprel((2-theta) l) + theta u_min^theta (R(u*) - R(u_min))``
    with ``R`` = :func:`~hcppnet._special.exp_tail`, whose value at ``u_star`` is ``tail_star``.  Every
    term is positive and none has a pole in ``theta``.
    """
    u_min = b * rho_min
    served = u_star >= u_min
    ell = np.log(np.maximum(u_star, u_min) / u_min)
    p_ok = np.where(served, -np.expm1(-theta * ell), 0.0)
    e_rho = np.where(served, theta * rho_min * ell * exprel(-(theta - 1.0) * ell), 0.0)
    e_exp = (
        b * e_rho
        + theta * ell * (u_min**2 / 2.0) * exprel((2.0 - theta) * ell)
        + theta * u_min**theta * (tail_star - _floor_tail(theta, u_min))
    )
    return p_ok, e_rho, np.where(served, e_exp, 0.0)


@functools.lru_cache(maxsize=128)
def _floor_tail(theta: float, u_min: float):
    """``R(u_min)`` at the rate floor ``u_min = b rho_min``: one value per ``theta`` and stream count of a sweep."""
    return exp_tail(theta, u_min)


_N_SHADOW = 96
_N_GAIN = 128
# unit roundoff squared, 2**-106: the nodes lighter than this fraction of the heaviest are dropped
_WEIGHT_CUT = (np.finfo(float).eps / 2.0) ** 2


@functools.lru_cache(maxsize=1)
def _curve_nodes(theta: float, sigma: float, m: int, c: float, n_shadow: int, n_gain: int):
    """Read-only weights, peak SNRs ``x = c w g``, caps ``u* = ln(1 + x)`` and ``R(u*)`` of the kept nodes.

    ``w`` are the shadowing nodes, ``g`` the gain nodes and ``c = p_link_max path_gain / i_avg``.  The
    stream count ``s`` cancels: the rate cap is ``rho* = s b_w log2(1 + x)`` and ``b = ln 2 / (s b_w)``,
    so ``u* = b rho*`` does not depend on it, nor does ``R(u*)``, the :func:`~hcppnet._special.exp_tail`
    at ``theta``.  Along a curve of figures 9-11 (``n = n_t = s``, gain shape 1) every point shares one
    entry; the memo holds only the current curve's.

    The peak-SNR guard runs on the whole tensor.  Then only the nodes whose product weight is at least
    ``_WEIGHT_CUT`` (``2**-106``) times the heaviest are kept, as 1-D arrays in row-major order: 3522,
    3770 and 4212 of the 96 x 128 at gain shapes 1, 4 and 16.  The dropped nodes weigh less than
    ``n_shadow n_gain 2**-106`` of the heaviest, under 1e-32 in total: far below ``2**-53``, the smallest
    ``P(served)`` that :func:`energy_efficiency_quad` reports as more than 0.
    """
    if sigma > 0:
        t, wt = _gauss_nodes(_roots_hermite, n_shadow)
        w_nodes = np.exp(math.sqrt(2.0) * sigma * t * (math.log(10.0) / 10.0))
        w_weights = wt / math.sqrt(math.pi)
    else:
        w_nodes = np.array([1.0])
        w_weights = np.array([1.0])
    g_nodes, g_weights = _gauss_nodes(_roots_genlaguerre, n_gain, m - 1)

    with np.errstate(over="ignore"):  # an overflow to inf is caught by the guard below
        x_peak = c * np.outer(w_nodes, g_nodes)
    if not x_peak.max() < 1e300:  # the e^(b rho) terms of the power moment would overflow
        raise ParameterError(f"peak SNR at the power cap reaches {x_peak.max():.3g}; interference too weak")
    weights = np.outer(w_weights, g_weights)
    kept = weights >= _WEIGHT_CUT * weights.max()
    x_peak = x_peak[kept]
    u_star = np.log1p(x_peak)
    arrays = (weights[kept], x_peak, u_star, exp_tail(theta, u_star))
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
    closed-form: elementary for the traffic, and for the power elementary terms plus
    the pole-free series ``R(u) = int_0^u (e^t - 1 - t - t^2/2) t^(-theta-1) dt``
    (:func:`_pareto_capped_moments`).  The rule is the ``_N_SHADOW`` x ``_N_GAIN``
    tensor, summed over the nodes whose weight is at least ``2**-106`` of the
    heaviest (:func:`_curve_nodes`): about a third of them.  Over figures 8-11 and
    400 random points, the kept sum is within 8e-16 relative of the full one.

    The nodes, peak SNRs and ``R`` at the caps depend on ``theta``, the shadowing spread,
    the gain shape and ``p_link_max path_gain / i_avg``, not on the stream count, whose
    ``ln 2 / (s b_w)`` scale cancels in the cap ``u* = ln(1 + x)``.  They are computed
    once per curve (:func:`_curve_nodes`); only the elementary, ``s``-dependent part of
    the moments is evaluated per point, and the one value ``R(u_min)`` once per ``theta``
    and stream count (:func:`_floor_tail`).
    """
    c = float(energy.p_link_max * path_gain(scenario.channel, scenario.x_off) / i_avg)
    weights, x_peak, u_star, tail_star = _curve_nodes(
        tm.theta, scenario.channel.sigma_s_db, cfg.gain_shape, c, _N_SHADOW, _N_GAIN
    )
    b = math.log(2.0) / (cfg.s * tm.b_w)
    p_ok, e_rho, e_exp = _pareto_capped_moments(tm.theta, tm.rho_min, b, u_star, tail_star)
    # required power is (e^(b rho) - 1) * cap / x_peak
    with np.errstate(invalid="ignore"):
        e_pow = np.where(p_ok > 0, e_exp * energy.p_link_max / x_peak, 0.0)

    p_served = float((weights * p_ok).sum())
    if 1.0 - p_served >= 1.0:  # no node serves, or too few to register against 1
        return 0.0
    mean_traffic = float((weights * e_rho).sum()) / p_served
    mean_power = float((weights * e_pow).sum()) / p_served
    return (mean_traffic / tm.b_w) / _per_link_watts(mean_power, cfg, energy, station_intensity)
