"""Average downlink interference at a tagged user.

Three routes to the same quantity: an analytic radial quadrature for the
hard-core deployment, a closed form for the Poisson baseline, and a Monte
Carlo estimator that replays the physical model (sample a deployment, drop
a user, add up mean received powers).  The analytic and Monte Carlo routes are
independent and are held to agree in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import integrate, special

from .channel import ChannelParams, mean_shadowing
from .errors import DivergenceError, ParameterError
from .point_process import (
    HcppParams,
    Window,
    first_moment,
    sample_hcpp,
    second_moment,
)

__all__ = [
    "InterferenceScenario",
    "Estimate",
    "avg_interference_hcpp",
    "avg_interference_ppp",
    "mc_interference",
    "mc_interference_ppp",
    "interaction_window",
    "MODELS",
    "model_interference",
]

MODELS = ("hcpp", "ppp")


@dataclass(frozen=True)
class InterferenceScenario:
    """Geometry and radio parameters for one interference evaluation.

    ``x_off`` is the distance between the tagged user and its serving base
    station; ``mean_tx_power`` the average transmit power of each
    interfering station.
    """

    hcpp: HcppParams
    channel: ChannelParams
    x_off: float
    mean_tx_power: float

    def __post_init__(self):
        if self.x_off < 0:
            raise ParameterError(f"x_off must be nonnegative, got {self.x_off}")
        if self.mean_tx_power <= 0:
            raise ParameterError(f"mean_tx_power must be positive, got {self.mean_tx_power}")


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate with its standard error."""

    mean: float
    std_error: float
    replications: int

    def __post_init__(self):
        if self.replications < 1:
            raise ParameterError(f"replications must be >= 1, got {self.replications}")
        if not self.std_error >= 0:
            raise ParameterError(f"std_error must be nonnegative, got {self.std_error}")

    @classmethod
    def from_samples(cls, values: np.ndarray) -> "Estimate":
        """Sample mean of i.i.d. draws with its standard error (``inf`` for one draw)."""
        n = values.shape[0]
        std_error = float(values.std(ddof=1) / math.sqrt(n)) if n >= 2 else float("inf")
        return cls(mean=float(values.mean()), std_error=std_error, replications=n)


def _tail_radial_integral(r_start: float, d: float, alpha: float) -> float:
    # int_{r_start}^inf r^{1-alpha} F(a,a;1;(d/r)^2) dr for d < r_start.
    # Integrating the series of F term by term gives (a)_n^2 z^n / (n!^2 (alpha-2+2n)),
    # and (alpha-2)/(alpha-2+2n) = (a-1)_n/(a)_n folds it into one F(a, a-1; 1; z).
    a = alpha / 2.0
    z = (d / r_start) ** 2
    return r_start ** (2.0 - alpha) / (alpha - 2.0) * special.hyp2f1(a, a - 1.0, 1.0, z)


def avg_interference_hcpp(scenario: InterferenceScenario) -> float:
    """Mean aggregate interference under the hard-core deployment.

    Integrates the pair-intensity-weighted power law radially from the
    exclusion radius to ``2 * delta``, and adds the far field beyond it,
    where the pair intensity is flat, in closed form.  At radius ``r`` from
    the serving station the user, on a circle of radius ``x_off`` around
    it, sees the power law averaged over a uniform angle, which is exactly
    ``r**-alpha * F(alpha/2, alpha/2; 1; (x_off/r)**2)`` with ``F`` the
    Gauss hypergeometric function.  Requires ``x_off`` strictly inside the
    exclusion radius; at or beyond it an interferer can sit on top of the
    user and the mean diverges.
    """
    hcpp = scenario.hcpp
    ch = scenario.channel
    d = scenario.x_off
    delta = hcpp.delta
    alpha = ch.alpha
    if d >= delta:
        raise DivergenceError(
            f"analytic mean interference needs x_off < delta, got x_off={d}, delta={delta}"
        )

    a = alpha / 2.0

    def radial(r):
        return second_moment(r, hcpp) * r ** (1.0 - alpha) * special.hyp2f1(a, a, 1.0, (d / r) ** 2)

    # the exclusion discs of two stations separate at 2*delta; beyond it the
    # pair intensity is the plateau zeta1**2
    near, _ = integrate.quad(radial, delta, 2.0 * delta, epsabs=0.0, epsrel=1e-10, limit=200)
    zeta1 = first_moment(hcpp)
    far = zeta1**2 * _tail_radial_integral(2.0 * delta, d, alpha)

    prefactor = ch.beta * mean_shadowing(ch.sigma_s_db) * scenario.mean_tx_power / zeta1
    return prefactor * 2.0 * np.pi * (near + far)


def avg_interference_ppp(scenario: InterferenceScenario) -> float:
    """Mean interference for Poisson-placed stations outside the serving distance.

    With no minimum spacing, interferers are excluded only from the disc of
    radius ``x_off`` around the user (nearest-station association), giving
    ``2 pi lambda beta E(w) P x_off^(2-alpha) / (alpha-2)`` in closed form.
    Diverges as ``x_off -> 0``.
    """
    ch = scenario.channel
    d = scenario.x_off
    if d <= 0:
        raise DivergenceError("the Poisson mean interference diverges at x_off = 0")
    lam = scenario.hcpp.lambda_p
    ew = mean_shadowing(ch.sigma_s_db)
    return (
        2.0
        * np.pi
        * lam
        * ch.beta
        * ew
        * scenario.mean_tx_power
        * d ** (2.0 - ch.alpha)
        / (ch.alpha - 2.0)
    )


def interaction_window(scenario: InterferenceScenario) -> tuple[Window, Window, float]:
    """Simulation window, selection region and truncation radius of the tagged-station estimator.

    The closed-form far field is exact beyond ``rho = 2 * (delta + x_off)``:
    past ``2 * delta`` the pair density is flat, and past ``2 * x_off`` a
    Poisson user's exclusion disc lies inside the truncation disc and the
    argument of the far-field ``F`` is below 1/4.  The truncation radius is
    ``rho + 2 / sqrt(lambda_p)`` on a square window of four times that side.
    The selection region is the central square of side twice the truncation
    radius, so every tagged station's truncation disc lies in the window.
    """
    r_trunc = 2.0 * (scenario.hcpp.delta + scenario.x_off) + 2.0 / math.sqrt(scenario.hcpp.lambda_p)
    return Window.square(4.0 * r_trunc), Window.square(2.0 * r_trunc), r_trunc


def _one_realization(
    scenario: InterferenceScenario,
    geometry: tuple[Window, Window, float],
    rng: np.random.Generator,
    nearest: bool = False,
) -> tuple[float, int]:
    """Summed truncated path loss ``d**-alpha`` over every tagged station, and their count.

    ``geometry`` is what :func:`interaction_window` returns.  ``nearest``
    also drops interferers within ``x_off`` of the user (nearest-station
    association, for the Poisson baseline).  An empty selection region
    gives ``(0.0, 0)``, which leaves the ratio of sums over realizations
    unbiased.
    """
    window, selection, r_trunc = geometry
    pts = sample_hcpp(scenario.hcpp, window, rng)
    sel_mask = selection.contains(pts)
    tagged = pts[sel_mask]
    theta = rng.uniform(0.0, 2.0 * np.pi, len(tagged))
    users = tagged + scenario.x_off * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    diff = pts[None, :, :] - tagged[:, None, :]
    inplay = np.einsum("ijk,ijk->ij", diff, diff) <= r_trunc**2
    inplay[np.arange(len(tagged)), np.flatnonzero(sel_mask)] = False  # a station never jams itself
    user_idx, station_idx = np.nonzero(inplay)
    diff = pts[station_idx] - users[user_idx]
    d2_user = np.einsum("ij,ij->i", diff, diff)
    if nearest:
        d2_user = d2_user[d2_user > scenario.x_off**2]
    return float(np.sum(d2_user ** (-scenario.channel.alpha / 2.0))), len(tagged)


def _tagged_station_mc(
    scenario: InterferenceScenario,
    realizations: int,
    rng: np.random.Generator,
    nearest: bool,
) -> Estimate:
    if realizations < 1:
        raise ParameterError(f"realizations must be >= 1, got {realizations}")
    geometry = interaction_window(scenario)
    r_trunc = geometry[2]
    totals = np.empty(realizations)
    counts = np.empty(realizations)
    for i, stream in enumerate(rng.spawn(realizations)):
        totals[i], counts[i] = _one_realization(scenario, geometry, stream, nearest)
    ch = scenario.channel
    # shadowing and fading are independent of the layout: each w * g enters by its mean
    scale = ch.beta * mean_shadowing(ch.sigma_s_db) * scenario.mean_tx_power
    plateau = first_moment(scenario.hcpp)  # pair density / intensity beyond the truncation radius
    tail = 2.0 * math.pi * plateau * _tail_radial_integral(r_trunc, scenario.x_off, ch.alpha)
    mean = float(totals.sum() / counts.sum())
    if realizations >= 2:
        resid = totals - mean * counts
        std_error = float(np.sqrt(np.sum(resid**2)) / counts.sum())
    else:
        std_error = float("inf")
    return Estimate(mean=scale * (mean + tail), std_error=scale * std_error, replications=realizations)


def mc_interference(
    scenario: InterferenceScenario,
    realizations: int,
    rng: np.random.Generator,
) -> Estimate:
    """Monte Carlo mean interference under the hard-core deployment, one deployment per realization.

    Each realization samples a hard-core station pattern on the window of
    :func:`interaction_window` and tags every station in its central
    selection region as a serving station in turn: the user sits at
    ``x_off`` in a uniform direction, and the path loss is summed from each
    station within the truncation radius of the serving one.  Shadowing and
    fading are independent of the layout, so each faded power enters by its
    conditional mean ``mean_shadowing(sigma_s_db)`` (conditional Monte
    Carlo): no shadowing or fading is drawn, and the user's angle is the
    only randomness besides the layout.  Averaging over all tagged stations
    (ratio of sums across realizations) is what makes the estimate unbiased
    for the typical-station mean; singling out one station by any fixed
    rule, e.g. the one nearest the window center, favours stations with
    emptier surroundings and underestimates badly.  The expected far field
    beyond the truncation radius, where the pair density has exactly its
    plateau value, is added in closed form.  The standard error comes from
    the usual ratio-estimator linearization over realizations.  Replication
    ``i`` always consumes stream ``i`` spawned from ``rng``, so enlarging
    ``realizations`` extends a run without perturbing earlier draws.
    """
    return _tagged_station_mc(scenario, realizations, rng, nearest=False)


def mc_interference_ppp(
    scenario: InterferenceScenario,
    realizations: int,
    rng: np.random.Generator,
) -> Estimate:
    """Monte Carlo mean interference for the Poisson baseline.

    Runs the estimator of :func:`mc_interference` on Poisson stations of
    the parent intensity (the hard-core process with no spacing), tagging
    every station in the selection region, and drops the interferers within
    ``x_off`` of each user (nearest-station association); by Slivnyak's
    theorem the other stations of a tagged one are again Poisson.
    Independent check of the :func:`avg_interference_ppp` closed form.
    """
    if scenario.x_off <= 0:
        raise DivergenceError("the Poisson mean interference diverges at x_off = 0")
    poisson = replace(scenario, hcpp=HcppParams(scenario.hcpp.lambda_p, 0.0))
    return _tagged_station_mc(poisson, realizations, rng, nearest=True)


def model_interference(
    model: str,
    scenario: InterferenceScenario,
    realizations: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[float, float, Estimate | None]:
    """Analytic mean interference, station intensity and Monte Carlo estimate for a station model.

    ``model`` is ``"hcpp"`` (hard-core stations, retained intensity) or
    ``"ppp"`` (the Poisson baseline, parent intensity).  The Monte Carlo
    estimator runs only when ``realizations`` is given; otherwise the
    estimate is ``None``.
    """
    if model not in MODELS:
        raise ParameterError(f"model must be one of {MODELS}, got {model!r}")
    hcpp = model == "hcpp"
    analytic = avg_interference_hcpp(scenario) if hcpp else avg_interference_ppp(scenario)
    intensity = first_moment(scenario.hcpp) if hcpp else scenario.hcpp.lambda_p
    if realizations is None:
        return analytic, intensity, None
    runner = mc_interference if hcpp else mc_interference_ppp
    return analytic, intensity, runner(scenario, realizations, rng)
