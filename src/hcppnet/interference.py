"""Average downlink interference at a tagged user.

Three routes to the same quantity: a radial quadrature on fixed, graded
Gauss-Legendre nodes for the hard-core deployment, a closed form for the
Poisson baseline, and a Monte Carlo estimator that replays the physical
model (sample a deployment, drop a user, add up mean received powers).  The
analytic and Monte Carlo routes are independent and agree in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._special import hyp2f1_far, hyp2f1_near
from .channel import ChannelParams, mean_shadowing
from .errors import DivergenceError, ParameterError, bounded, check, check_fields
from .point_process import (
    HcppParams,
    Window,
    first_moment,
    sample_ppp,
    second_moment,
)

__all__ = [
    "InterferenceScenario",
    "Estimate",
    "avg_interference_hcpp",
    "avg_interference_ppp",
    "mc_interference",
    "mc_interference_ppp",
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
    x_off: float = bounded((">=", 0))
    mean_tx_power: float = bounded((">", 0))

    def __post_init__(self):
        check_fields(self)


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
    return r_start ** (2.0 - alpha) / (alpha - 2.0) * hyp2f1_far(alpha, (d / r_start) ** 2)


_PANEL_RATIO = 4.0  # largest ratio of outer to inner r - x_off on one near-field panel
_SPAWN_CHUNK = 1024  # Monte Carlo child streams spawned at a time; realizations per unit of a figure's pool work
# Gauss-Legendre nodes and weights of one panel, on [0, 1]: the values of scipy.special.roots_sh_legendre(16),
# written out so that no run needs scipy
_GL_U = np.array([
    0.005299532504175031, 0.0277124884633837, 0.06718439880608412, 0.1222977958224985,
    0.19106187779867811, 0.27099161117138626, 0.35919822461037054, 0.4524937450811813,
    0.5475062549188188, 0.6408017753896295, 0.7290083888286137, 0.8089381222013219,
    0.8777022041775016, 0.9328156011939159, 0.9722875115366163, 0.994700467495825,
])
_GL_W = np.array([
    0.013576229705878233, 0.031126761969323815, 0.04757925584124616, 0.062314485627766814,
    0.07479799440828819, 0.08457825969750106, 0.09130170752246164, 0.09472530522753406,
    0.09472530522753406, 0.09130170752246164, 0.08457825969750106, 0.07479799440828819,
    0.062314485627766814, 0.04757925584124616, 0.031126761969323815, 0.013576229705878233,
])


def _near_radial_integral(hcpp: HcppParams, d: float, alpha: float) -> float:
    # int_delta^{2 delta} g(r) r^{1-alpha} F(a,a;1;(d/r)^2) dr, g the pair density.  By Euler, F(a,a;1;z) =
    # (1-z)^{1-alpha} F(1-a,1-a;1;z) with 1-z = s (r+d)/r^2, s = r - d: the kernel is (r/(s (r+d)))^{alpha-1}
    # times a bounded F.  Geometric panels in s on [delta, 1.5 delta] resolve its peak as d nears delta; on
    # [1.5 delta, 2 delta], r = 2 delta - (delta/2) u^2 absorbs the (2 delta - r)^{3/2} kink of g.
    delta = hcpp.delta
    s_lo, s_hi = delta - d, 1.5 * delta - d
    edges = np.geomspace(s_lo, s_hi, 1 + math.ceil(math.log(s_hi / s_lo, _PANEL_RATIO)))
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    s = np.append(lo + width * _GL_U, 2.0 * delta - 0.5 * delta * _GL_U**2 - d)
    weights = np.append(width * _GL_W, delta * _GL_U * _GL_W)
    r = d + s
    kernel = (r / (s * (r + d))) ** (alpha - 1.0)
    if kernel.any():  # at a steep alpha every node's power can underflow, and then F, perhaps past the double range, is moot
        kernel *= hyp2f1_near(alpha, (d / r) ** 2)
    # d + s can round down onto delta, where the pair density drops to zero
    pair = second_moment(np.maximum(r, np.nextafter(delta, math.inf)), hcpp)
    return float(np.sum(weights * pair * kernel))


def _finite(mean_of, scenario: InterferenceScenario, what: str) -> float:
    """``mean_of(scenario)``, or DivergenceError where that mean leaves the double range."""
    try:
        # a zero divisor, an overflow or inf * 0 ends in a non-finite mean, reported below
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            mean = mean_of(scenario)
    except OverflowError:  # a float power out of range
        mean = math.inf
    if not math.isfinite(mean):
        raise DivergenceError(
            f"{what} overflows double precision at x_off={scenario.x_off}, alpha={scenario.channel.alpha}"
        )
    return mean


def _hcpp_mean(scenario: InterferenceScenario) -> float:
    hcpp, ch, d = scenario.hcpp, scenario.channel, scenario.x_off
    # the exclusion discs of two stations separate at 2*delta; beyond it the
    # pair intensity is the plateau zeta1**2
    near = _near_radial_integral(hcpp, d, ch.alpha)
    zeta1 = first_moment(hcpp)
    far = zeta1**2 * _tail_radial_integral(2.0 * hcpp.delta, d, ch.alpha)

    prefactor = ch.beta * mean_shadowing(ch.sigma_s_db) * scenario.mean_tx_power / zeta1
    return prefactor * 2.0 * np.pi * (near + far)


def avg_interference_hcpp(scenario: InterferenceScenario) -> float:
    """Mean aggregate interference under the hard-core deployment.

    Integrates the pair-intensity-weighted power law radially from the
    exclusion radius to ``2 * delta`` on fixed Gauss-Legendre panels, graded
    geometrically towards the exclusion radius, and adds the far field
    beyond, where the pair intensity is flat, in closed form.  At radius
    ``r`` the user, on a circle of radius ``x_off`` around its station, sees
    the power law averaged over a uniform angle, which is exactly
    ``r**-alpha * F(alpha/2, alpha/2; 1; (x_off/r)**2)`` with ``F`` the
    Gauss hypergeometric function.  Requires ``x_off`` strictly inside the
    exclusion radius; at or beyond it an interferer can sit on top of the
    user and the mean diverges.  A mean too large for a double, as at a
    steep ``alpha`` with ``x_off`` next to ``delta``, raises
    :class:`DivergenceError` too.
    """
    d, delta = scenario.x_off, scenario.hcpp.delta
    if d >= delta:
        raise DivergenceError(
            f"analytic mean interference needs x_off < delta, got x_off={d}, delta={delta}"
        )
    return _finite(_hcpp_mean, scenario, "analytic mean interference")


def _ppp_mean(scenario: InterferenceScenario) -> float:
    ch = scenario.channel
    scale = 2.0 * np.pi * scenario.hcpp.lambda_p * ch.beta * mean_shadowing(ch.sigma_s_db) * scenario.mean_tx_power
    return scale * scenario.x_off ** (2.0 - ch.alpha) / (ch.alpha - 2.0)


def avg_interference_ppp(scenario: InterferenceScenario) -> float:
    """Mean interference for Poisson-placed stations outside the serving distance.

    With no minimum spacing, interferers are excluded only from the disc of
    radius ``x_off`` around the user (nearest-station association), giving
    ``2 pi lambda beta E(w) P x_off^(2-alpha) / (alpha-2)`` in closed form.
    Diverges as ``x_off -> 0``: at 0, or where the mean is too large for a
    double, it raises :class:`DivergenceError`.
    """
    if scenario.x_off <= 0:
        raise DivergenceError("the Poisson mean interference diverges at x_off = 0")
    return _finite(_ppp_mean, scenario, "the Poisson mean interference")


def _truncation_radius(rows) -> float:
    # the closed-form far field is exact beyond 2 (delta + x_off): past 2 delta the pair density is flat, and past
    # 2 x_off a Poisson user's exclusion disc lies inside the truncation disc and the far-field F argument is < 1/4;
    # the largest radius any row needs is exact for them all
    return max(2.0 * (s.hcpp.delta + s.x_off) + 2.0 / math.sqrt(s.hcpp.lambda_p) for s, _ in rows)


def _min_image(points: np.ndarray, side: float) -> tuple[np.ndarray, np.ndarray]:
    """Differences ``points[j] - points[i]`` at ``[i, j]`` on the torus of edge ``side``, and their squared norms."""
    diff = points[None, :, :] - points[:, None, :]
    diff -= side * np.round(diff / side)  # minimum image
    return diff, np.einsum("ijk,ijk->ij", diff, diff)


def _mark_thinning(dist2: np.ndarray, marks: np.ndarray, delta: float) -> np.ndarray:
    """Indices of the Matern type-II survivors, given the squared pair distances ``dist2`` of the parents.

    A parent dies when another within ``delta`` (inclusive) has a smaller
    mark, or an equal mark and an earlier index, as in
    :func:`~hcppnet.point_process.matern2_thin`; ``delta == 0`` keeps every parent.
    """
    n = len(marks)
    if delta == 0:
        return np.arange(n)
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(marks, kind="stable")] = np.arange(n)
    beaten = (dist2 <= delta**2) & (rank[:, None] < rank[None, :])
    return np.flatnonzero(~beaten.any(axis=0))


def _user_distances2(offsets: np.ndarray, px: np.ndarray, py: np.ndarray, ux: np.ndarray, uy: np.ndarray):
    """Squared distances ``|p - x u|**2`` from each pair's user at each offset ``x``, as an ``(offsets, pairs)`` array.

    ``p`` is the pair's station-to-interferer vector and ``u`` its user's
    unit direction.  Computed in place, so that at most two such arrays are
    alive at once.
    """
    dx = np.multiply.outer(offsets, ux)
    dy = np.multiply.outer(offsets, uy)
    np.subtract(px, dx, out=dx)
    np.subtract(py, dy, out=dy)
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _one_realization(lambda_p: float, plan, r_trunc: float, rng: np.random.Generator, n_rows: int):
    """Summed truncated path loss ``d**-alpha`` per row over every station of one deployment, and their count.

    The parents live on a torus of side ``2 * r_trunc``; each spacing of
    ``plan`` (see :func:`_row_plan`) thins them on one minimum-image matrix,
    and each survivor is tagged in turn, as :func:`mc_interference`
    describes.  A spacing's pairs within ``r_trunc`` are gathered once; the
    user-to-station distances are computed once per distinct offset, and
    the rows' powers and sums are whole-array operations over that offset
    table.  ``nearest`` rows also drop interferers within ``x_off`` of the
    user (nearest-station association, for the Poisson baseline), filtered
    per offset so that each row sums the same values in the same order as
    it would alone.
    """
    side = 2.0 * r_trunc
    parents = sample_ppp(lambda_p, Window(0.0, side, 0.0, side), rng)
    marks = rng.random(len(parents))
    diff, dist2 = _min_image(parents, side)
    kept = [_mark_thinning(dist2, marks, delta) for delta, *_ in plan]
    # the survivors of the smallest spacing include those of every larger one
    theta = rng.uniform(0.0, 2.0 * np.pi, len(kept[0]))
    ux, uy = np.empty(len(parents)), np.empty(len(parents))
    ux[kept[0]], uy[kept[0]] = np.cos(theta), np.sin(theta)
    totals, counts = np.empty(n_rows), np.empty(n_rows)
    for stations, (_, offsets, ks, plain, near) in zip(kept, plan):
        inplay = dist2[np.ix_(stations, stations)] <= r_trunc**2
        np.fill_diagonal(inplay, False)
        user_idx, station_idx = np.nonzero(inplay)
        users = stations[user_idx]
        # take on the flat index is several times faster than indexing diff by the two index arrays
        px, py = diff.reshape(-1, 2).take(users * len(parents) + stations[station_idx], axis=0).T
        d2 = _user_distances2(offsets, px, py, ux[users], uy[users])
        k, x_idx, neg_half_alpha = plain
        powered = d2[x_idx]  # (rows, pairs); the power overwrites it, so one such array is alive at a time
        totals[k] = np.power(powered, neg_half_alpha[:, None], out=powered).sum(axis=1)
        for j, x_sq, k, neg_half_alpha in near:
            beyond = d2[j][d2[j] > x_sq]
            totals[k] = (beyond ** neg_half_alpha[:, None]).sum(axis=1)
        counts[ks] = len(stations)
    return totals, counts


def _row_plan(rows) -> list[tuple]:
    """How every realization serves ``rows``: one entry per spacing, in ascending spacing.

    An entry is ``(delta, offsets, ks, plain, near)``: the distinct user
    offsets of the spacing's rows; the indices ``k`` of all of them; its rows
    without ``nearest`` as three arrays (``k``, offset index, ``-alpha/2``);
    and, for each distinct offset of its ``nearest`` rows, the tuple (offset
    index, ``x_off**2``, ``k`` array, ``-alpha/2`` array).
    """
    plan = []
    for delta in sorted({s.hcpp.delta for s, _ in rows}):
        members = [(k, s.x_off, -s.channel.alpha / 2.0, nearest)
                   for k, (s, nearest) in enumerate(rows) if s.hcpp.delta == delta]
        offsets = list(dict.fromkeys(x for _, x, _, _ in members))
        near: dict[float, list] = {}
        for k, x, p, nearest in members:
            if nearest:
                near.setdefault(x, []).append((k, p))
        plain = [(k, offsets.index(x), p) for k, x, p, nearest in members if not nearest]
        k, x_idx, p = zip(*plain) if plain else ((), (), ())
        plan.append((
            delta,
            np.array(offsets),
            np.array([m[0] for m in members]),
            (np.array(k, dtype=np.intp), np.array(x_idx, dtype=np.intp), np.array(p, dtype=float)),
            [(offsets.index(x), x**2, np.array([k for k, _ in kp]), np.array([p for _, p in kp]))
             for x, kp in near.items()],
        ))
    return plan


def _child_streams(rng: np.random.Generator, n: int):
    """Child streams ``0 .. n-1`` of ``rng``, as ``rng.spawn(n)`` gives them, spawned a chunk at a time.

    Each child holds about 1 KB, so spawning them all up front costs memory in
    proportion to ``n``; spawning them one by one slows the loop that uses them.
    """
    for start in range(0, n, _SPAWN_CHUNK):
        yield from rng.spawn(min(_SPAWN_CHUNK, n - start))


def _tagged_station_mc(rows, realizations: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-realization path-loss totals and station counts of each row, as two ``(len(rows), realizations)`` arrays.

    ``rows`` are ``(scenario, nearest)`` pairs that share one layout set:
    every realization draws one parent pattern, at their common ``lambda_p``,
    on the torus of the largest truncation radius among them, and serves
    every row from it.  Realization ``i`` consumes child stream ``i`` of
    ``rng``.  The rows are grouped once per call (:func:`_row_plan`): by
    spacing, then by distinct user offset, so that a realization sums every
    row of a spacing in a few array operations instead of one pass per row.
    Each row's sum still runs over the same values in the same order as a
    row summed on its own, so for a single row the draws and the arithmetic
    are those of a run of that row alone.
    """
    check("realizations", realizations, (">=", 1))
    lambda_p = rows[0][0].hcpp.lambda_p
    if any(s.hcpp.lambda_p != lambda_p for s, _ in rows):
        raise ParameterError("the rows of one layout set must share lambda_p")
    r_trunc = _truncation_radius(rows)
    plan = _row_plan(rows)
    totals = np.empty((len(rows), realizations))
    counts = np.empty((len(rows), realizations))
    for i, stream in enumerate(_child_streams(rng, realizations)):
        totals[:, i], counts[:, i] = _one_realization(lambda_p, plan, r_trunc, stream, len(rows))
    return totals, counts


def _estimates(rows, totals: np.ndarray, counts: np.ndarray) -> list[Estimate]:
    """Each row's mean interference from its per-realization totals and counts (see :func:`_tagged_station_mc`)."""
    r_trunc = _truncation_radius(rows)
    out = []
    for (scenario, _), row_totals, row_counts in zip(rows, totals, counts):
        ch = scenario.channel
        # shadowing and fading are independent of the layout: each w * g enters by its mean
        scale = ch.beta * mean_shadowing(ch.sigma_s_db) * scenario.mean_tx_power
        plateau = first_moment(scenario.hcpp)  # pair density / intensity beyond the truncation radius
        tail = 2.0 * math.pi * plateau * _tail_radial_integral(r_trunc, scenario.x_off, ch.alpha)
        mean = float(row_totals.sum() / row_counts.sum())
        if len(row_totals) >= 2:
            resid = row_totals - mean * row_counts
            std_error = float(np.sqrt(np.sum(resid**2)) / row_counts.sum())
        else:
            std_error = float("inf")
        out.append(Estimate(mean=scale * (mean + tail), std_error=scale * std_error, replications=len(row_totals)))
    return out


def _mc_row(model: str, scenario: InterferenceScenario) -> tuple[InterferenceScenario, bool]:
    """The ``(scenario, nearest)`` row the tagged-station estimator runs for a station model.

    The Poisson baseline is the hard-core process with no spacing, with the
    interferers within ``x_off`` of each user dropped.
    """
    if model == "hcpp":
        return scenario, False
    if scenario.x_off <= 0:
        raise DivergenceError("the Poisson mean interference diverges at x_off = 0")
    return replace(scenario, hcpp=HcppParams(scenario.hcpp.lambda_p, 0.0)), True


def mc_interference(
    scenario: InterferenceScenario,
    realizations: int,
    rng: np.random.Generator,
) -> Estimate:
    """Monte Carlo mean interference under the hard-core deployment, one deployment per realization.

    Each realization samples a hard-core station pattern on a torus of side
    twice the truncation radius ``2 * (delta + x_off) + 2 / sqrt(lambda_p)``
    and tags every station on it as a serving station in turn: the user sits
    at ``x_off`` in a uniform direction, and the path loss is summed from
    each station within the truncation radius of the serving one, by
    minimum-image distance.  The torus is exact, not an edge approximation:
    the truncation radius exceeds ``2 * delta``, so no exclusion disc meets
    its own image and up to it the pair density is the planar one.
    Shadowing and fading are independent of the layout, so each faded power
    enters by its conditional mean ``mean_shadowing(sigma_s_db)``
    (conditional Monte Carlo): no shadowing or fading is drawn, and the
    user's angle is the only randomness besides the layout.  Averaging over
    every station (ratio of sums across realizations) is what makes the
    estimate unbiased for the typical-station mean; singling out one station
    by any fixed rule, such as the one nearest the window center, favours
    stations with emptier surroundings and underestimates badly.  The
    expected far field beyond the truncation radius, where the pair density
    has exactly its plateau value, is added in closed form.  The standard
    error comes from the usual ratio-estimator linearization over
    realizations.  Replication ``i`` always consumes stream ``i`` spawned
    from ``rng``, so enlarging ``realizations`` extends a run without
    perturbing earlier draws.
    """
    rows = [_mc_row("hcpp", scenario)]
    return _estimates(rows, *_tagged_station_mc(rows, realizations, rng))[0]


def mc_interference_ppp(
    scenario: InterferenceScenario,
    realizations: int,
    rng: np.random.Generator,
) -> Estimate:
    """Monte Carlo mean interference for the Poisson baseline.

    Runs the estimator of :func:`mc_interference` on Poisson stations of
    the parent intensity (the hard-core process with no spacing), tagging
    every station on the torus, and drops the interferers within
    ``x_off`` of each user (nearest-station association); by Slivnyak's
    theorem the other stations of a tagged one are again Poisson.
    Independent check of the :func:`avg_interference_ppp` closed form.
    """
    rows = [_mc_row("ppp", scenario)]
    return _estimates(rows, *_tagged_station_mc(rows, realizations, rng))[0]


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
