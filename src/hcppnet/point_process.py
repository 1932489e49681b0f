"""Planar Poisson and Matern type-II hard-core point processes.

Samplers operate on rectangular windows and are driven by an explicit
``numpy.random.Generator``.  Closed-form first and second moments of the
hard-core process are provided alongside, so Monte Carlo estimates can be
checked against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, bounded, check, check_fields

__all__ = [
    "Window",
    "HcppParams",
    "sample_ppp",
    "sample_hcpp",
    "matern2_thin",
    "first_moment",
    "union_area",
    "pair_retention",
    "second_moment",
]


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangular observation window (closed on all sides)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ParameterError(f"degenerate window: {self}")

    @classmethod
    def square(cls, side: float) -> "Window":
        """Square of edge ``side`` centred at the origin."""
        check("side", side, (">", 0))
        h = side / 2.0
        return cls(-h, h, -h, h)

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def expand(self, margin: float) -> "Window":
        """Window grown by ``margin`` on every side."""
        check("margin", margin, (">=", 0))
        return Window(self.x_min - margin, self.x_max + margin, self.y_min - margin, self.y_max + margin)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of rows of ``points`` lying in the closed window."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (
            (pts[:, 0] >= self.x_min)
            & (pts[:, 0] <= self.x_max)
            & (pts[:, 1] >= self.y_min)
            & (pts[:, 1] <= self.y_max)
        )


@dataclass(frozen=True)
class HcppParams:
    """Hard-core process parameters: parent intensity and exclusion radius.

    ``delta == 0`` degenerates to the parent Poisson process.
    """

    lambda_p: float = bounded((">", 0))
    delta: float = bounded((">=", 0))

    def __post_init__(self):
        check_fields(self)


def sample_ppp(intensity: float, window: Window, rng: np.random.Generator) -> np.ndarray:
    """Draw a homogeneous Poisson process on ``window`` as an ``(n, 2)`` array.

    The point count is Poisson with mean ``intensity * window.area`` and
    positions are independent uniforms: ``rng.random((n, 2))`` scaled and
    shifted in place, the arithmetic ``low + (high - low) * u`` of
    ``rng.uniform`` with the same draws, at a third of its call cost.
    """
    check("intensity", intensity, (">", 0))
    n = rng.poisson(intensity * window.area)
    points = rng.random((n, 2))
    points *= (window.x_max - window.x_min, window.y_max - window.y_min)
    points += (window.x_min, window.y_min)
    return points


def _close_pairs(pos: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, j)``, ``i < j``, of the points at most ``delta`` apart.

    A sweep over the points sorted by ``x``: at lag ``k`` each point is paired with the ``k``-th next one,
    among the points that have that many successors within ``delta`` along ``x``.  So the loop runs once per
    point of the most crowded ``x``-strip of width ``delta``, on arrays no longer than the pattern.
    """
    n = pos.shape[0]
    order = np.argsort(pos[:, 0], kind="stable")
    x, y = pos[order, 0], pos[order, 1]
    reach = np.searchsorted(x, x + delta, side="right") - np.arange(1, n + 1)
    by_reach = np.argsort(-reach, kind="stable")
    counts = np.searchsorted(-reach[by_reach], -np.arange(1, reach.max() + 1), side="right")  # reach >= lag
    found = [np.empty((2, 0), dtype=order.dtype)]
    for lag, count in enumerate(counts, start=1):
        i = by_reach[:count]
        j = i + lag
        dx, dy = x[j] - x[i], y[j] - y[i]
        hit = dx * dx + dy * dy <= delta * delta
        found.append(order[np.stack([i[hit], j[hit]])])
    pairs = np.sort(np.concatenate(found, axis=1), axis=0)
    return pairs[0], pairs[1]


def _matern2_losers(i: np.ndarray, j: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """The Matern type-II loser of each close pair ``(i[k], j[k])``, ``i < j``: the larger mark, on a tie ``j``."""
    return np.where(marks[i] <= marks[j], j, i)


def matern2_thin(points, delta: float, marks, window: Window) -> np.ndarray:
    """Apply Matern type-II dependent thinning to a marked pattern.

    A point survives iff no other point with a strictly smaller mark lies
    within distance ``delta`` (inclusive).  Ties are broken by position in
    the input sequence: the earlier point wins.  Retention of a point is
    decided against the full input pattern, not against other survivors:
    each close pair, found by sort and sweep, drops its loser.

    Parameters
    ----------
    points : (n, 2) array_like
        Candidate points.
    delta : float
        Exclusion radius; ``0`` keeps every point.
    marks : (n,) array_like
        Thinning marks in [0, 1], one per point.
    window : Window
        Survivors outside it are dropped.

    Returns
    -------
    (m, 2) ndarray
        The survivors inside ``window``, in input order.
    """
    check("delta", delta, (">=", 0))
    pos = np.asarray(points, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 2:
        raise ParameterError(f"points must have shape (n, 2), got {pos.shape}")
    mk = np.asarray(marks, dtype=float)
    if mk.shape != (pos.shape[0],):
        raise ParameterError(f"need one mark per point, got {mk.shape} for {pos.shape[0]} points")
    if mk.size and (mk.min() < 0.0 or mk.max() > 1.0):
        raise ParameterError("marks must lie in [0, 1]")

    keep = np.ones(pos.shape[0], dtype=bool)
    if delta > 0 and pos.shape[0] > 1:
        keep[_matern2_losers(*_close_pairs(pos, delta), mk)] = False

    survivors = pos[keep]
    return survivors[window.contains(survivors)]


def sample_hcpp(params: HcppParams, window: Window, rng: np.random.Generator) -> np.ndarray:
    """Draw the hard-core process on ``window`` without edge bias, as an ``(n, 2)`` array.

    Parents are sampled on the window grown by ``2 * delta`` so points near
    the boundary feel the same competition as interior ones; the thinned
    pattern is then clipped back to ``window``.
    """
    parents = sample_ppp(params.lambda_p, window.expand(2.0 * params.delta), rng)
    marks = rng.random(len(parents))
    return matern2_thin(parents, params.delta, marks=marks, window=window)


def first_moment(params: HcppParams) -> float:
    """Retained intensity of the hard-core process.

    Equals ``lambda_p * (1 - exp(-lambda_p * pi * delta^2)) / (lambda_p * pi
    * delta^2)``, i.e. the parent intensity times the per-point retention
    probability; continuous limit ``lambda_p`` as ``delta -> 0``.
    """
    if params.delta == 0:
        return params.lambda_p
    x = params.lambda_p * np.pi * params.delta**2
    return float(-np.expm1(-x) / (np.pi * params.delta**2))


def union_area(r: float, delta: float):
    """Area of the union of two radius-``delta`` disks with centers ``r`` apart.

    Saturates at ``2 * pi * delta^2`` once the disks separate (``r >= 2 *
    delta``).  Vectorized over ``r``.
    """
    check("delta", delta, (">", 0))
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ParameterError("distance must be nonnegative")
    full = 2.0 * np.pi * delta**2
    ratio = np.clip(r_arr / (2.0 * delta), 0.0, 1.0)
    lens = 2.0 * delta**2 * np.arccos(ratio) - r_arr * np.sqrt(np.maximum(delta**2 - r_arr**2 / 4.0, 0.0))
    out = np.where(r_arr >= 2.0 * delta, full, full - lens)
    return out if out.ndim else float(out)


def pair_retention(r: float, params: HcppParams):
    """Probability that two parents at distance ``r`` both survive thinning.

    Zero at or inside the exclusion radius; beyond ``2 * delta`` it factors
    into the squared single-point retention probability.  Vectorized over
    ``r``.
    """
    lam = params.lambda_p
    delta = params.delta
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise ParameterError("distance must be nonnegative")
    if delta == 0:
        out = np.ones_like(r_arr)  # PPP limit: retention is certain and independent
        return out if out.ndim else float(out)

    out = np.zeros_like(r_arr, dtype=float)
    active = r_arr > delta
    if np.any(active):
        v = np.asarray(union_area(r_arr[active], delta), dtype=float)
        core = np.pi * delta**2
        x = lam * core
        if x < _SERIES_BELOW:
            out[active] = _retention_series(x, lam * v)
        else:
            num = 2.0 * v * (-np.expm1(-x)) - 2.0 * core * (-np.expm1(-lam * v))
            den = lam**2 * core * v * (v - core)
            out[active] = num / den
    return out if out.ndim else float(out)


# Below this lambda_p * pi * delta^2 the closed form of pair_retention loses
# about 1e-16 / x of its value to cancellation; every figure has x > 0.07.
_SERIES_BELOW = 0.05


def _retention_series(a: float, b: np.ndarray) -> np.ndarray:
    # phi = 2 (q(a) - q(b)) / (b - a) with q(y) = -expm1(-y) / y = sum_k (-y)^k / (k+1)!,
    # so phi = 2 sum_m (-1)^m h_m / (m+2)! with h_m = sum_{j<=m} a^j b^(m-j);
    # a <= b <= 2a < 0.1 makes twelve terms exact to double precision
    h = np.ones_like(b)
    a_pow = 1.0
    coeff = 0.5
    total = np.zeros_like(b)
    for m in range(12):
        total += coeff * h
        coeff /= -(m + 3.0)
        a_pow *= a
        h = b * h + a_pow
    return 2.0 * total


def second_moment(r: float, params: HcppParams):
    """Second-order product density of the hard-core process at distance ``r``."""
    phi = pair_retention(r, params)
    return params.lambda_p**2 * phi
