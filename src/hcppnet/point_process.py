"""Planar Poisson and Matern type-II hard-core point processes.

Samplers operate on rectangular windows and are driven by an explicit
``numpy.random.Generator``.  Closed-form first and second moments of the
hard-core process are provided alongside, so Monte Carlo estimates can be
checked against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import ParameterError

__all__ = [
    "Window",
    "PointPattern",
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
    def square(cls, side: float, center: tuple[float, float] = (0.0, 0.0)) -> "Window":
        if side <= 0:
            raise ParameterError(f"side must be positive, got {side}")
        cx, cy = center
        h = side / 2.0
        return cls(cx - h, cx + h, cy - h, cy + h)

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    @property
    def center(self) -> np.ndarray:
        return np.array([(self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0])

    def expand(self, margin: float) -> "Window":
        """Window grown by ``margin`` on every side."""
        if margin < 0:
            raise ParameterError(f"margin must be nonnegative, got {margin}")
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


class PointPattern:
    """A finite set of planar points together with the window that contains them.

    Parameters
    ----------
    points : (n, 2) array_like
        Point coordinates.  May be empty.
    window : Window
        Observation window; every point must lie inside it.
    """

    __slots__ = ("points", "window")

    def __init__(self, points, window: Window):
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ParameterError(f"points must have shape (n, 2), got {pts.shape}")
        if pts.size and not window.contains(pts).all():
            raise ParameterError("points fall outside the window")
        self.points = pts
        self.window = window

    def __len__(self) -> int:
        return self.points.shape[0]

    def __repr__(self) -> str:
        return f"PointPattern(n={len(self)}, window={self.window})"

    def intensity(self) -> float:
        """Empirical intensity: point count over window area."""
        return len(self) / self.window.area

    def min_pairwise_distance(self) -> float:
        """Smallest inter-point distance; ``inf`` for fewer than two points."""
        if len(self) < 2:
            return np.inf
        d, _ = cKDTree(self.points).query(self.points, k=2)
        return float(d[:, 1].min())

    def restrict(self, window: Window) -> "PointPattern":
        """Pattern clipped to a sub-window."""
        return PointPattern(self.points[window.contains(self.points)], window)


@dataclass(frozen=True)
class HcppParams:
    """Hard-core process parameters: parent intensity and exclusion radius.

    ``delta == 0`` degenerates to the parent Poisson process.
    """

    lambda_p: float
    delta: float

    def __post_init__(self):
        if self.lambda_p <= 0:
            raise ParameterError(f"lambda_p must be positive, got {self.lambda_p}")
        if self.delta < 0:
            raise ParameterError(f"delta must be nonnegative, got {self.delta}")


def sample_ppp(intensity: float, window: Window, rng: np.random.Generator) -> PointPattern:
    """Draw a homogeneous Poisson process on ``window``.

    The point count is Poisson with mean ``intensity * window.area`` and
    positions are independent uniforms.
    """
    if intensity <= 0:
        raise ParameterError(f"intensity must be positive, got {intensity}")
    n = rng.poisson(intensity * window.area)
    pts = rng.uniform(
        low=(window.x_min, window.y_min),
        high=(window.x_max, window.y_max),
        size=(n, 2),
    )
    return PointPattern(pts, window)


def matern2_thin(points, delta: float, marks, window: Window | None = None) -> PointPattern:
    """Apply Matern type-II dependent thinning to a marked pattern.

    A point survives iff no other point with a strictly smaller mark lies
    within distance ``delta`` (inclusive).  Ties are broken by position in
    the input sequence: the earlier point wins.  Retention of a point is
    decided against the full input pattern, not against other survivors.

    Parameters
    ----------
    points : PointPattern or (n, 2) array_like
        Candidate points.
    delta : float
        Exclusion radius; ``0`` keeps every point.
    marks : (n,) array_like
        Thinning marks in [0, 1], one per point.
    window : Window, optional
        Window for the result.  Survivors outside it are dropped.  Defaults
        to the input pattern's window, or the bounding box of the input.
    """
    if delta < 0:
        raise ParameterError(f"delta must be nonnegative, got {delta}")

    if isinstance(points, PointPattern):
        if window is None:
            window = points.window
        pos = points.points
    else:
        pos = np.asarray(points, dtype=float)
        if pos.size == 0:
            pos = pos.reshape(0, 2)
    mk = np.asarray(marks, dtype=float)
    if mk.shape != (pos.shape[0],):
        raise ParameterError(f"need one mark per point, got {mk.shape} for {pos.shape[0]} points")

    if mk.size and (mk.min() < 0.0 or mk.max() > 1.0):
        raise ParameterError("marks must lie in [0, 1]")

    keep = np.ones(pos.shape[0], dtype=bool)
    if delta > 0 and pos.shape[0] > 1:
        pairs = cKDTree(pos).query_pairs(delta, output_type="ndarray")
        if pairs.size:
            i, j = pairs[:, 0], pairs[:, 1]  # query_pairs yields i < j
            j_loses = mk[i] <= mk[j]  # equal marks: earlier index survives
            keep[j[j_loses]] = False
            keep[i[~j_loses]] = False

    survivors = pos[keep]
    if window is None:
        if survivors.size:
            lo = survivors.min(axis=0)
            hi = survivors.max(axis=0)
            pad = max(delta, 1.0)
            window = Window(lo[0] - pad, hi[0] + pad, lo[1] - pad, hi[1] + pad)
        else:
            window = Window.square(max(2.0 * delta, 1.0))
    return PointPattern(survivors[window.contains(survivors)], window)


def sample_hcpp(
    params: HcppParams,
    window: Window,
    rng: np.random.Generator,
    guard: float | None = None,
) -> PointPattern:
    """Draw the hard-core process on ``window`` without edge bias.

    Parents are sampled on the window grown by ``guard`` (default
    ``2 * delta``) so points near the boundary feel the same competition as
    interior ones; the thinned pattern is then clipped back to ``window``.
    """
    if guard is None:
        guard = 2.0 * params.delta
    if guard < params.delta and params.delta > 0:
        raise ParameterError(f"guard must be at least delta, got {guard} < {params.delta}")
    parents = sample_ppp(params.lambda_p, window.expand(guard), rng)
    marks = rng.random(len(parents))
    return matern2_thin(parents.points, params.delta, marks=marks, window=window)


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
    if delta <= 0:
        raise ParameterError(f"delta must be positive, got {delta}")
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
        ra = r_arr[active]
        v = np.asarray(union_area(ra, delta), dtype=float)
        core = np.pi * delta**2
        x = lam * core
        num = 2.0 * v * (-np.expm1(-x)) - 2.0 * core * (-np.expm1(-lam * v))
        den = lam**2 * core * v * (v - core)
        out[active] = num / den
    return out if out.ndim else float(out)


def second_moment(r: float, params: HcppParams):
    """Second-order product density of the hard-core process at distance ``r``."""
    phi = pair_retention(r, params)
    return params.lambda_p**2 * phi
