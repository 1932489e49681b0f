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
from .point_process import HcppParams, first_moment, second_moment

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
    def from_influence(cls, mean: float, terms: np.ndarray, replications: int) -> "Estimate":
        """``mean`` with the standard error ``sqrt(n/(n-1) sum(terms**2))`` of its ``n`` per-unit influence terms.

        A unit's term is its first-order share of the error: ``(v - mean) / n`` for a sample mean, the linearized
        residual for a ratio.  ``n/(n-1)`` is the finite-sample factor (Cochran, *Sampling Techniques*, 6.4); below
        two units the error is ``inf``, unknown.  Out of range, the sum of squares is taken again on the terms scaled
        exactly by the power of two that brings the largest into [1/2, 1), so tiny and huge terms keep their digits.
        """
        n = len(terms)
        if n < 2:
            return cls(float(mean), math.inf, replications)
        with np.errstate(over="ignore"):  # an overflow to inf is taken again below
            sum_sq = float(terms @ terms)
        # in range, a square that underflows loses under 2**-174 of the sum, and n/(n-1) times the sum is finite
        if 2.0**-900 <= sum_sq <= 2.0**900:
            return cls(float(mean), math.sqrt(n / (n - 1) * sum_sq), replications)
        e = int(np.frexp(np.max(np.abs(terms)))[1])
        scaled = np.ldexp(terms, -e)  # not terms * ldexp(1, -e): that factor overflows for subnormal terms
        return cls(float(mean), math.ldexp(math.sqrt(n / (n - 1) * float(scaled @ scaled)), e), replications)


def _tail_radial_integral(r_start: float, d: float, alpha: float) -> float:
    # int_{r_start}^inf r^{1-alpha} F(a,a;1;(d/r)^2) dr for d < r_start.
    # Integrating the series of F term by term gives (a)_n^2 z^n / (n!^2 (alpha-2+2n)),
    # and (alpha-2)/(alpha-2+2n) = (a-1)_n/(a)_n folds it into one F(a, a-1; 1; z).
    return r_start ** (2.0 - alpha) / (alpha - 2.0) * hyp2f1_far(alpha, (d / r_start) ** 2)


_PANEL_RATIO = 4.0  # largest ratio of outer to inner r - x_off on one near-field panel
_SPAWN_CHUNK = 1024  # Monte Carlo child streams spawned at a time; realizations per unit of a figure's pool work
_PLANE_ENTRIES = 16384  # most entries of one (realizations, n, n) plane of a group of realizations with n parents
# most entries of one (rows, pairs) table of a group, bounded as rows * realizations * n * n: a spacing of 24 rows,
# as in figure 2, keeps its groups' planes at 8192 entries
_TABLE_ENTRIES = 24 * 8192
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


class _Work:
    """Work buffers that one Monte Carlo call reuses from group to group, each grown to the largest view asked of it.

    A group's planes and pair tables are views of these, written with
    ``out=``, so a call faults in the pages of its largest group once rather
    than fresh pages for every group; the buffers go when the call returns.
    """

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}

    def __call__(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self.buffers.get(name)
        if buf is None or buf.size < size:
            buf = self.buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _min_image(points: np.ndarray, side: float, work: _Work) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Differences ``points[g, j] - points[g, i]`` at ``[g, i, j]`` on the torus of edge ``side``, and squared norms.

    ``points`` is a ``(realizations, n, 2)`` array; the differences come as an
    x and a y plane of shape ``(realizations, n, n)``, each minimum-imaged on
    its own.  The planes are views of ``work``'s buffers.
    """
    g, n, _ = points.shape
    dx, dy, dist2, tmp = (work(name, (g, n, n)) for name in ("dx", "dy", "dist2", "tmp"))
    for d, c in ((dx, points[..., 0]), (dy, points[..., 1])):
        np.subtract(c[:, None, :], c[:, :, None], out=d)
        np.divide(d, side, out=tmp)
        np.rint(tmp, out=tmp)
        tmp *= side
        d -= tmp
    np.multiply(dx, dx, out=dist2)
    np.multiply(dy, dy, out=tmp)
    dist2 += tmp
    return dx, dy, dist2


def _mark_thinning(dist2: np.ndarray, marks: np.ndarray, deltas, work: _Work) -> list[np.ndarray]:
    """Matern type-II survivor masks at each spacing of ``deltas``, given the squared pair distances ``dist2``.

    ``dist2`` is ``(realizations, n, n)`` and ``marks`` ``(realizations, n)``;
    each mask is ``(realizations, n)``.  Within a realization a parent dies
    when another within ``delta`` (inclusive) has a smaller mark, or an equal
    mark and an earlier index, as in
    :func:`~hcppnet.point_process.matern2_thin`; ``delta == 0`` keeps every
    parent.  The marks are ranked once for all the spacings, and not at all
    when every spacing is 0.  The boolean planes are views of ``work``'s
    buffers.
    """
    if not any(deltas):
        return [np.ones(marks.shape, dtype=bool)] * len(deltas)
    g, n = marks.shape
    rank = np.empty((g, n), dtype=np.intp)
    rank[np.arange(g)[:, None], np.argsort(marks, axis=1, kind="stable")] = np.arange(n)
    outranks = np.less(rank[:, :, None], rank[:, None, :], out=work("outranks", (g, n, n), bool))
    close = work("close", (g, n, n), bool)
    kept = []
    for delta in deltas:
        if delta == 0:
            kept.append(np.ones((g, n), dtype=bool))
            continue
        np.less_equal(dist2, delta**2, out=close)
        close &= outranks
        kept.append(~close.any(axis=1))
    return kept


def _user_distances2(offsets: np.ndarray, dx: np.ndarray, dy: np.ndarray, ux: np.ndarray, uy: np.ndarray,
                     flat: np.ndarray, users: np.ndarray, work: _Work) -> np.ndarray:
    """Squared distances ``|p - x u|**2`` from each pair's user at each offset ``x``, as an ``(offsets, pairs)`` array.

    ``p`` is the pair's station-to-interferer vector, at ``flat`` in the
    difference planes ``dx`` and ``dy``, and ``u`` the unit direction, at
    ``users`` in ``ux`` and ``uy``, of its user.  Computed in place in two of
    ``work``'s tables, one coordinate at a time, so that one pair vector is
    gathered at a time, into the buffers of the spent ``dist2`` and scratch
    planes of :func:`_min_image`; the result is a view of the first table.
    """
    shape = (len(offsets), len(flat))
    pair = work("dist2", shape[1:])
    d2, other = work("d2", shape), work("tmp", shape)
    for out, p, u in ((d2, dx, ux), (other, dy, uy)):
        # mode="wrap" takes straight into out; the indices are in range, so the mode changes no value
        np.multiply.outer(offsets, u.take(users, out=pair, mode="wrap"), out=out)
        np.subtract(p.take(flat, out=pair, mode="wrap"), out, out=out)
        out *= out
    d2 += other
    return d2


def _sum_each(powered: np.ndarray, edges: list[int] | None, out: np.ndarray) -> None:
    """Sum each realization's columns ``edges[i]:edges[i + 1]`` of ``powered`` on their own, into ``out[i]``.

    ``edges`` is ``None`` for a group of one realization, which owns every column.
    """
    if edges is None:
        np.add.reduce(powered, axis=1, out=out[0])
        return
    for i, row in enumerate(out):
        np.add.reduce(powered[:, edges[i]:edges[i + 1]], axis=1, out=row)


def _group_sums(plan, r_trunc: float, block: np.ndarray, work: _Work, n_rows: int):
    """Serve every row from a group of realizations that drew the same parent count.

    ``block`` is the group's ``(realizations, 4 n)`` array of uniform draws,
    one row per realization with ``n`` parents: its parents' coordinates
    (first ``2 n``, scaled here onto the torus of side ``2 * r_trunc``), their
    marks (next ``n``) and its survivors' user angles (next ``k <= n``, one per
    survivor of the smallest spacing, in index order).  The minimum-image
    planes, the survivor masks of each spacing of ``plan`` (see
    :func:`_row_plan`) and the in-play mask (pairs within ``r_trunc``) are
    built once for the group, as views of ``work``'s buffers.  Each spacing
    takes its pairs with one flat-index search over the in-play mask of its
    survivors, row-major within each realization, and each survivor is
    tagged in turn, as :func:`mc_interference` describes.  The
    user-to-station distances are computed once per distinct offset, and the
    rows' powers are whole-array operations over that offset table.
    ``nearest`` rows also drop interferers within ``x_off`` of the user
    (nearest-station association, for the Poisson baseline), filtered per
    offset.  Each realization sums each row's pairs on their own, so every
    sum is that of the realization run alone.  Returns the row sums and
    station counts, two ``(realizations, n_rows)`` arrays in the slots of
    ``plan``.
    """
    g, n = block.shape[0], block.shape[1] // 4
    side = 2.0 * r_trunc
    points = block[:, :2 * n]
    points *= side  # sample_ppp's arithmetic: x * side + 0.0 is x * side
    dx, dy, dist2 = _min_image(points.reshape(g, n, 2), side, work)
    kept = _mark_thinning(dist2, block[:, 2 * n:3 * n], [entry[0] for entry in plan], work)
    # the survivors of the smallest spacing include those of every larger one; realization i's k survivors take its
    # draws 3 n to 3 n + k - 1 in turn, and 2 pi times them is the arithmetic of rng.uniform(0, 2 pi, k) on those draws
    theta = block[:, 3 * n:][np.arange(n) < np.add.reduce(kept[0], axis=1)[:, None]]
    theta *= 2.0 * np.pi
    ux, uy = np.empty((2, g, n))
    ux[kept[0]], uy[kept[0]] = np.cos(theta), np.sin(theta)
    inplay = np.less_equal(dist2, r_trunc**2, out=work("inplay", (g, n, n), bool))
    inplay.reshape(g, n * n)[:, :: n + 1] = False
    # where each realization's entries start in the flattened planes; a group of one needs no edges
    plane_edges = None if g == 1 else [i * n * n for i in range(g + 1)]
    sums, counts = np.empty((2, g, n_rows))
    for keep, (delta, slots, offsets, (x_idx, neg_half_alpha), near) in zip(kept, plan):
        # at spacing 0 every parent survives, so its pairs are the in-play ones
        if delta == 0:
            flat = inplay.ravel().nonzero()[0]
        else:
            pairs = np.logical_and(inplay, keep[:, :, None], out=work("close", (g, n, n), bool))
            pairs &= keep[:, None, :]
            flat = pairs.ravel().nonzero()[0]
        d2 = _user_distances2(offsets, dx, dy, ux, uy, flat, flat // n, work)
        pair_edges = None if plane_edges is None else np.searchsorted(flat, plane_edges).tolist()
        for slot, j, x_sq, nha in near:
            beyond = d2[j] > x_sq
            edges = None if pair_edges is None else np.searchsorted(beyond.nonzero()[0], pair_edges).tolist()
            kept_d2 = d2[j][beyond]
            powered = np.power(kept_d2, nha[:, None], out=work("table", (len(nha), len(kept_d2))))
            _sum_each(powered, edges, sums[:, slot:slot + len(nha)])
        if len(neg_half_alpha):
            # after the nearest rows, which read d2: a plain row per distinct offset, in order, powers d2 in place
            powered = d2 if x_idx is None else d2.take(x_idx, axis=0, out=work("table", (len(x_idx), len(flat))), mode="wrap")
            np.power(powered, neg_half_alpha[:, None], out=powered)
            _sum_each(powered, pair_edges, sums[:, slots.start:slots.start + len(neg_half_alpha)])
        counts[:, slots] = n if delta == 0 else np.add.reduce(keep, axis=1)[:, None]
    return sums, counts


def _row_plan(rows) -> tuple[list[tuple], list[int]]:
    """How every realization serves ``rows``: one entry per spacing, in ascending spacing, and the row in each slot.

    A realization writes each row's sum and station count into a slot of its
    own.  The slots run spacing by spacing: first the rows without
    ``nearest``, then those with it, by distinct offset.  An entry is
    ``(delta, slots, offsets, plain, near)``: the spacing's slice of slots;
    the distinct user offsets of its rows; its rows without ``nearest``, in
    the first slots, as two arrays (offset index, or ``None`` when they are
    the offsets in order, and ``-alpha/2``); and, for each distinct offset of
    its ``nearest`` rows, the tuple (first slot, offset index, ``x_off**2``,
    ``-alpha/2`` array).
    """
    plan, order = [], []
    for delta in sorted({s.hcpp.delta for s, _ in rows}):
        members = [(k, s.x_off, -s.channel.alpha / 2.0, nearest)
                   for k, (s, nearest) in enumerate(rows) if s.hcpp.delta == delta]
        offsets = list(dict.fromkeys(x for _, x, _, _ in members))
        first = len(order)
        plain = [(k, offsets.index(x), p) for k, x, p, nearest in members if not nearest]
        order += [k for k, _, _ in plain]
        near_by_x: dict[float, list] = {}
        for k, x, p, nearest in members:
            if nearest:
                near_by_x.setdefault(x, []).append((k, p))
        near = []
        for x, kp in near_by_x.items():
            near.append((len(order), offsets.index(x), x**2, np.array([p for _, p in kp])))
            order += [k for k, _ in kp]
        x_idx = [i for _, i, _ in plain]
        plain_arrays = (None if x_idx == list(range(len(offsets))) else np.array(x_idx, dtype=np.intp),
                        np.array([p for _, _, p in plain]))
        plan.append((delta, slice(first, len(order)), np.array(offsets), plain_arrays, near))
    return plan, order


class _StateWords:
    """A seed sequence that hands a bit generator state words computed beforehand.

    :func:`_child_streams` registers it as numpy's ``ISeedSequence``.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


# SeedSequence.generate_state's hash: state word i is pool word i % pool_size, xor-ed with _HASH_IN[i], times
# _HASH_OUT[i] (mod 2**32), xor-ed with itself shifted right by 16; PCG64 seeds from the first eight words as four uint64
_HASH_IN = np.array([0x8B51F9DD * 0x58F38DED**i % 2**32 for i in range(8)], dtype=np.uint32)
_HASH_OUT = np.array([0x8B51F9DD * 0x58F38DED ** (i + 1) % 2**32 for i in range(8)], dtype=np.uint32)


def _child_streams(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """``rng.spawn(count)``: the same children, of ``rng``'s type, and ``rng``'s next spawn starts after them.

    A PCG64 ``rng`` still spawns the children's seed sequences, but seeds
    their generators from one vectorised hash of their entropy pools instead
    of one ``generate_state`` call each; any other bit generator spawns.
    """
    seq = rng.bit_generator.seed_seq
    if type(rng.bit_generator) is not np.random.PCG64 or type(seq) is not np.random.SeedSequence:
        return rng.spawn(count)
    # registered here, not at import: naming ISeedSequence there would load numpy.random into every import of hcppnet
    np.random.bit_generator.ISeedSequence.register(_StateWords)
    pools = np.array([child.pool for child in seq.spawn(count)])
    words = np.ascontiguousarray(pools[:, np.arange(8) % pools.shape[1]])
    words ^= _HASH_IN
    words *= _HASH_OUT
    words ^= words >> 16
    # generate_state pairs the words as little-endian uint64 on any host
    state = words.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)
    return [type(rng)(np.random.PCG64(_StateWords(words))) for words in state]


def _tagged_station_mc(rows, realizations: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Per-realization path-loss totals and station counts of each row, as two ``(len(rows), realizations)`` arrays.

    ``rows`` are ``(scenario, nearest)`` pairs that share one layout set:
    every realization draws one parent pattern, at their common ``lambda_p``,
    on the torus of the largest truncation radius among them, and serves
    every row from it.  Realization ``i`` consumes child stream ``i`` of
    ``rng``; the streams are spawned ``_SPAWN_CHUNK`` at a time, since each
    holds about 1 KB.  A stream draws its parent count ``n``, then one block
    of ``4 n`` uniforms (:func:`_group_sums`), which are the draws of
    :func:`~hcppnet.point_process.sample_ppp`, of ``n`` marks and of up to
    ``n`` user angles in a row.  The rows are grouped once per call
    (:func:`_row_plan`): by spacing, then by distinct user offset, so that a
    realization sums every row of a spacing in a few array operations
    instead of one pass per row.  Within a chunk, every stream first draws
    its count; then the realizations that drew the same ``n`` draw their
    blocks and run together, in groups whose ``(realizations, n, n)`` planes
    hold at most ``_PLANE_ENTRIES`` entries and whose ``(rows, pairs)``
    tables, with ``rows`` the most rows of one spacing, at most
    ``_TABLE_ENTRIES``.  Each row's sum still runs over the same values in
    the same order as a row summed on its own in a realization run alone, so
    for a single row the draws and the arithmetic are those of a run of that
    row alone, whatever the grouping.
    """
    check("realizations", realizations, (">=", 1))
    lambda_p = rows[0][0].hcpp.lambda_p
    if any(s.hcpp.lambda_p != lambda_p for s, _ in rows):
        raise ParameterError("the rows of one layout set must share lambda_p")
    r_trunc = _truncation_radius(rows)
    side = 2.0 * r_trunc
    mean_count = lambda_p * (side * side)  # sample_ppp's intensity * window.area on the torus [0, side)^2
    plan, order = _row_plan(rows)
    table_rows = max(entry[1].stop - entry[1].start for entry in plan)
    work = _Work()
    done, sums, counts = [], [], []  # the realizations in the order their groups ran, and their results
    for start in range(0, realizations, _SPAWN_CHUNK):
        streams = _child_streams(rng, min(_SPAWN_CHUNK, realizations - start))
        by_count: dict[int, list[int]] = {}
        for j, stream in enumerate(streams):
            by_count.setdefault(stream.poisson(mean_count), []).append(j)
        for n, members in by_count.items():
            plane = max(1, n * n)
            size = max(1, min(_PLANE_ENTRIES // plane, _TABLE_ENTRIES // (table_rows * plane)))
            for lo in range(0, len(members), size):
                group = members[lo:lo + size]
                block = work("block", (len(group), 4 * n))
                for j, draws in zip(group, block):
                    streams[j].random(out=draws)
                group_sums, group_counts = _group_sums(plan, r_trunc, block, work, len(rows))
                done += [start + j for j in group]
                sums.append(group_sums)
                counts.append(group_counts)
    totals, station_counts = np.empty((2, len(rows), realizations))
    where = np.ix_(order, done)
    totals[where] = np.concatenate(sums).T
    station_counts[where] = np.concatenate(counts).T
    return totals, station_counts


def _influence(rows, totals: np.ndarray, counts: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Each row's mean interference and per-realization influence terms, from :func:`_tagged_station_mc`'s arrays.

    The mean is the ratio of summed totals to summed station counts, in watts, plus the closed-form far field; a
    realization's term is its linearized residual ``(total - ratio * count) * scale / sum(counts)``.
    """
    r_trunc = _truncation_radius(rows)
    means, terms = [], np.empty_like(totals)
    for (scenario, _), row_totals, row_counts, row_terms in zip(rows, totals, counts, terms):
        ch = scenario.channel
        # shadowing and fading are independent of the layout: each w * g enters by its mean
        scale = ch.beta * mean_shadowing(ch.sigma_s_db) * scenario.mean_tx_power
        plateau = first_moment(scenario.hcpp)  # pair density / intensity beyond the truncation radius
        tail = 2.0 * math.pi * plateau * _tail_radial_integral(r_trunc, scenario.x_off, ch.alpha)
        stations = row_counts.sum()
        ratio = float(row_totals.sum() / stations)
        means.append(scale * (ratio + tail))
        row_terms[:] = (row_totals - ratio * row_counts) * scale / stations
    return means, terms


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
    error linearizes that ratio: each realization's residual is its term for
    :meth:`Estimate.from_influence`, with its factor ``n/(n-1)``.
    Replication ``i`` always consumes stream ``i`` spawned from ``rng``, so
    enlarging ``realizations`` extends a run without perturbing earlier draws.
    """
    rows = [_mc_row("hcpp", scenario)]
    means, terms = _influence(rows, *_tagged_station_mc(rows, realizations, rng))
    return Estimate.from_influence(means[0], terms[0], realizations)


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
    means, terms = _influence(rows, *_tagged_station_mc(rows, realizations, rng))
    return Estimate.from_influence(means[0], terms[0], realizations)


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
