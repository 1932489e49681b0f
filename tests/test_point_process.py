"""Hard-core sampling and moment-density unit tests."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from hcppnet import (
    HcppParams,
    ParameterError,
    Window,
    first_moment,
    matern2_thin,
    pair_retention,
    sample_hcpp,
    sample_ppp,
    second_moment,
    union_area,
)

LAMBDA_P = 1.0 / (math.pi * 800.0**2)


def test_window_geometry():
    w = Window(0.0, 100.0, -70.0, 30.0)
    assert w.area == pytest.approx(10000.0)
    bigger = w.expand(10.0)
    assert bigger.area == pytest.approx(120.0**2)
    assert (bigger.x_min, bigger.x_max, bigger.y_min, bigger.y_max) == (-10.0, 110.0, -80.0, 40.0)
    assert Window.square(100.0) == Window(-50.0, 50.0, -50.0, 50.0)
    inside = w.contains(np.array([[50.0, -20.0], [0.0, -70.0], [100.1, 0.0]]))
    assert inside.tolist() == [True, True, False]


def test_window_rejects_empty_extent():
    with pytest.raises(ParameterError):
        Window(1.0, 1.0, 0.0, 5.0)


def test_marked_point_validates_mark():
    pts = np.array([[0.0, 0.0]])
    w = Window.square(10.0)
    matern2_thin(pts, 1.0, marks=[0.5], window=w)
    with pytest.raises(ParameterError):
        matern2_thin(pts, 1.0, marks=[1.5], window=w)
    for bad in (np.zeros(3), np.zeros((2, 3))):  # not one (x, y) row per point
        with pytest.raises(ParameterError):
            matern2_thin(bad, 1.0, marks=np.full(len(bad), 0.5), window=w)


def test_sample_ppp_count_and_bounds():
    rng = np.random.default_rng(1)
    w = Window.square(2000.0)
    counts = [len(sample_ppp(1e-4, w, rng)) for _ in range(200)]
    expected = 1e-4 * w.area  # 400
    assert np.mean(counts) == pytest.approx(expected, rel=0.05)
    pts = sample_ppp(1e-4, w, rng)
    assert w.contains(pts).all()


def test_matern_thinning_enforces_hard_core():
    rng = np.random.default_rng(2)
    w = Window.square(5000.0)
    parents = sample_ppp(LAMBDA_P * 50, w, rng)
    marks = rng.random(len(parents))
    thinned = matern2_thin(parents, 400.0, marks=marks, window=w)
    assert len(cKDTree(thinned).query_pairs(400.0)) == 0
    assert len(thinned) > 0


def test_matern_thinning_uses_all_parents_not_survivors():
    # A middle point with the smallest mark knocks out both neighbours;
    # chain-style thinning against survivors would wrongly revive one.
    pts = np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 0.0]])
    marks = np.array([0.5, 0.1, 0.4])
    w = Window.square(1000.0)
    kept = matern2_thin(pts, 150.0, marks=marks, window=w)
    assert len(kept) == 1
    assert np.allclose(kept[0], [100.0, 0.0])


def test_matern_thinning_tie_break_is_deterministic():
    pts = np.array([[0.0, 0.0], [10.0, 0.0]])
    marks = np.array([0.3, 0.3])
    kept = matern2_thin(pts, 50.0, marks=marks, window=Window.square(100.0))
    assert len(kept) == 1
    assert np.allclose(kept[0], [0.0, 0.0])  # earlier index wins ties


def test_matern_thinning_accepts_marked_points():
    pts = np.array([[0.0, 0.0], [5.0, 0.0]])
    kept = matern2_thin(pts, 10.0, marks=[0.9, 0.2], window=Window.square(100.0))
    assert len(kept) == 1
    assert np.allclose(kept[0], [5.0, 0.0])


def test_matern_thinning_delta_zero_keeps_everything():
    rng = np.random.default_rng(3)
    w = Window.square(3000.0)
    pts = sample_ppp(1e-5, w, rng)
    kept = matern2_thin(pts, 0.0, marks=rng.random(len(pts)), window=w)
    assert len(kept) == len(pts)


def test_sample_hcpp_guard_removes_edge_bias():
    # Density near the window edge must match the interior; an unguarded
    # sampler under-thins the border band.
    rng = np.random.default_rng(4)
    params = HcppParams(LAMBDA_P * 20, 300.0)
    w = Window.square(12000.0)
    zeta = first_moment(params)
    edge_counts = 0.0
    inner_counts = 0.0
    reps = 120
    inner = Window(w.x_min + 600.0, w.x_max - 600.0, w.y_min + 600.0, w.y_max - 600.0)
    for _ in range(reps):
        mask = inner.contains(sample_hcpp(params, w, rng))
        inner_counts += mask.sum()
        edge_counts += (~mask).sum()
    edge_area = w.area - inner.area
    assert inner_counts / reps / inner.area == pytest.approx(zeta, rel=0.03)
    assert edge_counts / reps / edge_area == pytest.approx(zeta, rel=0.03)


def test_hcpp_params_validation():
    with pytest.raises(ParameterError):
        HcppParams(0.0, 100.0)
    with pytest.raises(ParameterError):
        HcppParams(1e-6, -1.0)


def test_first_moment_matches_direct_formula():
    params = HcppParams(LAMBDA_P, 500.0)
    x = LAMBDA_P * math.pi * 500.0**2
    direct = (1.0 - math.exp(-x)) / (math.pi * 500.0**2)
    assert first_moment(params) == pytest.approx(direct, rel=1e-12, abs=0.0)
    assert first_moment(params) == pytest.approx(4.1172257449580084e-07, rel=1e-12, abs=0.0)


def test_first_moment_delta_zero_is_parent_intensity():
    assert first_moment(HcppParams(LAMBDA_P, 0.0)) == pytest.approx(LAMBDA_P, rel=1e-14)


def test_first_moment_monotone_decreasing_in_delta():
    vals = [first_moment(HcppParams(LAMBDA_P, d)) for d in (0.0, 200.0, 500.0, 900.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_union_area_boundary_values():
    delta = 500.0
    # Touching circles: area of two disjoint disks.
    assert union_area(2 * delta, delta) == pytest.approx(2 * math.pi * delta**2, rel=1e-14)
    # Coincident circles: one disk.
    assert union_area(0.0, delta) == pytest.approx(math.pi * delta**2, rel=1e-14)
    # Hand-checked intermediate value at r = delta.
    assert union_area(delta, delta) / delta**2 == pytest.approx(5.054815608570829, rel=1e-12)


def test_union_area_saturates_beyond_two_delta():
    delta = 300.0
    far = union_area(1e6, delta)
    assert far == pytest.approx(2 * math.pi * delta**2, rel=1e-14)
    assert union_area(2.5 * delta, delta) == pytest.approx(far, rel=1e-14)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(1e-2, 1e5),
    st.floats(0.0, 3.0),
    st.floats(0.0, 3.0),
)
@example(500.0, 0.0, 2.0)
def test_union_area_monotone_between_one_and_two_disks(delta, a, b):
    near, far = union_area(delta * min(a, b), delta), union_area(delta * max(a, b), delta)
    assert near <= far
    disk = math.pi * delta**2
    assert disk <= near and far <= 2.0 * disk


def test_pair_retention_hard_core_zero():
    params = HcppParams(LAMBDA_P, 500.0)
    r = np.array([0.0, 100.0, 499.999, 500.0])
    assert np.all(pair_retention(r, params) == 0.0)


def test_pair_retention_known_value_and_plateau():
    params = HcppParams(LAMBDA_P, 500.0)
    zeta1 = first_moment(params)
    plateau = pair_retention(1200.0, params) * params.lambda_p**2
    assert plateau == pytest.approx(zeta1**2, rel=1e-12)
    # Retention probability of the thinning itself at delta = 500 defaults.
    assert zeta1 / params.lambda_p == pytest.approx(0.827817353825974, rel=1e-12)


def test_pair_retention_elevated_on_interaction_band():
    # Pairs just outside the hard-core distance share most of their
    # exclusion disks, so the same high-mark intruders spare both points:
    # joint survival is positively correlated there and relaxes to the
    # independence plateau once the disks separate at twice the distance.
    params = HcppParams(LAMBDA_P, 500.0)
    r = np.linspace(501.0, 1000.0, 40)
    phi = pair_retention(r, params)
    plateau = pair_retention(np.array([1000.0]), params)[0]
    assert np.all(np.diff(phi) < 0)
    assert np.all(phi >= plateau)
    assert phi[0] < 1.0


def test_second_moment_is_scaled_retention():
    params = HcppParams(LAMBDA_P, 400.0)
    r = np.array([450.0, 700.0, 900.0])
    assert np.allclose(second_moment(r, params), params.lambda_p**2 * pair_retention(r, params))


def test_second_moment_delta_zero_is_poisson():
    params = HcppParams(LAMBDA_P, 0.0)
    r = np.array([10.0, 500.0, 2000.0])
    assert np.allclose(second_moment(r, params), LAMBDA_P**2, rtol=1e-14)


def test_thinned_pattern_density_short():
    # Small-scale version of the density check; the acceptance suite runs
    # the full-size one.
    rng = np.random.default_rng(5)
    params = HcppParams(LAMBDA_P, 500.0)
    w = Window.square(60000.0)
    zeta = first_moment(params)
    total = 0
    reps = 8
    for _ in range(reps):
        total += len(sample_hcpp(params, w, rng))
    assert total / (reps * w.area) == pytest.approx(zeta, rel=0.03)


def test_no_close_pairs_after_thinning_kdtree():
    rng = np.random.default_rng(7)
    params = HcppParams(LAMBDA_P * 10, 350.0)
    pts = sample_hcpp(params, Window.square(20000.0), rng)
    tree = cKDTree(pts)
    assert len(tree.query_pairs(350.0)) == 0



def _matern2_brute_force(pts, delta, marks, window, periodic=False):
    # O(n^2) definition: point i dies iff some other point within delta
    # (inclusive) has a smaller mark, or an equal mark and an earlier index;
    # periodic takes minimum-image distances on the torus [0, x_max) x [0, y_max)
    def dist2(xi, yi, xj, yj):
        dx, dy = abs(xi - xj), abs(yi - yj)
        if periodic:
            dx, dy = min(dx, window.x_max - dx), min(dy, window.y_max - dy)
        return dx**2 + dy**2

    kept = []
    for i, (xi, yi) in enumerate(pts):
        beaten = delta > 0 and any(
            j != i
            and dist2(xi, yi, xj, yj) <= delta**2
            and (marks[j] < marks[i] or (marks[j] == marks[i] and j < i))
            for j, (xj, yj) in enumerate(pts)
        )
        if not beaten and window.x_min <= xi <= window.x_max and window.y_min <= yi <= window.y_max:
            kept.append((xi, yi))
    return np.array(kept, dtype=float).reshape(-1, 2)


# Integer coordinates keep every squared distance exact, so points exactly
# delta apart are decided the same way by both sides; four mark values force ties.
_points = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12), st.sampled_from([0.0, 0.25, 0.5, 1.0])),
    max_size=40,
)


@settings(max_examples=600, deadline=None)
@given(_points, st.integers(0, 5), st.integers(0, 4), st.integers(8, 12), st.booleans())
def test_matern_thinning_matches_brute_force(marked, delta, lo, hi, periodic):
    # the periodic box holds every generated point, and delta < 13 / 2 leaves one image in range
    pts = np.array([(x, y) for x, y, _ in marked], dtype=float).reshape(-1, 2)
    marks = np.array([m for _, _, m in marked])
    window = Window(0.0, 13.0, 0.0, 13.0) if periodic else Window(float(lo), float(hi), float(lo), float(hi))
    expected = _matern2_brute_force(pts, float(delta), marks, window, periodic)
    assert np.array_equal(matern2_thin(pts, float(delta), marks, window, periodic=periodic), expected)


def test_periodic_thinning_competes_across_the_seam():
    # 2 m apart across the edge of a 20 m box, 18 m apart in the plane
    pts = np.array([[19.0, 5.0], [1.0, 5.0]])
    box = Window(0.0, 20.0, 0.0, 20.0)
    periodic = matern2_thin(pts, 3.0, marks=[0.6, 0.2], window=box, periodic=True)
    assert periodic.tolist() == [[1.0, 5.0]]
    assert matern2_thin(pts, 3.0, marks=[0.6, 0.2], window=box).tolist() == pts.tolist()


@pytest.mark.parametrize(
    "point, window",
    [
        ([20.0, 5.0], Window(0.0, 20.0, 0.0, 20.0)),  # on the far edge, which the torus identifies with 0
        ([-1.0, 5.0], Window(0.0, 20.0, 0.0, 20.0)),
        ([5.0, 5.0], Window(-10.0, 10.0, -10.0, 10.0)),  # the torus has its lower corner at the origin
    ],
)
def test_periodic_thinning_rejects_points_off_the_torus(point, window):
    pts = np.array([[1.0, 1.0], point])
    with pytest.raises(ParameterError, match="periodic"):
        matern2_thin(pts, 3.0, marks=[0.5, 0.5], window=window, periodic=True)

# Pair retention over wide parameter ranges.  The closed form cancels for
# small lambda_p * pi * delta^2; these pin the result against its invariants
# and against a high-precision evaluation of the same formula.

log_delta = st.floats(min_value=-3.0, max_value=4.0)
log_lambda = st.floats(min_value=-12.0, max_value=-2.0)


@settings(max_examples=300, deadline=None)
@given(log_delta, log_lambda, st.floats(min_value=1.0, max_value=4.0, exclude_min=True))
def test_pair_retention_is_a_probability(ld, ll, u):
    delta = 10.0**ld
    phi = pair_retention(u * delta, HcppParams(10.0**ll, delta))
    assert 0.0 <= phi <= 1.0


@settings(max_examples=300, deadline=None)
@given(log_delta, log_lambda, st.floats(min_value=2.0, max_value=10.0))
def test_pair_retention_factorizes_beyond_twice_delta(ld, ll, u):
    params = HcppParams(10.0**ll, 10.0**ld)
    phi = pair_retention(u * params.delta, params)
    assert phi == pytest.approx((first_moment(params) / params.lambda_p) ** 2, rel=1e-12)


def _pair_retention_mp(r, lam, delta):
    # phi = 2 (q(lam c) - q(lam v)) / (lam (v - c)), q(y) = (1 - e^-y) / y, in 50 digits
    with mpmath.workdps(50):
        r, lam, delta = mpmath.mpf(r), mpmath.mpf(lam), mpmath.mpf(delta)
        core = mpmath.pi * delta**2
        lens = 2 * delta**2 * mpmath.acos(min(r / (2 * delta), 1)) - r * mpmath.sqrt(
            max(delta**2 - r**2 / 4, 0)
        )
        v = 2 * core - lens
        q = lambda y: -mpmath.expm1(-y) / y  # noqa: E731
        return float(2 * (q(lam * core) - q(lam * v)) / (lam * (v - core)))


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=-4.0, max_value=2.5), st.floats(min_value=1.0, max_value=4.0, exclude_min=True))
@example(-3.0, 1.5)
@example(-1.0, 1.5)
@example(-1.0, 2.5)
def test_pair_retention_small_delta_matches_high_precision(ld, u):
    delta = 10.0**ld
    r = u * delta
    if r <= delta:
        return  # u * delta rounded onto the exclusion radius
    assert pair_retention(r, HcppParams(LAMBDA_P, delta)) == pytest.approx(
        _pair_retention_mp(r, LAMBDA_P, delta), rel=1e-12
    )
