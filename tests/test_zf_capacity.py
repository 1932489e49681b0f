"""Zero-forcing precoding and spectral-efficiency unit tests."""

import math

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from hcppnet import (
    AntennaConfig,
    ChannelParams,
    Estimate,
    ParameterError,
    db_to_linear,
    path_gain,
    sample_zf_gains,
    spectral_efficiency_bound,
    spectral_efficiency_exact,
    spectral_efficiency_mc,
    subchannel_capacity,
)
from hcppnet import zf_capacity

BETA = db_to_linear(-31.54)


def test_antenna_config_validation():
    cfg = AntennaConfig(8, 4)
    assert cfg.gain_shape == 5
    with pytest.raises(ParameterError):
        AntennaConfig(2, 3)
    with pytest.raises(ParameterError):
        AntennaConfig(4, 0)


def test_zf_gains_follow_gamma_law():
    rng = np.random.default_rng(24)
    cfg = AntennaConfig(8, 4)
    g = sample_zf_gains(cfg, 20000, rng)
    assert g.shape == (20000, 4)
    d, _ = stats.kstest(g.ravel(), stats.gamma(a=cfg.gain_shape).cdf)
    assert d < 0.01
    assert g.mean() == pytest.approx(cfg.gain_shape, rel=0.02)


@pytest.mark.parametrize("size", [100_000, (100_000, 3)])
def test_summed_exponential_gains_follow_the_gamma_law(size):
    # every Monte Carlo gain of shape m is a running sum of m shared unit exponentials, column by column
    shapes = []
    for m, g in zf_capacity._gamma_gains(np.random.default_rng(1008), size, (1, 4, 16)):
        assert g.shape == np.empty(size).shape
        for column in g.reshape(g.shape[0], -1).T:
            d, _ = stats.kstest(column, stats.gamma(a=m).cdf)
            assert d < 0.01, (m, d)
        shapes.append(m)
    assert shapes == [1, 4, 16]


@pytest.mark.parametrize("size", [1000, (1000, 8)])
def test_summed_exponential_gains_at_shape_one_are_numpys_gamma_bit_for_bit(size):
    # so the gain-shape-1 rows (figures 9-11, figure 7's s=8 curve) draw what numpy's Gamma sampler draws
    [(m, g)] = zf_capacity._gamma_gains(np.random.default_rng(9), size, (1,))
    assert m == 1
    assert np.array_equal(g, np.random.default_rng(9).gamma(1.0, 1.0, size))


def test_zf_gains_singular_draw_raises():
    # A singular Gram matrix has probability zero; when one occurs the
    # sampler reports it instead of redrawing.
    class ZeroNormals:
        def standard_normal(self, size):
            return np.zeros(size)

    with pytest.raises(np.linalg.LinAlgError):
        sample_zf_gains(AntennaConfig(4, 2), 3, ZeroNormals())


def test_subchannel_capacity_closed_form():
    cfg = AntennaConfig(8, 4)
    ch = ChannelParams(BETA, 3.8, 6.0)
    rate = subchannel_capacity(cfg, 1e4, 0.5, ch, 2.0, 250.0, 3.0, 1e-13)
    snr = 0.5 * path_gain(ch, 250.0) * 2.0 * 3.0 / 1e-13
    assert rate == pytest.approx(4 * 1e4 * math.log2(1 + snr), rel=1e-12)


def test_spectral_efficiency_exact_matches_single_stream_formula(monkeypatch):
    # One stream keeps the exact expectation reducible to a quadrature over
    # an Exponential gain when n_t = s = 1.
    cfg = AntennaConfig(1, 1)
    xi = 10.0
    from scipy import integrate

    direct, _ = integrate.quad(lambda g: math.log2(1 + xi * g) * math.exp(-g), 0, 200, limit=200)
    assert spectral_efficiency_exact(cfg, xi) == pytest.approx(direct, rel=1e-6)
    monkeypatch.setattr(zf_capacity, "_N_NODES", 256)
    assert spectral_efficiency_exact(cfg, xi) == pytest.approx(direct, rel=1e-8)


def test_spectral_efficiency_mc_agrees_with_exact():
    cfg = AntennaConfig(8, 4)
    for xi in (0.01, 1.0, 100.0):
        exact = spectral_efficiency_exact(cfg, xi)
        est = spectral_efficiency_mc(cfg, xi, 30000, np.random.default_rng(25))
        assert abs(exact - est.mean) <= 3.0 * est.std_error


@pytest.mark.parametrize(
    ("n_t", "s", "xi", "mean", "std_error"),
    [(8, 4, 10.0, 14.464573583824688, 0.027439941059656782), (2, 1, 0.1, 0.24624901841923966, 0.003509554538234692)],
)
def test_single_row_estimate_is_pinned(n_t, s, xi, mean, std_error):
    # a single point is the one-row case of a figure curve: its gains are summed unit exponentials
    est = spectral_efficiency_mc(AntennaConfig(n_t, s), xi, 2000, np.random.default_rng(5))
    assert (est.mean, est.std_error, est.replications) == (mean, std_error, 2000)


@pytest.mark.parametrize(
    ("roots", "reference", "shape"),
    [(zf_capacity._roots_hermite, special.roots_hermite, ())]
    + [(zf_capacity._roots_genlaguerre, special.roots_genlaguerre, (alpha,)) for alpha in (0, 1, 4, 15, 63, 0.5)],
)
@pytest.mark.parametrize("n", [2, 16, 96, 128])
def test_gauss_rules_are_scipys_bit_for_bit(roots, reference, shape, n):
    # computed without scipy; the nodes are scipy's bit for bit, and so are the Hermite weights.  The Laguerre
    # weights sum to 1, not to Gamma(alpha + 1), so that a gain shape past Gamma's double range still works
    nodes, weights = roots(n, *shape)
    expected_nodes, expected_weights = reference(n, *shape)
    assert np.array_equal(nodes, expected_nodes)
    if roots is zf_capacity._roots_hermite:
        assert np.array_equal(weights, expected_weights)
    else:
        assert weights * math.gamma(shape[0] + 1) == pytest.approx(expected_weights, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 16, 95, 96, 127, 128])
def test_hermite_recurrence_is_scipys_bit_for_bit(n):
    x = np.random.default_rng(n).uniform(-12.0, 12.0, 500)
    assert np.array_equal(zf_capacity._hermite(n, x), special.eval_hermite(n, x))


def test_spectral_efficiency_mc_matrix_route_agrees():
    cfg = AntennaConfig(4, 2)
    xi = 10.0
    gamma_route = spectral_efficiency_mc(cfg, xi, 40000, np.random.default_rng(26))
    gains = sample_zf_gains(cfg, 8000, np.random.default_rng(27))
    per_draw = np.log2(1.0 + (xi / cfg.s) * gains).sum(axis=1)
    mean = per_draw.mean()
    matrix_route = Estimate.from_influence(mean, (per_draw - mean) / per_draw.size, per_draw.size)
    diff = abs(gamma_route.mean - matrix_route.mean)
    assert diff <= 3.0 * math.hypot(gamma_route.std_error, matrix_route.std_error)


def test_bound_dominates_and_is_tight_at_low_xi():
    for n_t, s in ((2, 1), (4, 2), (8, 8)):
        cfg = AntennaConfig(n_t, s)
        for xi in (1e-12, 1e-9, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0):
            bound = spectral_efficiency_bound(cfg, xi)
            exact = spectral_efficiency_exact(cfg, xi)
            assert bound >= exact
    # The gap closes as xi -> 0 (both go to zero together).
    cfg = AntennaConfig(8, 4)
    assert spectral_efficiency_bound(cfg, 1e-4) == pytest.approx(
        spectral_efficiency_exact(cfg, 1e-4), rel=0.02
    )


@pytest.mark.parametrize(("n_t", "s"), [(2, 1), (4, 2), (8, 8)])
def test_bound_keeps_its_digits_down_to_the_smallest_xi(n_t, s):
    # log2(1 + y) would round y to the unit roundoff: the bound would fall below exact and, by 1e-300, to 0.0
    cfg = AntennaConfig(n_t, s)
    for xi in 10.0 ** -np.arange(0.0, 301.0, 10.0):
        with mpmath.workdps(40):
            want = s * mpmath.log1p(mpmath.mpf(xi) * cfg.gain_shape / s) / mpmath.log(2)
        assert spectral_efficiency_bound(cfg, xi) == pytest.approx(float(want), rel=1e-15, abs=0.0)


def test_bound_closed_form():
    cfg = AntennaConfig(8, 4)
    xi = 50.0
    assert spectral_efficiency_bound(cfg, xi) == pytest.approx(
        4 * math.log2(1 + xi / 4 * 5), rel=1e-12
    )


def test_more_antennas_help_single_stream():
    xi = 10.0
    vals = [spectral_efficiency_exact(AntennaConfig(n, 1), xi) for n in (2, 4, 8)]
    assert vals[0] < vals[1] < vals[2]


def test_stream_count_tradeoff_flips_with_xi():
    # Splitting power across streams pays off only when the power budget is
    # large; at low budget a single concentrated stream wins.
    low = [spectral_efficiency_exact(AntennaConfig(8, s), 0.01) for s in (1, 2, 4, 8)]
    high = [spectral_efficiency_exact(AntennaConfig(8, s), 1000.0) for s in (1, 2, 4, 8)]
    assert all(a > b for a, b in zip(low, low[1:]))
    assert all(a < b for a, b in zip(high, high[1:]))


@pytest.mark.parametrize("xi", [0.0, -1.0, math.nan, math.inf, 1e300])
def test_spectral_efficiency_rejects_nonpositive_or_non_finite_xi(xi):
    cfg = AntennaConfig(4, 2)
    for route in (
        lambda: spectral_efficiency_mc(cfg, xi, 10, np.random.default_rng(0)),
        lambda: spectral_efficiency_exact(cfg, xi),
        lambda: spectral_efficiency_bound(cfg, xi),
    ):
        with pytest.raises(ParameterError, match="xi"):
            route()
