"""Mean-interference unit tests: analytic quadrature vs Monte Carlo."""

import hashlib
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from hcppnet import (
    ChannelParams,
    Window,
    config_from_dict,
    DivergenceError,
    HcppParams,
    InterferenceScenario,
    ParameterError,
    avg_interference_hcpp,
    avg_interference_ppp,
    db_to_linear,
    mc_interference,
    matern2_thin,
    mc_interference_ppp,
    mean_shadowing,
    model_interference,
    sample_ppp,
    second_moment,
)
from hcppnet import interference
from hcppnet.figures import _by_seed_key, _rng_for, _tasks
from hcppnet.interference import (
    Estimate,
    _mark_thinning,
    _mc_row,
    _min_image,
    _tagged_station_mc,
    _tail_radial_integral,
    _truncation_radius,
)
from hcppnet.point_process import first_moment

LAMBDA_P = 1.0 / (math.pi * 800.0**2)
BETA = db_to_linear(-31.54)


def scenario(x_off=300.0, delta=500.0, alpha=3.8, lambda_p=LAMBDA_P, power=2.0, sigma=6.0):
    return InterferenceScenario(
        HcppParams(lambda_p, delta), ChannelParams(BETA, alpha, sigma), x_off, power
    )


def test_analytic_value_is_stable():
    # Hand-checked reference values for the default geometry.
    # abs=0.0 throughout: pytest.approx otherwise also accepts any gap below
    # 1e-12, which exceeds every interference value here (~1e-13 W).
    assert avg_interference_hcpp(scenario(300.0)) == pytest.approx(
        1.6100152016359728e-13, rel=1e-8, abs=0.0
    )
    assert avg_interference_hcpp(scenario(0.0)) == pytest.approx(
        7.40041415506636e-14, rel=1e-8, abs=0.0
    )


def _radial_oracle(s, ring_mean):
    # The pair density against a caller-given ring average of the power law,
    # integrated over log-spaced quad panels from delta out to 3e6 m (the
    # tail beyond is below 1e-6): an oracle independent of the hyp2f1 kernel.
    params, ch = s.hcpp, s.channel

    def radial(r):
        return second_moment(np.array([r]), params)[0] * r * ring_mean(r)

    edges = np.unique(np.append(np.geomspace(params.delta, 3e6, 40), 2 * params.delta))
    total = sum(
        integrate.quad(radial, lo, hi, epsabs=0.0, epsrel=1e-10)[0]
        for lo, hi in zip(edges[:-1], edges[1:])
    )
    pref = ch.beta * mean_shadowing(ch.sigma_s_db) * s.mean_tx_power / first_moment(params)
    return pref * 2.0 * math.pi * total


def test_analytic_centered_case_matches_radial_oracle():
    # At x_off = 0 the angular average collapses to the plain power law.
    s = scenario(0.0)
    oracle = _radial_oracle(s, lambda r: r ** -s.channel.alpha)
    assert avg_interference_hcpp(s) == pytest.approx(oracle, rel=1e-6, abs=0.0)


def test_ring_mean_decay_reduces_to_power_law_at_center():
    # F(a, a; 1; z) = 1 + a^2 z + O(z^2): as the user nears the serving
    # station the ring kernel tends to the power law, quadratically in x_off.
    center = avg_interference_hcpp(scenario(0.0))
    assert avg_interference_hcpp(scenario(1e-3)) == pytest.approx(center, rel=1e-9, abs=0.0)
    rise_1 = avg_interference_hcpp(scenario(1.0)) - center
    rise_2 = avg_interference_hcpp(scenario(2.0)) - center
    assert rise_1 > 0.0
    assert rise_2 / rise_1 == pytest.approx(4.0, rel=1e-3)


def test_ring_mean_decay_matches_direct_angular_quadrature():
    # Off center, the ring average of the power law is taken by direct
    # angular quadrature instead of the hypergeometric kernel.
    x_off = 300.0
    s = scenario(x_off)
    alpha = s.channel.alpha

    def ring_mean(r):
        def decay(phi):
            return (r * r + x_off * x_off - 2.0 * r * x_off * math.cos(phi)) ** (-alpha / 2)

        half, _ = integrate.quad(decay, 0.0, math.pi, epsabs=0.0, epsrel=1e-12)
        return half / math.pi

    oracle = _radial_oracle(s, ring_mean)
    assert avg_interference_hcpp(s) == pytest.approx(oracle, rel=1e-6, abs=0.0)


def test_analytic_rejects_singular_offsets():
    with pytest.raises(DivergenceError):
        avg_interference_hcpp(scenario(500.0, delta=500.0))
    with pytest.raises(DivergenceError):
        avg_interference_hcpp(scenario(650.0, delta=500.0))


def _with_far_field(s, near):
    # Mean interference from a caller-given integral over [delta, 2 delta] plus the closed-form far field.
    zeta1 = first_moment(s.hcpp)
    far = zeta1**2 * _tail_radial_integral(2.0 * s.hcpp.delta, s.x_off, s.channel.alpha)
    pref = s.channel.beta * mean_shadowing(s.channel.sigma_s_db) * s.mean_tx_power / zeta1
    return pref * 2.0 * math.pi * (near + far)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=100.0, max_value=1000.0),
    st.floats(min_value=0.125, max_value=8.0),
    st.floats(min_value=2.2, max_value=5.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=0.0, max_value=0.99),
)
@example(500.0, 1.0, 3.8, 0.99)
@example(300.0, 2.0, 4.2, 0.8)
def test_analytic_matches_adaptive_quadrature(delta, lambda_scale, alpha, ratio):
    # The fixed-node rule against adaptive quad over [delta, 2 delta] on the
    # untransformed kernel r^(1-alpha) F(a, a; 1; (d/r)^2).
    s = scenario(ratio * delta, delta=delta, alpha=alpha, lambda_p=lambda_scale * LAMBDA_P)
    d, a = s.x_off, alpha / 2.0

    def radial(r):
        return second_moment(r, s.hcpp) * r ** (1.0 - alpha) * special.hyp2f1(a, a, 1.0, (d / r) ** 2)

    near, _ = integrate.quad(radial, delta, 2.0 * delta, epsabs=0.0, epsrel=1e-12, limit=200)
    assert avg_interference_hcpp(s) == pytest.approx(_with_far_field(s, near), rel=1e-10, abs=0.0)


def _near_edge_reference(s):
    # The integral over [delta, 2 delta] in t = ln(r - x_off), so the offset
    # keeps all its digits however near x_off is to delta: quad on unit-width
    # panels in t, and F(a, a; 1; z) itself, no Euler transform, from mpmath
    # at 30 digits with r = x_off + e^t formed exactly.
    hcpp, d, alpha = s.hcpp, s.x_off, s.channel.alpha

    def radial(t):
        gap = math.exp(t)
        r = d + gap
        with mpmath.workdps(30):
            a = mpmath.mpf(alpha) / 2
            ring = float(mpmath.hyp2f1(a, a, 1, (mpmath.mpf(d) / (mpmath.mpf(d) + mpmath.mpf(gap))) ** 2))
        return gap * second_moment(np.array([r]), hcpp)[0] * r ** (1.0 - alpha) * ring

    lo, hi = math.log(hcpp.delta - d), math.log(2.0 * hcpp.delta - d)
    edges = np.linspace(lo, hi, math.ceil(hi - lo) + 1)
    panels = zip(edges[:-1], edges[1:])
    near = sum(integrate.quad(radial, t0, t1, epsabs=0.0, epsrel=1e-12)[0] for t0, t1 in panels)
    return _with_far_field(s, near)


@pytest.mark.parametrize("alpha", [2.5, 4.6])
@pytest.mark.parametrize("gap", [1e-3, 1e-6, 1e-9])
def test_analytic_near_exclusion_edge_matches_offset_reference(gap, alpha):
    s = scenario(500.0 * (1.0 - gap), delta=500.0, alpha=alpha)
    assert avg_interference_hcpp(s) == pytest.approx(_near_edge_reference(s), rel=1e-10, abs=0.0)


def test_analytic_power_law_growth_holds_to_the_last_float_before_delta():
    # As x_off -> delta the mean grows like (delta - x_off)^(2 - alpha), up to
    # relative terms of order (delta - x_off) / delta.  That must hold at the
    # last floats below delta too, where x_off + (r - x_off) rounds onto delta
    # for the nodes nearest the edge.
    delta, alpha = 500.0, 3.8
    base_x_off = delta * (1.0 - 1e-12)
    base = avg_interference_hcpp(scenario(base_x_off, delta=delta, alpha=alpha))
    for x_off in (math.nextafter(delta, 0.0), delta * (1.0 - 1e-15)):
        growth = ((delta - x_off) / (delta - base_x_off)) ** (2.0 - alpha)
        value = avg_interference_hcpp(scenario(x_off, delta=delta, alpha=alpha))
        assert value / base == pytest.approx(growth, rel=1e-9, abs=0.0)


@pytest.mark.filterwarnings("error")
def test_analytic_near_exclusion_edge_warns_nothing():
    assert avg_interference_hcpp(scenario(499.999, delta=500.0)) > avg_interference_hcpp(scenario(499.9))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "x_off, delta, alpha",
    [(499.999999999, 500.0, 60.0), (0.0, 1e-300, 3.8), (1e-300, 1e-290, 3.8)],
)
def test_analytic_mean_past_the_double_range_raises_divergence(x_off, delta, alpha):
    # a steep path loss next to the exclusion edge, or a sub-femtometre spacing
    with pytest.raises(DivergenceError, match="overflows double precision"):
        avg_interference_hcpp(scenario(x_off, delta=delta, alpha=alpha))


@pytest.mark.filterwarnings("error")
def test_analytic_mean_at_a_steep_alpha_underflows_or_diverges():
    # past alpha of about 1030 the ring average F(1 - a, 1 - a; 1; z) leaves the double range near z = 1; where
    # every near-field power underflows it is not needed and the mean is 0, as it is in double precision
    for x_off in (0.0, 300.0):
        assert avg_interference_hcpp(scenario(x_off, delta=500.0, alpha=1200.0)) == 0.0
    with pytest.raises(DivergenceError, match="overflows double precision"):
        avg_interference_hcpp(scenario(499.0, delta=500.0, alpha=1200.0))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x_off, alpha, power", [(1e-200, 3.8, 2.0), (1e-5, 60.0, 1e300)])
def test_poisson_mean_past_the_double_range_raises_divergence(x_off, alpha, power):
    # the power of x_off overflows, or a finite power times the prefactor does
    with pytest.raises(DivergenceError, match="overflows double precision"):
        avg_interference_ppp(scenario(x_off, alpha=alpha, power=power))


def test_analytic_monotonicity():
    base = avg_interference_hcpp(scenario(200.0))
    assert avg_interference_hcpp(scenario(400.0)) > base  # farther user, worse geometry
    assert avg_interference_hcpp(scenario(200.0, delta=300.0)) > base  # denser packing
    assert avg_interference_hcpp(scenario(200.0, lambda_p=2 * LAMBDA_P)) > base


def test_analytic_scale_linearity():
    base = avg_interference_hcpp(scenario(250.0))
    doubled_power = avg_interference_hcpp(scenario(250.0, power=4.0))
    assert doubled_power == pytest.approx(2 * base, rel=1e-12, abs=0.0)
    doubled_beta = InterferenceScenario(
        HcppParams(LAMBDA_P, 500.0), ChannelParams(2 * BETA, 3.8, 6.0), 250.0, 2.0
    )
    assert avg_interference_hcpp(doubled_beta) == pytest.approx(2 * base, rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=4.0),
    st.floats(min_value=0.0, max_value=0.95),
    st.floats(min_value=2.1, max_value=6.0),
)
@example(3.0, 0.95, 3.8)  # a power series in (d/R)**2 needs hundreds of terms here
@example(3.0, 0.95, 2.1)
def test_far_field_closed_form_matches_mpmath_quadrature(log_r, ratio, alpha):
    # int_R^inf r^(1-alpha) F(a, a; 1; (d/r)^2) dr at 40 digits.  Substituting
    # u = (R/r)^(alpha-2) turns it into R^(2-alpha)/(alpha-2) times the
    # integral over [0, 1] of a bounded F, which tanh-sinh resolves even for
    # alpha near 2, where the r^(1-alpha) tail is too heavy for it.
    r_start = 10.0**log_r
    d = ratio * r_start
    with mpmath.workdps(40):
        big_r, a, al = mpmath.mpf(r_start), mpmath.mpf(alpha) / 2, mpmath.mpf(alpha)
        z, p = (mpmath.mpf(d) / big_r) ** 2, 2 / (al - 2)
        ring = mpmath.quad(lambda u: mpmath.hyp2f1(a, a, 1, z * u**p), [0, 1])
        expected = float(big_r ** (2 - al) / (al - 2) * ring)
    assert _tail_radial_integral(r_start, d, alpha) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_panel_rule_is_scipys_shifted_gauss_legendre():
    # the rule is written out to keep scipy.linalg out of the import; it must stay bit-identical
    u, w = special.roots_sh_legendre(16)
    assert np.array_equal(interference._GL_U, u) and np.array_equal(interference._GL_W, w)


def test_mc_matches_analytic_spot():
    s = scenario(300.0)
    est = mc_interference(s, 2500, np.random.default_rng(101))
    assert est.replications == 2500
    assert abs(avg_interference_hcpp(s) - est.mean) <= 3.0 * est.std_error
    assert est.std_error < 0.05 * est.mean


def test_mc_linearity_in_power_with_paired_seeds():
    a = mc_interference(scenario(300.0, power=2.0), 200, np.random.default_rng(7))
    b = mc_interference(scenario(300.0, power=4.0), 200, np.random.default_rng(7))
    assert b.mean == pytest.approx(2 * a.mean, rel=1e-12, abs=0.0)


def test_mc_stream_stability_under_extension():
    # Growing the replication count must not change the draws already made.
    s = scenario(200.0)
    short = mc_interference(s, 50, np.random.default_rng(33))
    long = mc_interference(s, 150, np.random.default_rng(33))
    assert short.replications == 50 and long.replications == 150
    # Identical first-50 streams imply the two means cannot be independent;
    # check by reproducing the short run exactly.
    again = mc_interference(s, 50, np.random.default_rng(33))
    assert again.mean == short.mean and again.std_error == short.std_error


@pytest.mark.parametrize("chunk", [7, interference._SPAWN_CHUNK])
@pytest.mark.parametrize("estimator", [mc_interference, mc_interference_ppp])
def test_mc_spawns_exactly_one_child_stream_per_realization(estimator, chunk, monkeypatch):
    # realization i consumes child i of rng however many children are spawned
    # at a time, so the estimate does not depend on the chunk and the next child is child n
    n, seed = 20, 44
    reference = estimator(scenario(200.0), n, np.random.default_rng(seed))
    monkeypatch.setattr(interference, "_SPAWN_CHUNK", chunk)
    rng = np.random.default_rng(seed)
    assert estimator(scenario(200.0), n, rng) == reference
    expected = np.random.default_rng(seed).spawn(n + 1)[n]
    assert np.array_equal(rng.spawn(1)[0].random(8), expected.random(8))


@pytest.mark.parametrize(
    "estimator, mean, std_error",
    [
        (mc_interference, 1.6028222173409745e-13, 5.990555906507658e-15),
        (mc_interference_ppp, 2.1926476955963732e-13, 6.38235161438771e-15),
    ],
)
def test_single_row_estimate_is_pinned(estimator, mean, std_error):
    # a single-scenario run draws and sums exactly as before layouts were shared across rows,
    # so these values, and c03's fixed-seed z-scores, stay put
    est = estimator(config_from_dict({"seed": 7}).scenario(), 200, np.random.default_rng(5))
    assert (est.mean, est.std_error, est.replications) == (mean, std_error, 200)


def test_a_row_sharing_its_spacing_and_radius_keeps_its_sums():
    # rows with the same spacing and no larger truncation radius see the same
    # parents, thinning and angles, so adding one leaves the other's sums unchanged
    first = _mc_row("hcpp", scenario(300.0))
    other = _mc_row("hcpp", scenario(300.0, alpha=4.2))
    alone = _tagged_station_mc([first], 20, np.random.default_rng(9))
    shared = _tagged_station_mc([first, other], 20, np.random.default_rng(9))
    assert np.array_equal(shared[0][:1], alone[0]) and np.array_equal(shared[1][:1], alone[1])
    assert not np.array_equal(shared[0][0], shared[0][1])


def _groups(rows, realizations, rng):
    # (realizations, parents) of each group that _tagged_station_mc runs together, the call's work buffers, and
    # its result; a group's block of draws holds 4 per parent
    with mock.patch.object(interference, "_group_sums", wraps=interference._group_sums) as groups:
        result = _tagged_station_mc(rows, realizations, rng)
    calls = groups.call_args_list
    return [(len(call.args[2]), call.args[2].shape[1] // 4) for call in calls], calls[0].args[3], result


def _group_sizes(rows, realizations, rng):
    # the size of each group of realizations that _tagged_station_mc runs together
    shapes, _, result = _groups(rows, realizations, rng)
    return [g for g, _ in shapes], result


def test_a_poisson_only_layout_set_ranks_no_marks():
    # at spacing 0 no parent can die, so the marks are ranked, once per group of realizations that drew the
    # same parent count, only when some row has a positive spacing
    poisson = [_mc_row("ppp", scenario(200.0)), _mc_row("ppp", scenario(300.0, alpha=4.2))]
    hcpp = poisson + [_mc_row("hcpp", scenario(300.0))]
    groups = len(_group_sizes(hcpp, 40, np.random.default_rng(3))[0])
    assert groups < 40  # some realizations drew the same count, so a per-realization count would differ
    for rows, ranked in ((poisson, 0), (hcpp, groups)):
        with mock.patch.object(interference.np, "argsort", wraps=np.argsort) as argsort:
            _tagged_station_mc(rows, 40, np.random.default_rng(3))
        assert argsort.call_count == ranked


@pytest.mark.parametrize("layout_set", ["default hcpp row", "figure 2", "figure 3"])
def test_grouping_realizations_moves_no_bit(layout_set, monkeypatch):
    # a cap of one plane entry runs every realization in a group of its own; the default caps group them,
    # and no total or count may move by a bit
    if layout_set == "default hcpp row":
        rows = [_mc_row("hcpp", config_from_dict({"seed": 7}).scenario())]
        realizations, seed = interference._SPAWN_CHUNK + 76, (7,)
    else:
        tasks = _tasks(int(layout_set[-1]), config_from_dict({"seed": 7}), 64)
        ((key, idx),) = _by_seed_key(tasks).items()
        rows, realizations, seed = [_mc_row(tasks[i].model, tasks[i].scenario) for i in idx], 64, key
    shapes, work, grouped = _groups(rows, realizations, _rng_for(*seed))
    # every plane and every (rows, pairs) table a group built fits its cap: the buffers grow to the largest
    assert max(g * n * n for g, n in shapes) <= interference._PLANE_ENTRIES
    for name in ("dx", "dy", "dist2", "outranks", "close", "inplay"):
        assert work.buffers[name].size <= interference._PLANE_ENTRIES, name
    assert max(buf.size for buf in work.buffers.values()) <= interference._TABLE_ENTRIES
    # the default point's 39 parents fit 5 realizations in the 8192-entry planes of before; its groups are larger now
    assert max(g for g, _ in shapes) > (5 if layout_set == "default hcpp row" else 1)
    monkeypatch.setattr(interference, "_PLANE_ENTRIES", 1)
    alone_sizes, alone = _group_sizes(rows, realizations, _rng_for(*seed))
    assert set(alone_sizes) == {1} and len(alone_sizes) == realizations
    assert np.array_equal(grouped[0], alone[0]) and np.array_equal(grouped[1], alone[1])


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**128),
    st.lists(st.integers(0, 2**32 - 1), max_size=3),
    st.integers(0, 5000),
    st.sampled_from([1, 7, 1024]),
)
@example(7, [2, 0], 0, 1024)  # a figure family's key and first chunk
@example(20260818, [13], 0, 7)  # a c03 grid point's key
def test_chunk_seeded_children_are_the_spawned_ones(entropy, spawn_key, spawned, count):
    # for PCG64, children seeded from one vectorised hash of their pools carry the states of rng.spawn's children,
    # and the next spawn of either generator starts at the same child
    ours, theirs = (_rng_for(entropy, *spawn_key, spawned=spawned) for _ in range(2))
    children = interference._child_streams(ours, count)
    assert [c.bit_generator.state for c in children] == [c.bit_generator.state for c in theirs.spawn(count)]
    assert ours.bit_generator.seed_seq.n_children_spawned == spawned + count
    assert ours.spawn(1)[0].bit_generator.state == theirs.spawn(1)[0].bit_generator.state


@pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.SFC64])
def test_other_bit_generators_run_on_rng_spawn(bit_generator):
    # any bit generator but PCG64 takes rng.spawn's children, so the estimator still matches the row loop's streams
    def rng():
        return np.random.Generator(bit_generator(np.random.SeedSequence(11, spawn_key=(3,))))

    children, expected = interference._child_streams(rng(), 7), rng().spawn(7)
    assert [type(c.bit_generator) for c in children] == [bit_generator] * 7
    assert all(np.array_equal(a.random(8), b.random(8)) for a, b in zip(children, expected))
    rows = [_mc_row("hcpp", scenario(300.0)), _mc_row("ppp", scenario(200.0))]
    grouped, looped = _tagged_station_mc(rows, 5, rng()), _row_loop_mc(rows, 5, rng())
    assert np.array_equal(grouped[0], looped[0]) and np.array_equal(grouped[1], looped[1])


def test_layout_rows_must_share_the_parent_intensity():
    rows = [_mc_row("hcpp", scenario(300.0)), _mc_row("hcpp", scenario(300.0, lambda_p=2 * LAMBDA_P))]
    with pytest.raises(ParameterError, match="share lambda_p"):
        _tagged_station_mc(rows, 2, np.random.default_rng(0))


def _row_loop_realization(lambda_p, by_delta, r_trunc, rng, n_rows):
    # the reference: one realization summed row by row, each row on its own gathered pairs, with the minimum
    # image, Matern-II thinning and pair gathers written out on the (n, n, 2) difference tensor
    side = 2.0 * r_trunc
    parents = sample_ppp(lambda_p, Window(0.0, side, 0.0, side), rng)
    n = len(parents)
    marks = rng.random(n)
    diff = parents[None, :, :] - parents[:, None, :]
    diff -= side * np.round(diff / side)
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    rank = np.empty(n, dtype=np.intp)
    rank[np.argsort(marks, kind="stable")] = np.arange(n)
    beats = rank[:, None] < rank[None, :]  # a smaller mark, or an equal one at an earlier index
    kept = [
        np.flatnonzero(~((dist2 <= delta**2) & beats).any(axis=0)) if delta > 0 else np.arange(n)
        for delta, _ in by_delta
    ]
    theta = rng.uniform(0.0, 2.0 * np.pi, len(kept[0]))
    unit = np.empty((n, 2))
    unit[kept[0]] = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    totals, counts = np.empty(n_rows), np.empty(n_rows)
    for stations, (_, rows) in zip(kept, by_delta):
        pair = diff[np.ix_(stations, stations)]
        inplay = np.einsum("ijk,ijk->ij", pair, pair) <= r_trunc**2
        np.fill_diagonal(inplay, False)
        user_idx, station_idx = np.nonzero(inplay)
        pair = pair[user_idx, station_idx]
        toward_user = unit[stations][user_idx]
        for k, x_off, alpha, nearest in rows:
            d_user = pair - x_off * toward_user
            d2_user = np.einsum("ij,ij->i", d_user, d_user)
            if nearest:
                d2_user = d2_user[d2_user > x_off**2]
            totals[k] = (d2_user ** (-alpha / 2.0)).sum()
            counts[k] = len(stations)
    return totals, counts


def _row_loop_mc(rows, realizations, rng):
    # the reference of _tagged_station_mc: the same streams, summed by _row_loop_realization
    by_delta: dict[float, list] = {}
    for k, (s, nearest) in enumerate(rows):
        by_delta.setdefault(s.hcpp.delta, []).append((k, s.x_off, s.channel.alpha, nearest))
    by_delta = sorted(by_delta.items())
    r_trunc = _truncation_radius(rows)
    totals = np.empty((len(rows), realizations))
    counts = np.empty((len(rows), realizations))
    for i, stream in enumerate(rng.spawn(realizations)):
        totals[:, i], counts[:, i] = _row_loop_realization(
            rows[0][0].hcpp.lambda_p, by_delta, r_trunc, stream, len(rows)
        )
    return totals, counts


_ROW = st.tuples(
    st.sampled_from([0.0, 300.0, 500.0]),  # delta
    st.sampled_from([0.0, 40.0, 200.0, 280.0]),  # x_off, repeated across rows
    st.sampled_from([2.5, 3.4, 3.8, 4.2]),  # alpha
    st.booleans(),  # nearest
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_ROW, min_size=1, max_size=10),
    st.sampled_from([1.0, 0.1, 4.0]),
    st.sampled_from([None, 0, 1, 2]),
    st.integers(0, 2**32 - 1),
)
@example([(0.0, 200.0, 3.8, True), (0.0, 200.0, 4.2, True), (500.0, 200.0, 3.8, False)], 1.0, None, 5)
@example([(300.0, 40.0, 3.4, False), (0.0, 40.0, 3.4, True)], 1.0, 1, 7)
def test_grouped_rows_sum_exactly_as_the_row_loop(specs, lambda_scale, parents_kept, seed):
    # every row of a realization sums the same values in the same order as the row-by-row loop, also with 0, 1
    # or 2 parents: a window holds at least 16 in the mean at any lambda_p, so capping the parent count of both
    # routes' child streams is what reaches these
    rows = [
        (scenario(x_off, delta, alpha, lambda_p=LAMBDA_P * lambda_scale), nearest)
        for delta, x_off, alpha, nearest in specs
    ]
    capped = _capped_count_generator(parents_kept)
    shapes, _, grouped = _groups(rows, 3, capped(np.random.PCG64(seed)))
    if parents_kept is not None:
        assert {n for _, n in shapes} == {parents_kept}
    looped = _row_loop_mc(rows, 3, capped(np.random.PCG64(seed)))
    assert np.array_equal(grouped[0], looped[0]) and np.array_equal(grouped[1], looped[1])


def _capped_count_generator(cap):
    # a Generator type whose Poisson draws, and those of the children it spawns, return at most cap
    if cap is None:
        return np.random.Generator

    class Capped(np.random.Generator):
        def poisson(self, lam=1.0, size=None):
            return min(super().poisson(lam, size), cap)

    return Capped


@pytest.mark.parametrize(
    "figure_id, digest",
    [
        (2, "bb5463cc6f233179438e65d6e37f18e9deede7e2aa3f667d4e6ca610de84553e"),
        (3, "56bdb7561813f2b1513954ed165eb42e6644d4064678a5b228cd17780bb35bfb"),
    ],
)
def test_figure_family_sums_are_pinned(figure_id, digest):
    # the per-realization totals and counts of one figure family at a fixed seed, as the row loop gave them
    tasks = _tasks(figure_id, config_from_dict({"seed": 7}), 64)
    ((key, idx),) = _by_seed_key(tasks).items()
    rows = [_mc_row(tasks[i].model, tasks[i].scenario) for i in idx]
    totals, counts = _tagged_station_mc(rows, 64, _rng_for(*key))
    assert totals.shape == counts.shape == (len(rows), 64)
    assert hashlib.sha256(totals.tobytes() + counts.tobytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "grid_idx, delta, x_off, alpha, digest",
    [
        (13, 300.0, 200.0, 4.2, "71282e309a986bb70ba1007b014d22de91c47251aa6de30be61aec61eb10d797"),
        (16, 500.0, 0.0, 3.4, "fa6d577daf3c224bfbdc6f2c0491275f07522aa89c06f9629751553cff3bd9fd"),
        (25, 500.0, 400.0, 3.8, "29b73916d484237f3f60df144bd9bc221ffd5825664c439b85147615c7204f2f"),
    ],
)
def test_c03_grid_point_sums_are_pinned(grid_idx, delta, x_off, alpha, digest):
    # the first 64 realizations of three c03 grid points, at c03's own seed keys: its fixed-seed
    # z-scores rest on these draws and sums, at points away from the default one pinned above
    rng = np.random.default_rng(np.random.SeedSequence((20260818, grid_idx)))
    totals, counts = _tagged_station_mc([_mc_row("hcpp", scenario(x_off, delta, alpha))], 64, rng)
    assert hashlib.sha256(totals.tobytes() + counts.tobytes()).hexdigest() == digest


# Integer coordinates keep every squared distance exact, so points exactly
# delta apart are decided the same way by both sides; three mark values force ties.
@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 12), st.integers(0, 12), st.sampled_from([0.0, 0.5, 1.0])),
        max_size=40,
    ),
    st.integers(0, 6),
)
def test_mc_thinning_matches_matern2_thin_where_no_pair_wraps(marked, delta):
    # on [0, side/2)^2 no minimum-image distance wraps, so the torus and the plane agree
    side = 26.0
    pts = np.array([(x, y) for x, y, _ in marked], dtype=float).reshape(-1, 2)
    marks = np.array([m for _, _, m in marked])
    work = interference._Work()
    (kept,) = _mark_thinning(_min_image(pts[None], side, work)[2], marks[None], [float(delta)], work)
    expected = matern2_thin(pts, float(delta), marks, Window(0.0, side, 0.0, side))
    assert np.array_equal(pts[kept[0]], expected)


def test_mc_thinning_competes_across_the_seam():
    # 2 m apart across the edge of a 20 m torus, 18 m apart in the plane
    pts = np.array([[19.0, 5.0], [1.0, 5.0]])
    work = interference._Work()
    (kept,) = _mark_thinning(_min_image(pts[None], 20.0, work)[2], np.array([[0.6, 0.2]]), [3.0], work)
    assert np.flatnonzero(kept[0]).tolist() == [1]
    assert matern2_thin(pts, 3.0, marks=[0.6, 0.2], window=Window(0.0, 20.0, 0.0, 20.0)).tolist() == pts.tolist()


def test_mc_shadowing_enters_by_its_mean_with_paired_seeds():
    # conditional Monte Carlo: no shadowing is drawn, so the same streams see
    # the same layouts and angles, and the shadowing mean is an exact factor
    shadowed = mc_interference(scenario(300.0, sigma=6.0), 30, np.random.default_rng(8))
    plain = mc_interference(scenario(300.0, sigma=0.0), 30, np.random.default_rng(8))
    assert shadowed.mean / plain.mean == pytest.approx(mean_shadowing(6.0), rel=1e-12, abs=0.0)
    assert shadowed.std_error / plain.std_error == pytest.approx(mean_shadowing(6.0), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("model, x_off", [("hcpp", 300.0), ("ppp", 200.0)])
def test_mc_z_scores_calibrated_at_small_reps(model, x_off):
    # at 50 realizations the analytic-minus-MC z-scores over 20 seeds must
    # spread like a standard normal, not with the heavy tail of drawn shadowing
    z = []
    for seed in range(20):
        analytic, _, est = model_interference(model, scenario(x_off), 50, np.random.default_rng(seed))
        z.append((analytic - est.mean) / est.std_error)
    assert np.std(z, ddof=1) <= 1.5


def test_ppp_closed_form_value():
    s = scenario(300.0)
    direct = (
        2
        * math.pi
        * LAMBDA_P
        * BETA
        * mean_shadowing(6.0)
        * 2.0
        * 300.0 ** (2 - 3.8)
        / (3.8 - 2)
    )
    assert avg_interference_ppp(s) == pytest.approx(direct, rel=1e-12, abs=0.0)
    assert avg_interference_ppp(s) == pytest.approx(2.1991485704122095e-13, rel=1e-10, abs=0.0)


def test_ppp_diverges_at_zero_offset():
    with pytest.raises(DivergenceError):
        avg_interference_ppp(scenario(0.0))
    with pytest.raises(DivergenceError):
        mc_interference_ppp(scenario(0.0), 10, np.random.default_rng(2))


def test_ppp_monotone_decreasing_in_x_off():
    vals = [avg_interference_ppp(scenario(x)) for x in (50.0, 100.0, 200.0, 400.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_ppp_mc_matches_closed_form():
    s = scenario(300.0)
    est = mc_interference_ppp(s, 4000, np.random.default_rng(103))
    assert abs(avg_interference_ppp(s) - est.mean) <= 3.0 * est.std_error


def test_hcpp_vs_ppp_baseline_crossover():
    # Near the serving station the hard-core exclusion (radius delta around
    # the server) keeps interferers far away while Poisson interferers may
    # sit just outside x_off: the hard-core layout is much quieter.  Close
    # to the exclusion edge the roles flip, because a Poisson user at large
    # x_off enjoys a large own exclusion disc while the hard-core user can
    # almost touch an interferer.
    for x in (100.0, 215.0, 250.0):
        assert avg_interference_hcpp(scenario(x)) < avg_interference_ppp(scenario(x))
    assert avg_interference_hcpp(scenario(400.0)) > avg_interference_ppp(scenario(400.0))


def test_estimate_single_replication_flags_unknown_error():
    est = mc_interference(scenario(100.0), 1, np.random.default_rng(3))
    assert est.replications == 1
    assert math.isinf(est.std_error)


def test_standard_error_is_the_linearized_ratio_variance():
    # Cochran, Sampling Techniques, 6.4: the ratio r = sum(y) / sum(x) of n realizations has the
    # linearized variance sum((y - r x)**2) / ((n - 1) n xbar**2), here in watts
    s, n = scenario(200.0), 50
    est = mc_interference(s, n, np.random.default_rng(8))
    (y,), (x,) = _tagged_station_mc([_mc_row("hcpp", s)], n, np.random.default_rng(8))
    r = y.sum() / x.sum()
    variance = np.sum((y - r * x) ** 2) / ((n - 1) * n * x.mean() ** 2)
    watts = BETA * mean_shadowing(6.0) * 2.0
    assert est.std_error == pytest.approx(watts * math.sqrt(variance), rel=1e-14, abs=0.0)


_SAMPLE = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))


@settings(max_examples=200, deadline=None)
@given(st.lists(_SAMPLE, min_size=1, max_size=40), st.integers(-900, 900))
@example([0.0, 1.0], 512)  # the squares overflow
@example([1e-6, -3e-6, 2e-6], -500)  # the squares are subnormal
@example([1e-6, -3e-6, 2e-6], -900)  # the squares underflow to 0
def test_estimate_scales_exactly_by_powers_of_two(values, k):
    # a power-of-two scale is exact, so scaling the influence terms scales the standard error bit for bit
    terms = np.array(values)
    est = Estimate.from_influence(terms.sum(), terms, len(values))
    scaled = Estimate.from_influence(math.ldexp(est.mean, k), np.ldexp(terms, k), len(values))
    assert scaled == Estimate(math.ldexp(est.mean, k), math.ldexp(est.std_error, k), len(values))
