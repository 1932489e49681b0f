"""Traffic, link-power, and energy-efficiency unit tests."""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from hcppnet import (
    AntennaConfig,
    ChannelParams,
    ConfigurationError,
    EnergyModel,
    HcppParams,
    InterferenceScenario,
    ParameterError,
    TrafficModel,
    config_from_dict,
    db_to_linear,
    energy_efficiency_mc,
    energy_efficiency_quad,
    links_per_bs,
    load_config,
    model_interference,
    path_gain,
    required_link_power,
    sample_shadowing,
    subchannel_capacity,
    traffic_pdf,
    traffic_sample,
)
from hcppnet import energy
from hcppnet.figures import run_figure

LAMBDA_P = 1.0 / (math.pi * 800.0**2)
BETA = db_to_linear(-31.54)


def default_models(theta=1.8, x_off=215.0, delta=500.0, alpha=3.8):
    tm = TrafficModel(theta, 2e4, 1e4)
    en = EnergyModel(eta=0.38, p_rf_chain=0.05, p_sta=45.5, p_link_max=2.0, n_link=30)
    sc = InterferenceScenario(
        HcppParams(LAMBDA_P, delta), ChannelParams(BETA, alpha, 6.0), x_off, 2.0
    )
    return tm, en, sc


def test_traffic_model_validation():
    TrafficModel(1.8, 2e4, 1e4)
    with pytest.raises(ParameterError):
        TrafficModel(1.0, 2e4, 1e4)  # heaviness must exceed 1 for a finite mean
    with pytest.raises(ParameterError):
        TrafficModel(2.2, 2e4, 1e4)  # beyond the supported heavy-tail range
    with pytest.raises(ParameterError):
        TrafficModel(1.8, 0.0, 1e4)


def test_traffic_pdf_normalizes_and_matches_mean():
    tm = TrafficModel(1.8, 2e4, 1e4)
    total, _ = integrate.quad(lambda x: traffic_pdf(x, tm), tm.rho_min, np.inf)
    assert total == pytest.approx(1.0, abs=1e-6)
    mean, _ = integrate.quad(lambda x: x * traffic_pdf(x, tm), tm.rho_min, np.inf)
    assert mean == pytest.approx(tm.theta * tm.rho_min / (tm.theta - 1.0), rel=1e-6)


def test_traffic_samples_match_distribution():
    tm = TrafficModel(1.8, 2e4, 1e4)
    rng = np.random.default_rng(31)
    x = traffic_sample(tm, rng, 400_000)
    assert x.min() >= tm.rho_min
    # Survival function is a clean power law; check at two abscissae.
    for q in (2.0, 5.0):
        emp = (x > q * tm.rho_min).mean()
        assert emp == pytest.approx(q**-1.8, rel=0.05)


def test_required_link_power_inverts_capacity():
    tm, _, sc = default_models()
    cfg = AntennaConfig(8, 4)
    i_avg = 1e-13
    p = 0.7
    rho = subchannel_capacity(cfg, tm.b_w, p, sc.channel, 1.5, 215.0, 2.5, i_avg)
    back = required_link_power(rho, cfg, tm, sc.channel, 1.5, 215.0, 2.5, i_avg)
    assert back == pytest.approx(p, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-6, 1e6),
    st.integers(1, 8),
    st.floats(1e-2, 1e2),
    st.floats(1e-3, 1e2),
    st.floats(1e-16, 1e-10),
)
def test_capacity_of_required_power_returns_the_rate(rho, s, w, g, i_avg):
    tm, _, sc = default_models()
    cfg = AntennaConfig(8, s)
    p = required_link_power(rho, cfg, tm, sc.channel, w, 215.0, g, i_avg)
    back = subchannel_capacity(cfg, tm.b_w, p, sc.channel, w, 215.0, g, i_avg)
    assert back == pytest.approx(rho, rel=1e-9, abs=0.0)


def test_required_link_power_zero_gain_is_unreachable():
    tm, _, sc = default_models()
    cfg = AntennaConfig(8, 4)
    p = required_link_power(1e5, cfg, tm, sc.channel, 1.0, 215.0, 0.0, 1e-13)
    assert math.isinf(p)


def test_required_link_power_huge_demand_overflows_to_outage():
    tm, _, sc = default_models()
    cfg = AntennaConfig(8, 4)
    p = required_link_power(1e12, cfg, tm, sc.channel, 1.0, 215.0, 1.0, 1e-13)
    assert math.isinf(p)  # an infinite requirement, not an exception


@pytest.mark.filterwarnings("error")
def test_required_link_power_subnormal_gain_overflows_to_outage():
    # the requirement overflows to inf in the division by a subnormal link gain, without a warning
    tm, _, sc = default_models()
    p = required_link_power(1e5, AntennaConfig(8, 4), tm, sc.channel, 1.0, 215.0, 1e-310, 1e-13)
    assert math.isinf(p)


def test_energy_model_needs_exactly_one_link_count_source():
    EnergyModel(eta=0.38, p_rf_chain=0.05, p_sta=45.5, p_link_max=2.0, n_link=30)
    EnergyModel(eta=0.38, p_rf_chain=0.05, p_sta=45.5, p_link_max=2.0, lambda_m=1e-5)
    with pytest.raises(ConfigurationError):
        EnergyModel(eta=0.38, p_rf_chain=0.05, p_sta=45.5, p_link_max=2.0)
    with pytest.raises(ConfigurationError):
        EnergyModel(
            eta=0.38, p_rf_chain=0.05, p_sta=45.5, p_link_max=2.0, n_link=30, lambda_m=1e-5
        )


def test_links_per_bs_from_user_intensity():
    en = EnergyModel(eta=0.38, p_rf_chain=0.05, p_sta=45.5, p_link_max=2.0, lambda_m=1e-5)
    assert links_per_bs(en, 1e-6) == pytest.approx(10.0)
    with pytest.raises(ConfigurationError):
        links_per_bs(en, None)


def test_avg_link_power_outage_fraction_reasonable():
    tm, en, sc = default_models()
    cfg = AntennaConfig(8, 8)
    i_avg, intensity, _ = model_interference("hcpp", sc)
    # the link draws energy_efficiency_mc makes, in its order
    rng = np.random.default_rng(32)
    rho = traffic_sample(tm, rng, 40000)
    w = sample_shadowing(sc.channel.sigma_s_db, rng, 40000)
    g = rng.gamma(cfg.gain_shape, 1.0, 40000)
    p = required_link_power(rho, cfg, tm, sc.channel, w, sc.x_off, g, i_avg)
    served = p <= en.p_link_max
    mean_p, outage = p[served].mean(), 1.0 - served.mean()
    assert 0.0 < mean_p < en.p_link_max
    assert 0.0 < outage < 0.5
    # the estimator averages traffic and power over exactly the served draws
    est = energy_efficiency_mc(cfg, tm, sc, en, 40000, np.random.default_rng(32), i_avg, intensity)
    per_link_watts = mean_p / en.eta + cfg.n_t * en.p_rf_chain + en.p_sta / en.n_link
    assert est.mean == pytest.approx(rho[served].mean() / tm.b_w / per_link_watts, rel=1e-12)
    # its standard error is the delta method's quadratic form with the sample covariance of the means
    grad = np.array([1.0 / (tm.b_w * per_link_watts), -est.mean / (per_link_watts * en.eta)])
    cov = np.cov(rho[served], p[served], ddof=1) / served.sum()
    assert est.std_error == pytest.approx(math.sqrt(grad @ cov @ grad), rel=1e-12, abs=0.0)


def test_avg_link_power_all_outage_degenerate():
    tm, en, sc = default_models()
    cfg = AntennaConfig(8, 8)
    _, intensity, _ = model_interference("hcpp", sc)
    # Astronomically strong interference forces every draw over the cap.
    est = energy_efficiency_mc(cfg, tm, sc, en, 200, np.random.default_rng(33), 1.0, intensity)
    assert est.mean == 0.0
    assert est.std_error == math.inf  # no served draw: the mean is unknown, not a certain zero
    assert est.replications == 200
    assert energy_efficiency_quad(cfg, tm, sc, en, 1.0, intensity) == 0.0


@pytest.mark.filterwarnings("error")
def test_energy_efficiency_quad_serves_nothing_quietly_past_the_double_range():
    # a rate floor whose e^(b rho_min) is past the double range: R(u_min) is inf and every node is in outage
    tm, en, sc = default_models()
    i_avg, intensity, _ = model_interference("hcpp", sc)
    assert energy_efficiency_quad(AntennaConfig(8, 1), replace(tm, rho_min=1e9), sc, en, i_avg, intensity) == 0.0


@pytest.mark.filterwarnings("error")
def test_energy_efficiency_quad_rejects_overflowing_peak_snr():
    # past e^709 the power moment overflows, and exp_tail is not finite at an infinite argument;
    # at 1e-315 the peak SNR itself overflows to inf, and the ParameterError is still the only report
    tm, en, sc = default_models()
    _, intensity, _ = model_interference("hcpp", sc)
    for i_avg in (1e-305, 1e-315):
        with pytest.raises(ParameterError, match="peak SNR"):
            energy_efficiency_quad(AntennaConfig(8, 4), tm, sc, en, i_avg, intensity)


def test_energy_efficiency_quad_matches_mc():
    tm, en, sc = default_models()
    for cfg in (AntennaConfig(8, 4), AntennaConfig(8, 8), AntennaConfig(4, 4)):
        i_avg, intensity, _ = model_interference("hcpp", sc)
        quad = energy_efficiency_quad(cfg, tm, sc, en, i_avg, intensity)
        est = energy_efficiency_mc(cfg, tm, sc, en, 150_000, np.random.default_rng(34), i_avg, intensity)
        assert abs(quad - est.mean) <= 3.5 * est.std_error
        assert est.std_error < 0.01 * est.mean


def test_energy_efficiency_quad_node_convergence(monkeypatch):
    tm, en, sc = default_models()
    cfg = AntennaConfig(8, 4)
    i_avg, intensity, _ = model_interference("hcpp", sc)
    default = energy_efficiency_quad(cfg, tm, sc, en, i_avg, intensity)

    def with_nodes(n_shadow, n_gain):
        monkeypatch.setattr(energy, "_N_SHADOW", n_shadow)
        monkeypatch.setattr(energy, "_N_GAIN", n_gain)
        return energy_efficiency_quad(cfg, tm, sc, en, i_avg, intensity)

    coarse = with_nodes(48, 64)
    fine = with_nodes(144, 192)
    assert default == pytest.approx(fine, rel=2e-3)
    assert coarse == pytest.approx(fine, rel=1e-2)


def test_energy_efficiency_quad_is_independent_of_the_memo():
    # the per-curve memo holds one entry; what it held before never changes a result's bits
    tm, en, sc = default_models()
    cfg = AntennaConfig(8, 4)
    i_avg, intensity, _ = model_interference("hcpp", sc)

    def quad(cfg=cfg, tm=tm, sc=sc, i_avg=i_avg):
        return energy_efficiency_quad(cfg, tm, sc, en, i_avg, intensity)

    points = (
        quad,
        lambda: quad(tm=replace(tm, theta=1.2)),
        lambda: quad(sc=replace(sc, channel=replace(sc.channel, sigma_s_db=4.0))),
        lambda: quad(cfg=AntennaConfig(8, 2)),  # another gain shape
        lambda: quad(i_avg=2.0 * i_avg),  # another c = p_link_max path_gain / i_avg
        lambda: quad(cfg=AntennaConfig(9, 5)),  # another s on the same curve
    )
    cold = []
    for point in points:
        energy._curve_nodes.cache_clear()
        cold.append(point())
    for point, want in zip(points, cold):
        for before in points:
            before()
            assert point() == want
    assert len(set(cold)) == len(cold)
    assert energy._curve_nodes.cache_info().currsize == 1


def test_energy_efficiency_quad_evaluates_one_kernel_per_curve(monkeypatch):
    # figure 9 sweeps n = n_t = s at gain shape 1: its 4 curves of 16 points need 4 full-grid exp_tail calls
    calls = []
    exp_tail = energy.exp_tail

    def counting(theta, u):
        calls.append(np.size(u))
        return exp_tail(theta, u)

    monkeypatch.setattr(energy, "exp_tail", counting)
    energy._curve_nodes.cache_clear()
    run_figure(9, config_from_dict({"seed": 7}), reps=3, workers=1)
    assert sum(n == energy._N_SHADOW * energy._N_GAIN for n in calls) == 4


@pytest.mark.parametrize(
    ("model", "n_t", "s", "mean", "std_error"),
    [
        ("hcpp", 8, 4, 1.920425280168677, 0.030334757705393636),
        ("hcpp", 4, 4, 1.6441145122682972, 0.027008970211439873),
        ("ppp", 8, 4, 1.619502658989076, 0.023291969006033614),
        ("ppp", 4, 4, 1.2163918335845672, 0.02108523081188521),
    ],
)
def test_single_row_estimate_is_pinned(model, n_t, s, mean, std_error):
    # a single-row run draws and estimates exactly as before figures shared their draws,
    # so `hcppnet ee` and these values stay put
    cfg = config_from_dict({"seed": 7})
    scenario = cfg.ee_scenario()
    i_avg, intensity, _ = model_interference(model, scenario)
    est = energy_efficiency_mc(
        AntennaConfig(n_t, s), cfg.traffic, scenario, cfg.energy, 2000, np.random.default_rng(5), i_avg, intensity
    )
    assert (est.mean, est.std_error, est.replications) == (mean, std_error, 2000)


def test_summed_exponential_gains_follow_the_gamma_law():
    # figure 8's Gamma(m) gains are running sums of shared unit exponentials
    shapes = []
    for m, g in energy._summed_exponentials(np.random.default_rng(1008), 100_000, (1, 4, 16)):
        d, _ = stats.kstest(g, stats.gamma(a=m).cdf)
        assert d < 0.01, (m, d)
        shapes.append(m)
    assert shapes == [1, 4, 16]


def test_one_draw_set_needs_one_shadowing_spread():
    tm, en, sc = default_models()
    other = replace(sc, channel=replace(sc.channel, sigma_s_db=8.0))
    rows = [(AntennaConfig(4, 4), tm, scenario, en, 1e-13, 1e-6) for scenario in (sc, other)]
    with pytest.raises(ParameterError, match="share sigma_s_db"):
        next(energy._shared_draw_terms(rows, 100, np.random.default_rng(0)))


def test_energy_efficiency_float_wrapper():
    tm, en, sc = default_models()
    cfg = AntennaConfig(8, 4)
    i_avg, intensity, _ = model_interference("hcpp", sc)
    v = energy_efficiency_mc(cfg, tm, sc, en, 20000, np.random.default_rng(35), i_avg, intensity).mean
    assert isinstance(v, float) and v > 0


def test_energy_efficiency_zero_shadowing_spread():
    tm, en, _ = default_models()
    sc = InterferenceScenario(
        HcppParams(LAMBDA_P, 500.0), ChannelParams(BETA, 3.8, 0.0), 215.0, 2.0
    )
    cfg = AntennaConfig(8, 4)
    i_avg, intensity, _ = model_interference("hcpp", sc)
    quad = energy_efficiency_quad(cfg, tm, sc, en, i_avg, intensity)
    est = energy_efficiency_mc(cfg, tm, sc, en, 120_000, np.random.default_rng(36), i_avg, intensity)
    assert abs(quad - est.mean) <= 3.5 * est.std_error


def test_energy_efficiency_heavier_traffic_tail_carries_more_bits():
    # Lower heaviness index means a fatter rate tail and a larger mean
    # demand, which outweighs the extra outage in the efficiency ratio.
    tm_heavy, en, sc = default_models(theta=1.2)
    tm_light, _, _ = default_models(theta=1.8)
    cfg = AntennaConfig(8, 8)
    i_avg, intensity, _ = model_interference("hcpp", sc)
    assert energy_efficiency_quad(cfg, tm_heavy, sc, en, i_avg, intensity) > energy_efficiency_quad(
        cfg, tm_light, sc, en, i_avg, intensity
    )


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 2.0, exclude_min=True), st.integers(1, 16), st.floats(0.0, 1.0))
@example(2.0, 1, 0.0)
@example(2.0, 16, 1.0)
@example(1.01, 4, 1.0)
@example(1.0 + 1e-9, 1, 0.5)
@example(1.0002, 2, 0.3)
@example(2.0 - 1e-9, 8, 0.7)
def test_capped_moments_match_mpmath_quadrature(theta, s, x):
    # u = b rho from 1.01 b rho_min to 60, log-uniform in x
    rho_min, b_w = 2e4, 1e4
    b = math.log(2.0) / (s * b_w)
    u_lo = 1.01 * b * rho_min
    u_star = u_lo * (60.0 / u_lo) ** x
    u = np.array([u_star])
    p_ok, e_rho, e_exp = energy._pareto_capped_moments(theta, rho_min, b, u, energy.exp_tail(theta, u))
    with mpmath.workdps(40):
        th, u_min, u_hi = mpmath.mpf(theta), mpmath.mpf(b * rho_min), mpmath.mpf(u_star)

        def moment(f):
            # theta rho_min^theta rho^(-theta-1) drho is theta u_min^theta u^(-theta-1) du
            return th * u_min**th * mpmath.quad(lambda u: f(u) * u ** (-th - 1), [u_min, u_hi])

        want = (moment(lambda u: 1), moment(lambda u: u / b), moment(mpmath.expm1))
    for got, ref in zip((p_ok, e_rho, e_exp), want):
        assert got[0] == pytest.approx(float(ref), rel=1e-13, abs=0.0)


def _default_ee(theta, n_t, s):
    cfg = load_config(None)
    sc = cfg.ee_scenario()
    i_avg, intensity, _ = model_interference("hcpp", sc)
    tm = replace(cfg.traffic, theta=theta)
    return energy_efficiency_quad(AntennaConfig(n_t, s), tm, sc, cfg.energy, i_avg, intensity)


@pytest.mark.parametrize(
    ("theta", "n_t", "s", "expected"),
    [
        # values of the power-series evaluation this closed form replaced
        (1.0 + 1e-6, 8, 1, 1.453515764434452),
        (1.0 + 1e-6, 8, 4, 2.658699437482927),
        (1.0 + 1e-6, 16, 16, 2.7204815049680224),
        (2.0 - 1e-6, 8, 1, 1.3362214002700967),
        (2.0 - 1e-6, 8, 4, 1.8365029489302402),
        (2.0 - 1e-6, 16, 16, 1.5200088365395343),
        (2.0, 8, 1, 1.3362212965121039),
        (2.0, 8, 4, 1.8365024363690812),
        (2.0, 16, 16, 1.5200082867042317),
    ],
)
def test_energy_efficiency_quad_at_theta_edges(theta, n_t, s, expected):
    assert _default_ee(theta, n_t, s) == pytest.approx(expected, rel=1e-8, abs=0.0)


def test_energy_efficiency_quad_is_continuous_at_theta_edges():
    # one ulp inside (1, 2]: no moment has a pole at either end, so the value is continuous there
    assert _default_ee(math.nextafter(2.0, 1.0), 8, 1) == pytest.approx(_default_ee(2.0, 8, 1), rel=1e-12, abs=0.0)
    assert _default_ee(math.nextafter(1.0, 2.0), 8, 1) == pytest.approx(_default_ee(1.0 + 1e-6, 8, 1), rel=1e-6, abs=0.0)
