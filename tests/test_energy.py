"""Traffic, link-power, and energy-efficiency unit tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from hcppnet import (
    AntennaConfig,
    ChannelParams,
    ConfigurationError,
    EnergyModel,
    HcppParams,
    InterferenceScenario,
    ParameterError,
    TrafficModel,
    db_to_linear,
    energy_efficiency_mc,
    energy_efficiency_quad,
    links_per_bs,
    model_interference,
    path_gain,
    required_link_power,
    sample_shadowing,
    subchannel_capacity,
    traffic_pdf,
    traffic_sample,
)
from hcppnet import energy

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


def test_avg_link_power_all_outage_degenerate():
    tm, en, sc = default_models()
    cfg = AntennaConfig(8, 8)
    _, intensity, _ = model_interference("hcpp", sc)
    # Astronomically strong interference forces every draw over the cap.
    est = energy_efficiency_mc(cfg, tm, sc, en, 200, np.random.default_rng(33), 1.0, intensity)
    assert est.mean == 0.0
    assert est.std_error == 0.0
    assert est.replications == 200
    assert energy_efficiency_quad(cfg, tm, sc, en, 1.0, intensity) == 0.0


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
