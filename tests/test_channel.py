"""Propagation and fading-law unit tests."""

import math

import numpy as np
import pytest

from hcppnet import (
    AntennaConfig,
    ChannelParams,
    ParameterError,
    db_to_linear,
    mean_shadowing,
    path_gain,
    sample_shadowing,
    sample_zf_gains,
)

BETA = db_to_linear(-31.54)


def test_db_round_trip():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-30.0) == pytest.approx(1e-3, rel=1e-15)
    assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-15)
    for v in (-31.54, 0.0, 6.0, 20.0):
        assert 10.0 * math.log10(db_to_linear(v)) == pytest.approx(v, abs=1e-12)


def test_channel_params_validation():
    ChannelParams(BETA, 3.8, 6.0)
    with pytest.raises(ParameterError):
        ChannelParams(-1.0, 3.8, 6.0)
    with pytest.raises(ParameterError):
        ChannelParams(BETA, 2.0, 6.0)  # alpha must exceed 2 for finite means
    with pytest.raises(ParameterError):
        ChannelParams(BETA, 3.8, -0.1)


def test_path_gain_values_and_scaling():
    ch = ChannelParams(BETA, 3.8, 6.0)
    g100 = path_gain(ch, 100.0)
    assert g100 == pytest.approx(BETA * 100.0**-3.8, rel=1e-12, abs=0.0)
    # Doubling the distance divides the gain by 2^alpha.
    assert path_gain(ch, 200.0) == pytest.approx(g100 / 2**3.8, rel=1e-12, abs=0.0)


def test_path_gain_rejects_nonpositive_distance():
    ch = ChannelParams(BETA, 3.8, 6.0)
    with pytest.raises(ParameterError):
        path_gain(ch, 0.0)


def test_shadowing_mean_closed_form():
    sigma = 6.0
    direct = math.exp(0.5 * (sigma * math.log(10.0) / 10.0) ** 2)
    assert mean_shadowing(sigma) == pytest.approx(direct, rel=1e-14)
    assert mean_shadowing(sigma) == pytest.approx(2.5969603368555685, rel=1e-12)
    assert mean_shadowing(0.0) == pytest.approx(1.0)


def test_shadowing_samples_match_moments():
    rng = np.random.default_rng(11)
    w = sample_shadowing(6.0, rng, 200_000)
    assert w.mean() == pytest.approx(mean_shadowing(6.0), rel=0.02)
    # log10 of the samples is Gaussian with the stated spread.
    db = 10.0 * np.log10(w)
    assert db.std() == pytest.approx(6.0, rel=0.02)
    assert abs(db.mean()) < 0.05


def test_shadowing_sigma_zero_is_degenerate():
    rng = np.random.default_rng(12)
    assert np.all(sample_shadowing(0.0, rng, 100) == 1.0)


def test_zf_gain_sample_matches_projection_identity():
    # For a single stream (s = 1) the gain is just the squared channel norm.
    g = sample_zf_gains(AntennaConfig(6, 1), 5, np.random.default_rng(14))
    # redraw the same channel matrices from the same seed
    rng = np.random.default_rng(14)
    h = (rng.standard_normal((5, 1, 6)) + 1j * rng.standard_normal((5, 1, 6))) / np.sqrt(2.0)
    assert np.allclose(g[:, 0], (np.abs(h) ** 2).sum(axis=(1, 2)), rtol=1e-10, atol=0.0)


def test_zf_gain_sample_mean_tracks_shape():
    rng = np.random.default_rng(15)
    n_t, s = 6, 3
    vals = sample_zf_gains(AntennaConfig(n_t, s), 4000, rng)[:, 1]
    assert np.mean(vals) == pytest.approx(n_t - s + 1, rel=0.05)
