"""Link-level channel primitives: power-law distance loss and lognormal shadowing.

Rayleigh fading enters only through its unit mean and the zero-forcing
gain law in :mod:`hcppnet.zf_capacity`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "ChannelParams",
    "db_to_linear",
    "path_gain",
    "sample_shadowing",
    "mean_shadowing",
]

_LN10_OVER_10 = np.log(10.0) / 10.0


@dataclass(frozen=True)
class ChannelParams:
    """Propagation constants.

    Parameters
    ----------
    beta : float
        Linear gain at unit distance (configure in dB externally, convert
        once with :func:`db_to_linear`).
    alpha : float
        Path-loss exponent.  Must exceed 2 or planar interference sums
        diverge.
    sigma_s_db : float
        Shadowing standard deviation in dB.
    """

    beta: float
    alpha: float
    sigma_s_db: float

    def __post_init__(self):
        if self.beta <= 0:
            raise ParameterError(f"beta must be positive, got {self.beta}")
        if self.alpha <= 2:
            raise ParameterError(f"alpha must exceed 2, got {self.alpha}")
        if self.sigma_s_db < 0:
            raise ParameterError(f"sigma_s_db must be nonnegative, got {self.sigma_s_db}")


def db_to_linear(x_db):
    return np.power(10.0, np.asarray(x_db, dtype=float) / 10.0)[()]


def path_gain(params: ChannelParams, distance):
    """Deterministic power loss ``beta * distance**(-alpha)``; vectorized over distance."""
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0):
        raise ParameterError("distance must be positive")
    return (params.beta * d**-params.alpha)[()]


def sample_shadowing(sigma_s_db: float, rng: np.random.Generator, size=None):
    """Lognormal shadowing factors ``10**(s/10)`` with ``s ~ N(0, sigma_s_db**2)``."""
    if sigma_s_db < 0:
        raise ParameterError(f"sigma_s_db must be nonnegative, got {sigma_s_db}")
    s = rng.normal(0.0, sigma_s_db, size)
    return np.power(10.0, s / 10.0)


def mean_shadowing(sigma_s_db: float) -> float:
    """Mean of the lognormal shadowing factor: ``exp((sigma_s_db * ln10 / 10)**2 / 2)``."""
    if sigma_s_db < 0:
        raise ParameterError(f"sigma_s_db must be nonnegative, got {sigma_s_db}")
    mu = sigma_s_db * _LN10_OVER_10
    return float(np.exp(mu**2 / 2.0))

