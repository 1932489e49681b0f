"""Link-level channel primitives: power-law distance loss and lognormal shadowing.

Rayleigh fading enters only through its unit mean and the zero-forcing
gain law in :mod:`hcppnet.zf_capacity`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, bounded, check, check_fields

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

    beta: float = bounded((">", 0))
    alpha: float = bounded((">", 2))
    sigma_s_db: float = bounded((">=", 0))

    def __post_init__(self):
        check_fields(self)


def db_to_linear(x_db):
    with np.errstate(over="ignore"):  # a gain past the double range is inf, which the model checks reject
        return np.power(10.0, np.asarray(x_db, dtype=float) / 10.0)[()]


def path_gain(params: ChannelParams, distance):
    """Deterministic power loss ``beta * distance**(-alpha)``; vectorized over distance."""
    d = np.asarray(distance, dtype=float)
    if np.any(d <= 0):
        raise ParameterError("distance must be positive")
    return (params.beta * d**-params.alpha)[()]


def sample_shadowing(sigma_s_db: float, rng: np.random.Generator, size=None):
    """Lognormal shadowing factors ``10**(s/10)`` with ``s ~ N(0, sigma_s_db**2)``."""
    check("sigma_s_db", sigma_s_db, (">=", 0))
    s = rng.normal(0.0, sigma_s_db, size)
    return np.exp(s * _LN10_OVER_10)


def mean_shadowing(sigma_s_db: float) -> float:
    """Mean of the lognormal shadowing factor: ``exp((sigma_s_db * ln10 / 10)**2 / 2)``."""
    check("sigma_s_db", sigma_s_db, (">=", 0))
    mu = sigma_s_db * _LN10_OVER_10
    return float(np.exp(mu**2 / 2.0))

