"""Zero-forcing multi-user downlink: per-stream gains, stream rate and spectral efficiency.

A station with ``n_t`` antennas serves ``s`` single-antenna users at once by
inverting the aggregate channel.  The per-stream effective gain then follows
a Gamma law (shape ``n_t - s + 1``), which gives a fast sampling shortcut
for the spectral efficiency, a Gauss-Laguerre quadrature (accurate to about
7e-4 relative at gain shape 1, see :func:`spectral_efficiency_exact`), and a
closed-form Jensen upper bound; :func:`sample_zf_gains` draws the gains
from explicit channel matrices to check that law.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, path_gain
from .errors import ParameterError, bounded, check, check_fields
from .interference import Estimate

__all__ = [
    "AntennaConfig",
    "subchannel_capacity",
    "sample_zf_gains",
    "spectral_efficiency_mc",
    "spectral_efficiency_exact",
    "spectral_efficiency_bound",
]


@dataclass(frozen=True)
class AntennaConfig:
    """Antenna counts: ``n_t`` at the station, ``s`` single-antenna users served together."""

    n_t: int = bounded((">=", 1))
    s: int = bounded((">=", 1))

    def __post_init__(self):
        check_fields(self)
        if self.n_t < self.s:
            raise ParameterError(f"need n_t >= s >= 1, got n_t={self.n_t}, s={self.s}")

    @property
    def gain_shape(self) -> int:
        """Shape of the Gamma law of the per-stream zero-forcing gain."""
        return self.n_t - self.s + 1


def _check_link_draws(rho=None, w_ii=None, gain=None) -> None:
    """Reject a negative rate, a nonpositive shadowing factor or a negative gain among the arrays given."""
    if rho is not None and np.any(rho < 0):
        raise ParameterError("rho must be nonnegative")
    if w_ii is not None and np.any(w_ii <= 0):
        raise ParameterError("w_ii must be positive")
    if gain is not None and np.any(gain < 0):
        raise ParameterError("gain must be nonnegative")


def subchannel_capacity(
    cfg: AntennaConfig,
    b_w: float,
    p_ik: float,
    channel: ChannelParams,
    w_ii,
    x_off: float,
    gain,
    i_avg: float,
) -> float:
    """Rate of one stream: ``s * b_w * log2(1 + received power / interference)``.

    The received power combines the stream's transmit power, distance loss
    at ``x_off``, shadowing ``w_ii``, and the zero-forcing gain; thermal
    noise is neglected against ``i_avg``.  Vectorized over ``w_ii`` and
    ``gain``.
    """
    check("b_w", b_w, (">", 0))
    check("i_avg", i_avg, (">", 0))
    check("p_ik", p_ik, (">=", 0))
    w_arr = np.asarray(w_ii, dtype=float)
    g_arr = np.asarray(gain, dtype=float)
    _check_link_draws(w_ii=w_arr, gain=g_arr)
    snr = p_ik * path_gain(channel, x_off) * w_arr * g_arr / i_avg
    out = cfg.s * b_w * np.log1p(snr) / math.log(2.0)  # log1p: exact at small SNR
    return out if out.ndim else float(out)


def sample_zf_gains(cfg: AntennaConfig, draws: int, rng: np.random.Generator) -> np.ndarray:
    """Per-stream zero-forcing gains from explicit channel draws, shape (draws, s).

    The direct route: draw every Rayleigh fading matrix at once (unit-power
    complex Gaussian entries), invert the batch of Gram matrices, read the
    diagonals.  Kept alongside the Gamma shortcut so the two can be checked
    against each other.  A singular Gram matrix has probability zero and
    raises :class:`numpy.linalg.LinAlgError`.
    """
    check("draws", draws, (">=", 1))
    h = (
        rng.standard_normal((draws, cfg.s, cfg.n_t))
        + 1j * rng.standard_normal((draws, cfg.s, cfg.n_t))
    ) / np.sqrt(2.0)
    gram = h @ np.conj(np.swapaxes(h, -1, -2))
    return 1.0 / np.einsum("...kk->...k", np.linalg.inv(gram)).real


def _check_xi(xi: float) -> None:
    check("xi", xi, (">", 0), ("<", 1e300))  # a larger xi overflows (xi / s) * gain in the draws


def spectral_efficiency_mc(
    cfg: AntennaConfig,
    xi: float,
    draws: int,
    rng: np.random.Generator,
) -> Estimate:
    """Monte Carlo spectral efficiency: mean of ``sum_k log2(1 + (xi/s) gain_k)``.

    The per-stream gains are drawn directly from their Gamma law; the
    matrix route :func:`sample_zf_gains` validates that shortcut.
    """
    _check_xi(xi)
    return _se_estimate(cfg, xi, _gamma_gains(cfg, draws, rng))


def _gamma_gains(cfg: AntennaConfig, draws: int, rng: np.random.Generator) -> np.ndarray:
    """Per-stream zero-forcing gains from their Gamma law, shape (draws, s): one draw set for any ``xi``."""
    check("draws", draws, (">=", 1))
    return rng.gamma(cfg.gain_shape, 1.0, size=(draws, cfg.s))


def _se_estimate(cfg: AntennaConfig, xi: float, gains: np.ndarray) -> Estimate:
    """Spectral efficiency at ``xi`` on the gain draws of :func:`_gamma_gains`: their sample mean."""
    values = np.log1p((xi / cfg.s) * gains).sum(axis=1) / math.log(2.0)
    mean = float(values.mean())
    return Estimate.from_influence(mean, (values - mean) / len(values), len(values))


def _jacobi_rule(n: int, mu0: float, diag, off, poly, dpoly, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    """The ``n``-node Gauss rule of an orthogonal polynomial family, computed as :mod:`scipy.special` computes it.

    The steps of scipy's ``roots_hermite`` and ``roots_genlaguerre``: the
    eigenvalues of the Jacobi matrix (diagonal ``diag``, off-diagonal
    ``off``), one Newton step on ``poly(n, x)`` with derivative
    ``dpoly(n, x)``, and weights ``1 / (poly(n - 1, x) dpoly(n, x))``, each
    factor log-balanced, summed to ``mu0``.  A constant factor of ``poly``
    cancels in the Newton step and in the weights.  numpy's symmetric
    eigensolver stands in for ``scipy.linalg.eigvals_banded``.
    """
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1), UPLO="U")
    dy = dpoly(n, x)
    x -= poly(n, x) / dy
    fm = poly(n - 1, x)
    for factor in (fm, dy):  # scaled so that their product neither overflows nor underflows
        log_abs = np.log(np.abs(factor))
        factor /= np.exp((log_abs.max() + log_abs.min()) / 2.0)
    w = 1.0 / (fm * dy)
    if symmetric:
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2
    w *= mu0 / w.sum()
    return x, w


def _hermite(n: int, x: np.ndarray) -> np.ndarray:
    """The physicists' Hermite polynomial ``H_n(x)``, by scipy's ``eval_hermite`` recurrence, operation for operation."""
    y = math.sqrt(2.0) * x  # H_n(x) = 2^(n/2) He_n(sqrt(2) x), He_n by the backward recurrence
    if n == 0:
        return np.ones_like(x)
    if n == 1:
        return y * 2.0 ** 0.5
    y3, y2 = np.zeros_like(x), np.ones_like(x)
    for k in range(n, 1, -1):
        y3, y2 = y2, y * y2 - k * y3
    return (y * y2 - y3) * 2.0 ** (n / 2.0)


def _roots_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, as ``scipy.special.roots_hermite(n)`` for ``n <= 150``."""
    k = np.arange(n, dtype=float)
    return _jacobi_rule(
        n, math.sqrt(math.pi), 0.0 * k, np.sqrt(k[1:] / 2.0), _hermite,
        lambda n, x: 2.0 * n * _hermite(n - 1, x), True,
    )


def _roots_genlaguerre(n: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized Gauss-Laguerre nodes, as ``scipy.special.roots_genlaguerre(n, alpha)`` for ``n >= 2``.

    The weights sum to 1, not ``Gamma(alpha + 1)``: they average over the Gamma law of shape ``alpha + 1``
    directly, which a ``Gamma`` value past the double range (shape 172 and up) would otherwise stop.
    ``poly`` is ``L_n^(alpha) / binom(n + alpha, n)``, scipy's ``eval_genlaguerre`` recurrence without
    its prefactor.
    """
    k = np.arange(n, dtype=float)

    def poly(n, x):
        d = -x / (alpha + 1.0)
        p = d + 1.0
        for j in range(1, n):
            d = -x / (j + alpha + 1.0) * p + (j / (j + alpha + 1.0)) * d
            p = d + p
        return p

    def dpoly(n, x):
        return n * (poly(n, x) - poly(n - 1, x)) / x

    return _jacobi_rule(n, 1.0, 2 * k + alpha + 1, -np.sqrt(k[1:] * (k[1:] + alpha)), poly, dpoly, False)


@functools.cache
def _gauss_nodes(roots, n: int, *shape) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights ``roots(n, *shape)`` of a rule, computed once."""
    nodes, weights = roots(n, *shape)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


_N_NODES = 96


def spectral_efficiency_exact(cfg: AntennaConfig, xi: float) -> float:
    """Deterministic spectral efficiency by Gamma-weighted quadrature.

    Evaluates ``s * E[log2(1 + (xi/s) G)]`` with ``G`` Gamma-distributed
    using ``_N_NODES`` generalized Gauss-Laguerre nodes; the randomness-free
    twin of :func:`spectral_efficiency_mc`.  Despite the name it is not
    exact at gain shape 1 (``s == n_t``), where ``log1p((xi/s) G)`` bends
    below the first node: against a 30-digit mpmath quadrature it is off by
    up to 7.3e-4 relative, at ``(n_t, s, xi) = (4, 4, 1e4)``, and by 7.0e-4
    at ``(8, 8, 1e4)``.  ROADMAP item 3 replaces it with a closed form.
    """
    _check_xi(xi)
    m = cfg.gain_shape
    nodes, weights = _gauss_nodes(_roots_genlaguerre, _N_NODES, m - 1)
    mean_log = (weights * np.log1p((xi / cfg.s) * nodes)).sum()
    return cfg.s * float(mean_log) / math.log(2.0)


def spectral_efficiency_bound(cfg: AntennaConfig, xi: float) -> float:
    """Closed-form upper bound ``s * log2(1 + (xi/s)(n_t - s + 1))`` (mean gain inside the log)."""
    _check_xi(xi)
    return cfg.s * math.log1p((xi / cfg.s) * cfg.gain_shape) / math.log(2.0)
