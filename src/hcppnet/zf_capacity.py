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
from scipy import special

from .channel import ChannelParams, path_gain
from .errors import ParameterError
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

    n_t: int
    s: int

    def __post_init__(self):
        if self.s < 1 or self.n_t < self.s:
            raise ParameterError(f"need n_t >= s >= 1, got n_t={self.n_t}, s={self.s}")

    @property
    def gain_shape(self) -> int:
        """Shape of the Gamma law of the per-stream zero-forcing gain."""
        return self.n_t - self.s + 1


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
    if b_w <= 0:
        raise ParameterError(f"b_w must be positive, got {b_w}")
    if i_avg <= 0:
        raise ParameterError(f"i_avg must be positive, got {i_avg}")
    if p_ik < 0:
        raise ParameterError(f"p_ik must be nonnegative, got {p_ik}")
    w_arr = np.asarray(w_ii, dtype=float)
    g_arr = np.asarray(gain, dtype=float)
    if np.any(w_arr <= 0):
        raise ParameterError("w_ii must be positive")
    if np.any(g_arr < 0):
        raise ParameterError("gain must be nonnegative")
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
    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")
    h = (
        rng.standard_normal((draws, cfg.s, cfg.n_t))
        + 1j * rng.standard_normal((draws, cfg.s, cfg.n_t))
    ) / np.sqrt(2.0)
    gram = h @ np.conj(np.swapaxes(h, -1, -2))
    return 1.0 / np.einsum("...kk->...k", np.linalg.inv(gram)).real


def _check_xi(xi: float) -> None:
    # also false for nan; a larger xi overflows (xi / s) * gain in the draws
    if not 0.0 < xi < 1e300:
        raise ParameterError(f"xi must be positive and below 1e300, got {xi}")


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
    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")
    gains = rng.gamma(cfg.gain_shape, 1.0, size=(draws, cfg.s))
    return Estimate.from_samples(np.log2(1.0 + (xi / cfg.s) * gains).sum(axis=1))


@functools.cache
def _gauss_nodes(roots, n: int, *shape) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights ``roots(n, *shape)`` of a :mod:`scipy.special` rule, computed once."""
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
    nodes, weights = _gauss_nodes(special.roots_genlaguerre, _N_NODES, m - 1)
    mean_log = (weights * np.log1p((xi / cfg.s) * nodes)).sum() / special.gamma(m)
    return cfg.s * float(mean_log) / math.log(2.0)


def spectral_efficiency_bound(cfg: AntennaConfig, xi: float) -> float:
    """Closed-form upper bound ``s * log2(1 + (xi/s)(n_t - s + 1))`` (mean gain inside the log)."""
    _check_xi(xi)
    return cfg.s * math.log2(1.0 + (xi / cfg.s) * cfg.gain_shape)
