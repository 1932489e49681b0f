"""Zero-forcing multi-user downlink: precoding, power split, and spectral efficiency.

A station with ``n_t`` antennas serves ``s`` single-antenna users at once by
inverting the aggregate channel.  The per-stream effective gain then follows
a Gamma law (shape ``n_t - s + 1``), which gives a fast sampling shortcut
for the spectral efficiency and a closed-form Jensen upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .channel import ChannelParams, path_gain, sample_fading_matrix
from .errors import ParameterError
from .interference import Estimate

__all__ = [
    "AntennaConfig",
    "zf_precoder",
    "tx_power",
    "subchannel_capacity",
    "sinr_factor",
    "sample_zf_gains",
    "spectral_efficiency_mc",
    "spectral_efficiency_exact",
    "spectral_efficiency_bound",
]

_COND_LIMIT = 1e12


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


def _gram(h: np.ndarray) -> np.ndarray:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] > h.shape[1]:
        raise ParameterError(f"need an s x n_t matrix with n_t >= s, got shape {h.shape}")
    gram = h @ h.conj().T
    if np.linalg.cond(gram) > _COND_LIMIT:
        raise np.linalg.LinAlgError("channel Gram matrix is ill-conditioned; redraw the channel")
    return gram


def zf_precoder(h: np.ndarray) -> np.ndarray:
    """Right pseudo-inverse ``h^+ (h h^+)^{-1}``: the transmit filter nulling cross-streams.

    ``h @ zf_precoder(h)`` is the identity up to roundoff.
    """
    h = np.asarray(h)
    gram = _gram(h)
    return h.conj().T @ np.linalg.solve(gram, np.eye(h.shape[0]))


def tx_power(h: np.ndarray, per_stream_rx_power) -> tuple[float, np.ndarray]:
    """Transmit power needed to deliver the requested per-stream receive powers.

    Stream ``k`` costs its receive power divided by the zero-forcing gain
    ``1 / (h h^+)^{-1}_{kk}``.  Returns the total and the per-stream split.
    """
    q = np.asarray(per_stream_rx_power, dtype=float)
    gram = _gram(np.asarray(h))
    s = gram.shape[0]
    if q.shape != (s,):
        raise ParameterError(f"need one receive power per stream, got {q.shape} for s={s}")
    if np.any(q < 0):
        raise ParameterError("receive powers must be nonnegative")
    inv_diag = np.diag(np.linalg.solve(gram, np.eye(s))).real
    per_stream = q * inv_diag
    return float(per_stream.sum()), per_stream


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
    out = cfg.s * b_w * np.log2(1.0 + snr)
    return out if out.ndim else float(out)


def sinr_factor(
    p_ik: float,
    cfg: AntennaConfig,
    channel: ChannelParams,
    w_ii: float,
    x_off: float,
    i_avg: float,
) -> float:
    """Large-scale SINR factor: stream power times ``s`` times link gain over interference."""
    if i_avg <= 0:
        raise ParameterError(f"i_avg must be positive, got {i_avg}")
    if p_ik <= 0:
        raise ParameterError(f"p_ik must be positive, got {p_ik}")
    if w_ii <= 0:
        raise ParameterError(f"w_ii must be positive, got {w_ii}")
    return p_ik * cfg.s * path_gain(channel, x_off) * w_ii / i_avg


def sample_zf_gains(cfg: AntennaConfig, draws: int, rng: np.random.Generator) -> np.ndarray:
    """Per-stream zero-forcing gains from explicit channel draws, shape (draws, s).

    The direct route: sample the fading matrix, invert its Gram matrix, read
    the diagonal.  Kept alongside the Gamma shortcut so the two can be
    checked against each other.  Singular draws (measure zero) are redrawn.
    """
    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")
    out = np.empty((draws, cfg.s))
    h = (
        rng.standard_normal((draws, cfg.s, cfg.n_t))
        + 1j * rng.standard_normal((draws, cfg.s, cfg.n_t))
    ) / np.sqrt(2.0)
    gram = h @ np.conj(np.swapaxes(h, -1, -2))
    try:
        inv = np.linalg.inv(gram)
        out[:] = 1.0 / np.einsum("...kk->...k", inv).real
    except np.linalg.LinAlgError:
        for i in range(draws):
            while True:
                try:
                    hi = sample_fading_matrix(cfg.s, cfg.n_t, rng)
                    inv_i = np.linalg.inv(hi @ hi.conj().T)
                    out[i] = 1.0 / np.diag(inv_i).real
                    break
                except np.linalg.LinAlgError:
                    continue
    return out


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
    if xi <= 0:
        raise ParameterError(f"xi must be positive, got {xi}")
    if draws < 1:
        raise ParameterError(f"draws must be >= 1, got {draws}")
    gains = rng.gamma(cfg.gain_shape, 1.0, size=(draws, cfg.s))
    return Estimate.from_samples(np.log2(1.0 + (xi / cfg.s) * gains).sum(axis=1))


def spectral_efficiency_exact(cfg: AntennaConfig, xi: float, n_nodes: int = 96) -> float:
    """Deterministic spectral efficiency by Gamma-weighted quadrature.

    Evaluates ``s * E[log2(1 + (xi/s) G)]`` with ``G`` Gamma-distributed
    using generalized Gauss-Laguerre nodes; the randomness-free twin of
    :func:`spectral_efficiency_mc`.
    """
    if xi <= 0:
        raise ParameterError(f"xi must be positive, got {xi}")
    m = cfg.gain_shape
    nodes, weights = special.roots_genlaguerre(n_nodes, m - 1)
    mean_log = (weights * np.log1p((xi / cfg.s) * nodes)).sum() / special.gamma(m)
    return cfg.s * float(mean_log) / math.log(2.0)


def spectral_efficiency_bound(cfg: AntennaConfig, xi: float) -> float:
    """Closed-form upper bound ``s * log2(1 + (xi/s)(n_t - s + 1))`` (mean gain inside the log)."""
    if xi <= 0:
        raise ParameterError(f"xi must be positive, got {xi}")
    return cfg.s * math.log2(1.0 + (xi / cfg.s) * cfg.gain_shape)
