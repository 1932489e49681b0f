"""The special functions of the analytic routes, in numpy and :mod:`math`.

Two Gauss hypergeometric values carry the mean interference: the far field's
``F(a, a-1; 1; z)`` and the near field's ``F(1-a, 1-a; 1; z)``, ``a =
alpha/2``.  The capped-power moment of the energy quadrature needs ``int_0^u
(e^t - 1 - t - t^2/2) t^(-theta-1) dt``, a series of positive terms with no
pole in ``theta``.  Each is a convergent series, or near a singular point a
connection formula, asymptotic expansion or limit form, with
a term count derived from its argument range, so no evaluation tests for
convergence and nothing is configurable.  The tests check every function
against mpmath.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

_EPS = 2.0**-53  # unit roundoff of a double
_LOG_MAX = math.log(sys.float_info.max)


def _terms(rho: float, lead: int) -> int:
    # past index `lead` each term is at most rho times the one before, so after this many the tail is below
    # _EPS / 2 of the largest term
    return lead + math.ceil(math.log(_EPS / 2.0 * (1.0 - rho)) / math.log(rho))


_FAR_BLOCK = 4096  # terms of the far-field series held at once


def hyp2f1_far(alpha: float, z: float) -> float:
    """``F(a, a-1; 1; z)`` with ``a = alpha/2 > 1``, for ``0 <= z < 1``: the Gauss series, all terms positive.

    The ratio of term ``j+1`` to term ``j`` is ``z (1 + (a-1)/(j+1)) (1 + (a-2)/(j+1)) <= z (1 + (a-1)/(j+1))^2``,
    which falls below ``rho > z`` from ``j + 1 >= (a-1) / (sqrt(rho/z) - 1)`` on; the term count follows, for the
    ``rho`` that needs the fewest terms.  The terms are summed ``_FAR_BLOCK`` at a time.  Raises OverflowError
    where term 710 on exceed ``e`` times their predecessor, and so the sum leaves the double range.
    """
    if z == 0.0:
        return 1.0
    a = alpha / 2.0
    if z * ((a + 708.0) / 710.0) ** 2 >= math.e:
        raise OverflowError(f"F(a, a - 1; 1; z) leaves the double range at alpha = {alpha}, z = {z}")
    count = min(
        _terms(rho, math.ceil((a - 1.0) / (math.sqrt(rho / z) - 1.0)))
        for rho in (math.sqrt(z), 0.5, (1.0 + z) / 2.0)
        if rho > z
    )
    total, term = 1.0, 1.0
    for start in range(0, count, _FAR_BLOCK):
        j = np.arange(start, min(start + _FAR_BLOCK, count), dtype=float)
        with np.errstate(over="ignore"):  # a sum past the double range is inf, which the callers report
            terms = term * np.cumprod(z * (a + j) * (a - 1.0 + j) / (j + 1.0) ** 2)
        total += terms.sum()
        term = terms[-1]
    return float(total)


def _log1p_ratio(t: float) -> float:
    """``log1p(t) / t``, 1 at ``t = 0``."""
    return math.log1p(t) / t if t else 1.0


def exprel(x):
    """``expm1(x) / x``, elementwise, and 1 where ``|x| < 1e-16``, as ``scipy.special.exprel`` defines it."""
    x = np.asarray(x, dtype=float)
    tiny = np.abs(x) < 1e-16
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(tiny, 1.0, np.expm1(x) / np.where(tiny, 1.0, x))[()]


_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6)  # B_2, B_4, ..., B_14


def _lgamma_slope(x: float, e: float) -> float:
    """``(lnGamma(x + e) - lnGamma(x)) / e`` for ``x, x + e > 0``; the digamma function at ``e = 0``.

    Every step is a ratio that keeps its relative precision as ``e -> 0``: the recurrence
    ``lnGamma(x+1) = lnGamma(x) + ln x`` up to ``x >= 10``, then Stirling's series with seven Bernoulli terms,
    whose first omitted term is below 1e-16 there.
    """
    total = 0.0
    while x < 10.0:
        total -= _log1p_ratio(e / x) / x
        x += 1.0
    step = _log1p_ratio(e / x) / x  # log1p(e/x) / e
    total += (x - 0.5) * step + math.log(x + e) - 1.0
    for k, b in enumerate(_BERNOULLI, start=1):
        j = 1 - 2 * k  # the term B_2k / (2k (2k-1) x^(2k-1)), differenced
        total -= b / (2 * k) * x**j * step * exprel(j * math.log1p(e / x))
    return total


_NEAR_SPAN = 8.0  # the connection formula takes over at w = 1 - z = min(1/2, _NEAR_SPAN / a)


@functools.lru_cache(maxsize=16)
def _near_coefficients(alpha: float):
    """Coefficients of :func:`hyp2f1_near`, read-only, ``eps`` (None at even ``alpha``) and the switch ``w_s``.

    With ``b = 1 - a``, ``m = alpha - 1 = N + eps`` (``N`` the nearest integer) and ``w = 1 - z``, DLMF 15.8.4 gives
    ``F(b,b;1;z) = G(m)/G(a)^2 F(b,b;1-m;w) + w^m G(-m)/G(b)^2 F(a,a;1+m;w)``.  Both terms carry a 1/eps pole,
    and they cancel.  Split off the first ``N`` terms of the first series, and let ``u_p`` and ``v_p`` be the
    coefficients of ``w^(N+p)`` that remain in each term, so ``v_p = u_p`` at ``eps = 0``.  The rest is
    ``K w^N sum_p w^p [D exprel(eps D) u_p - (v_p - u_p)/eps - v_p (w^eps - 1)/eps]``.  Here ``K = (-1)^N
    G(1+eps) G(1-eps) / (G(b)^2 G(N+1+eps))``, and ``D`` is ``ln`` of the pole ratio over ``eps``, a sum of
    :func:`_lgamma_slope` values.  ``(v_p - u_p)/eps`` is ``u_p`` times the ``exprel`` of a sum of ``log1p``
    ratios.  No step divides by ``eps``, so near-odd ``alpha`` keeps every digit, and ``eps = 0`` is DLMF
    15.8.10's logarithmic case.

    The first ``N`` terms alternate in sign and grow like ``(a w / 2)^n / n!``, so the connection formula is used
    only for ``w < w_s = min(1/2, _NEAR_SPAN / a)``, where they sum to at most about ``e^4`` times the result;
    below that the Gauss series, whose terms are all positive, serves.  The rows hold the coefficients of the
    Gauss series in ``z``, and of the plain and the ``(w^eps - 1)/eps`` part in ``t = w / w_s``.  Raises
    OverflowError where ``F(b, b; 1; 1) = G(m)/G(a)^2`` leaves the double range, past ``alpha`` of about 1030.
    """
    a = alpha / 2.0
    b = 1.0 - a
    m = alpha - 1.0
    if math.lgamma(m) - 2.0 * math.lgamma(a) + _NEAR_SPAN > _LOG_MAX:
        raise OverflowError(f"F(1 - a, 1 - a; 1; 1) leaves the double range at alpha = {alpha}")
    w_s = min(0.5, _NEAR_SPAN / a)
    even = a.is_integer()  # then F(b, b; 1; z) is a polynomial of degree a - 1
    # past term a/2 the Gauss series' ratios are below z <= 1 - w_s
    n = np.arange(int(a) if even else _terms(1.0 - w_s, math.ceil(a / 2.0)) - 1, dtype=float)
    direct = np.cumprod(np.append(1.0, ((b + n) / (n + 1.0)) ** 2))
    if even:
        direct.flags.writeable = False
        return direct[None, :], None, w_s
    big_n = round(m)
    eps = m - big_n
    j = np.arange(big_n - 1, dtype=float)
    head = math.exp(math.lgamma(m) - 2.0 * math.lgamma(a)) * np.cumprod(
        np.append(1.0, (b + j) ** 2 / ((1.0 - m + j) * (j + 1.0)) * w_s)
    )
    # the ratios of u and v are w_s (1 + (a^2 - 2a + e - p) / ((1 - e + p) (2a - e + p))), e = eps or 0, which
    # fall with p once below w_s; from the first p where both are at most 1/2 they stay there
    q = np.arange(math.ceil(a * a) + 2.0)
    f = np.maximum(*(1.0 + (a * a - 2.0 * a + e - q) / ((1.0 - e + q) * (2.0 * a - e + q)) for e in (eps, 0.0)))
    p = np.arange(_terms(0.5, int(np.argmax(f * w_s <= 0.5)) + 1) - 1, dtype=float)
    u = np.cumprod(np.append(1.0, (a - eps + p) ** 2 / ((1.0 - eps + p) * (big_n + 1.0 + p)) * w_s))
    v = np.cumprod(np.append(1.0, (a + p) ** 2 / ((big_n + 1.0 + eps + p) * (p + 1.0)) * w_s))
    # (ln v_p - ln u_p) / eps, a sum of log1p ratios
    slopes = np.cumsum([0.0] + [
        2.0 / (a - eps + i) * _log1p_ratio(eps / (a - eps + i))
        - 1.0 / (1.0 + i) * _log1p_ratio(-eps / (1.0 + i))
        - 1.0 / (big_n + 1.0 + i) * _log1p_ratio(eps / (big_n + 1.0 + i))
        for i in p
    ])
    v_minus_u = u * slopes * exprel(eps * slopes)  # (v_p - u_p) / eps, times w_s^p
    d = -2.0 * _lgamma_slope(a, -eps) + _lgamma_slope(1.0, -eps) + _lgamma_slope(big_n + 1.0, eps)
    k = (-1.0) ** big_n * math.exp(
        math.lgamma(1.0 + eps) + math.lgamma(1.0 - eps) - 2.0 * math.lgamma(b) - math.lgamma(big_n + 1.0 + eps)
    ) * w_s**big_n
    plain = np.concatenate([head, k * (d * exprel(eps * d) * u - v_minus_u)])
    coefficients = np.zeros((3, max(direct.size, plain.size)))
    coefficients[0, : direct.size] = direct
    coefficients[1, : plain.size] = plain
    coefficients[2, big_n : plain.size] = -k * v
    coefficients.flags.writeable = False
    return coefficients, eps, w_s


def _powers(x: np.ndarray, rows: int) -> np.ndarray:
    """The matrix of ``x**n``, ``n = 0 .. rows - 1`` down the rows."""
    powers = np.empty((rows, x.size))
    powers[0] = 1.0
    powers[1:] = x
    return np.cumprod(powers, axis=0, out=powers)


def hyp2f1_near(alpha: float, z: np.ndarray) -> np.ndarray:
    """``F(1-a, 1-a; 1; z)`` with ``a = alpha/2 > 1``, for ``0 <= z < 1``, elementwise.

    The Gauss series, all terms positive, and at even ``alpha``, where it ends after ``a`` terms; nearer 1 than
    ``w_s`` (1/2 up to ``alpha = 32``) the ``z -> 1 - z`` connection in a form without the cancellation of its two
    poles (:func:`_near_coefficients`).  Each branch is one matrix of powers times its coefficients.
    """
    coefficients, eps, w_s = _near_coefficients(alpha)
    if eps is None:
        return coefficients[0] @ _powers(z, coefficients.shape[1])
    w = 1.0 - z
    near_one = w < w_s
    direct, plain, logged = coefficients @ _powers(np.where(near_one, w / w_s, z), coefficients.shape[1])
    log_w = np.log(np.where(near_one, w, 1.0))
    scaled = log_w if eps == 0.0 else np.expm1(eps * log_w) / eps  # (w^eps - 1) / eps
    return np.where(near_one, plain + scaled * logged, direct)


# The energy quadrature's kernel: int_0^u (e^t - 1 - t - t^2/2) t^(-theta-1) dt for 1 <= theta <= 2.
_SERIES_MAX = 60.0  # above it the asymptotic series' smallest term is below _EPS / 4, and so is the part it drops
_BUCKETS = (1.0, 4.0, 10.0, 20.0, 40.0, _SERIES_MAX)  # upper ends of the argument ranges that share a term count


def _power_terms(u_max: float) -> int:
    # the last index of sum_{n>=3} u^n/n! at u = u_max, the first term below _EPS / 4 of the sum so far
    n, term = 3, u_max**3 / 6.0
    total = term
    while term > _EPS / 4.0 * total:
        n += 1
        term *= u_max / n
        total += term
    return n


def _asymptotic_terms(u_min: float) -> int:
    # terms of sum_k (k+2)!/(2 u^k) at u = u_min until one is below _EPS / 4; each (1+theta)_k <= (3)_k = (k+2)!/2
    k, term = 0, 1.0
    while term > _EPS / 4.0:
        k += 1
        term *= (k + 2) / u_min
    return k


_BUCKET_TERMS = tuple(_power_terms(u) for u in _BUCKETS)
_ASYMPTOTIC_TERMS = _asymptotic_terms(_SERIES_MAX)


def _tail_series(theta: float, u: np.ndarray) -> np.ndarray:
    """``sum_{n>=3} u^(n-theta) / (n! (n-theta))`` for ``0 <= u <= _SERIES_MAX``: Horner's rule, terms per bucket."""
    out = np.empty_like(u)
    lo = -math.inf
    for hi, terms in zip(_BUCKETS, _BUCKET_TERMS):
        inside = (u > lo) & (u <= hi)
        lo = hi
        x = u[inside]
        if not x.size:
            continue
        n = np.arange(3.0, terms + 1.0)
        coefficients = 1.0 / (np.cumprod(n) * 2.0 * (n - theta))
        acc = np.full_like(x, coefficients[-1])
        for c in coefficients[-2::-1]:
            acc *= x
            acc += c
        out[inside] = acc * x ** (3.0 - theta)
    return out


def _asymptotic(theta: float, u: np.ndarray) -> np.ndarray:
    """``e^u u^(-theta-1) sum_k (1+theta)_k / u^k`` for ``u > _SERIES_MAX``."""
    k = np.arange(_ASYMPTOTIC_TERMS - 1.0)
    coefficients = np.cumprod(np.append(1.0, 1.0 + theta + k))
    inverse = 1.0 / u
    acc = np.full_like(u, coefficients[-1])
    for c in coefficients[-2::-1]:
        acc *= inverse
        acc += c
    return np.exp(u) * u ** (-theta - 1.0) * acc


def exp_tail(theta: float, u):
    """``R(u) = int_0^u (e^t - 1 - t - t^2/2) t^(-theta-1) dt`` for ``1 <= theta <= 2`` and ``u >= 0``, elementwise.

    Every term of the power series ``sum_{n>=3} u^(n-theta) / (n! (n-theta))`` is positive, and none has a pole
    in ``theta``.  Above ``_SERIES_MAX`` integration by parts gives the asymptotic series of ``e^t t^(-theta-1)``;
    the rest, lower powers of ``u`` and a constant, is below 45 in magnitude, some 1e-21 of the value at ``u = 60``.
    """
    u = np.asarray(u, dtype=float)
    small = u <= _SERIES_MAX
    out = np.empty(u.shape)
    out[small] = _tail_series(theta, u[small])
    with np.errstate(over="ignore"):  # past u = ln(double max), about 709.8, the factor e^u is inf
        out[~small] = _asymptotic(theta, u[~small])  # a NaN argument lands here and stays NaN
    return out[()]
