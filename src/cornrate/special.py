"""Special functions: Student-t and normal tails, log Gamma and digamma.

These stand in for SciPy's stats.t.sf, stats.norm.sf, special.gammaln and
special.digamma, because importing SciPy took longer than any command's own
work. SciPy stays the test oracle (tests/test_special.py), and these are the
tolerances held against it:

    t_sf             Student-t upper tail 0.5 * I_x(df/2, 1/2) with
                     x = df/(df + t^2), by the incomplete-beta continued
                     fraction (Abramowitz & Stegun 26.5.8, 26.7); 1e-12
                     relative for integer df 1-200 and 1e-10 up to 1e4,
                     for p >= 1e-300; past t ~ 1.34e154, where t^2
                     overflows, from log x = log df - 2 log t, and 0 at
                     t = inf
    norm_sf          0.5 * erfc(z / sqrt 2); 1e-12 relative for z in [0, 37]
    lgamma           vectorised Stirling series, arguments below 8 shifted
                     up by 8; 1e-13
    digamma          the derivative of lgamma's series, with the same
                     shift by 8; 1e-13 relative to max(1, |psi|)

Only lgamma and digamma do array math; numpy is bound lazily
(cornrate._lazy_module), so trend, which uses t_sf alone, never imports it.
"""

from __future__ import annotations

import math

from . import _lazy_module

np = _lazy_module("numpy")

_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_CF_MAX_TERMS = 10_000


def _stirling_tail(z):
    """lgamma(z) - ((z - 0.5) log z - z + log(2 pi) / 2); accurate for z >= 8."""
    r = 1.0 / (z * z)
    acc = _STIRLING[-1]
    for c in reversed(_STIRLING[:-1]):
        acc = acc * r + c
    return acc / z


def lgamma(x) -> np.ndarray:
    """log Gamma(x) elementwise for x > 0."""
    x = np.asarray(x, dtype=float)
    small = x < 8.0
    xs = np.where(small, x, 1.0)
    rising = xs.copy()        # x (x+1) ... (x+7), so lgamma(x) = lgamma(x+8) - log of it
    for k in range(1, 8):
        rising *= xs + k
    z = np.where(small, x + 8.0, x)
    return ((z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + _stirling_tail(z)
            - np.where(small, np.log(rising), 0.0))


def digamma(x) -> np.ndarray:
    """psi(x) = d/dx log Gamma(x) elementwise for x > 0."""
    x = np.asarray(x, dtype=float)
    small = x < 8.0
    xs = np.where(small, x, 1.0)
    shift = 1.0 / xs          # 1/x + 1/(x+1) + ... + 1/(x+7) = psi(x+8) - psi(x)
    for k in range(1, 8):
        shift += 1.0 / (xs + k)
    z = np.where(small, x + 8.0, x)
    r = 1.0 / (z * z)
    tail = 0.0                # d/dz of _stirling_tail(z)
    for k, c in reversed(list(enumerate(_STIRLING, 1))):
        tail = (tail + (1 - 2 * k) * c) * r
    return np.log(z) - 0.5 / z + tail - np.where(small, shift, 0.0)


def _log_beta_half(a: float) -> float:
    """log B(a, 1/2), without the cancellation of lgamma(a) - lgamma(a + 1/2) at large a."""
    if a < 8.0:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    return (0.5 * math.log(math.pi) + 0.5 - 0.5 * math.log(a) - a * math.log1p(0.5 / a)
            + _stirling_tail(a) - _stirling_tail(a + 0.5))


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of I_x(a, b) (modified Lentz); converges fast for x < (a+1)/(a+b+2)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, _CF_MAX_TERMS):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b})")


def t_sf(t: float, df: float) -> float:
    """Upper tail P(T > t) of Student's t with df degrees of freedom, for t >= 0 (inf gives 0)."""
    if t == 0.0:
        return 0.5
    if t == math.inf:
        return 0.0
    # P(T > t) = I_x(df/2, 1/2) / 2 with x = df/(df + t^2); y = 1 - x is formed
    # directly so that neither x nor y loses digits to a subtraction.
    a, b = 0.5 * df, 0.5
    if t * t < math.inf:
        x, y = df / (df + t * t), t * t / (df + t * t)
        log_x = math.log1p(-y) if y < 0.5 else math.log(x)
        log_y = math.log1p(-x) if x < 0.5 else math.log(y)
    else:
        # t^2 overflows (t >= ~1.34e154): x = df / t^2 to double precision, y = 1.
        log_x, log_y = math.log(df) - 2.0 * math.log(t), 0.0
        x, y = math.exp(log_x), 1.0
    front = math.exp(a * log_x + b * log_y - _log_beta_half(a))
    if x < (a + 1.0) / (a + b + 2.0):
        return 0.5 * front * _beta_cf(a, b, x) / a
    return 0.5 * (1.0 - front * _beta_cf(b, a, y) / b)


def norm_sf(z: float) -> float:
    """Upper tail P(Z > z) of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))
