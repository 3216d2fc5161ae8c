"""Special functions: Student-t and normal tails, log Gamma, a bounded minimiser.

These stand in for SciPy's stats.t.sf, stats.norm.sf, special.gammaln and
optimize.minimize_scalar, because importing SciPy took longer than any
command's own work. SciPy stays the test oracle (tests/test_special.py),
and these are the tolerances held against it:

    t_sf             Student-t upper tail 0.5 * I_x(df/2, 1/2) with
                     x = df/(df + t^2), by the incomplete-beta continued
                     fraction (Abramowitz & Stegun 26.5.8, 26.7); 1e-12
                     relative for integer df 1-200 and 1e-10 up to 1e4,
                     for p >= 1e-300
    norm_sf          0.5 * erfc(z / sqrt 2); 1e-12 relative for z in [0, 37]
    lgamma           vectorised Stirling series, arguments below 8 shifted
                     up by 8; 1e-13
    minimize_bounded Brent's bounded minimiser, the same iteration as
                     minimize_scalar(method="bounded")

Only lgamma does array math; numpy is bound lazily (cornrate._lazy_module),
so trend, which uses t_sf alone, never imports it.
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
    """Upper tail P(T > t) of Student's t with df degrees of freedom, for t >= 0."""
    if t == 0.0:
        return 0.5
    # P(T > t) = I_x(df/2, 1/2) / 2 with x = df/(df + t^2); y = 1 - x is formed
    # directly so that neither x nor y loses digits to a subtraction.
    a, b = 0.5 * df, 0.5
    x, y = df / (df + t * t), t * t / (df + t * t)
    log_x = math.log1p(-y) if y < 0.5 else math.log(x)
    log_y = math.log1p(-x) if x < 0.5 else math.log(y)
    front = math.exp(a * log_x + b * log_y - _log_beta_half(a))
    if x < (a + 1.0) / (a + b + 2.0):
        return 0.5 * front * _beta_cf(a, b, x) / a
    return 0.5 * (1.0 - front * _beta_cf(b, a, y) / b)


def norm_sf(z: float) -> float:
    """Upper tail P(Z > z) of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def minimize_bounded(func, lower: float, upper: float, xatol: float) -> float:
    """Minimiser of func on [lower, upper]: golden section with parabolic steps.

    Brent's fmin; the iteration and the stopping rule (xatol on the
    minimiser's position) follow SciPy's method="bounded" step for step.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lower, upper
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    calls = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # Parabola through the three best points.
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (max(abs(rat), tol1) if rat >= 0 else -max(abs(rat), tol1))
        fu = func(x)
        calls += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if calls >= 500:
            break
    return xf
