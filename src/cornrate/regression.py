"""OLS, Poisson and negative binomial fitters plus the four model specs.

The Poisson and NB2 fitters use iteratively reweighted least squares
with a hand-rolled, fixed iteration order so that identical inputs give
bit-identical results. NB2 means variance = mu + mu^2/theta; theta is
profiled out by one-dimensional likelihood maximization between IRLS
passes. All fitters report Wald standard errors and two-sided tests.

Model specs (intercept always included):

    1: cite_forward          ~ performance_ratio + filed_year
    2: cite3                 ~ performance_ratio + filed_year
    3: cite3_rank_percentile ~ performance_ratio + filed_year
    4: cite_forward          ~ performance_ratio

The special functions below stand in for SciPy's stats.t.sf,
stats.norm.sf, special.gammaln and optimize.minimize_scalar, because
importing SciPy took longer than any command's own work. SciPy stays
the test oracle (tests/test_special.py), and these are the tolerances
held against it:

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

MAX_ITER = 100
# Stopping rule on the scale-aware step max |dbeta| / (|beta| + 1). An absolute
# rule stalls: with filed_year near 2000, cond(X'WX) is ~1e11 and the intercept
# step cannot get below ~1e-9 in float64. IRLS converges quadratically, so a
# step under 1e-8 leaves an error far below that floor.
COEF_TOL = 1e-8
# Stopping rule on |d log theta| between NB passes. The profile likelihood is flat
# at its maximum, so float noise in it moves the maximiser by up to ~4e-7 in
# log theta from pass to pass; a tighter rule is met only by chance.
THETA_TOL = 1e-6
THETA_BOUND = 1e8        # optimizer search bound for the NB dispersion
POISSON_EQUIVALENT_THETA = 1e6  # above this, NB is reported as Poisson-equivalent


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


class RegressionError(Exception):
    """Bad inputs: rank deficiency, too few rows, invalid response."""


class Family(str, Enum):
    OLS = "ols"
    POISSON = "poisson"
    NEGATIVE_BINOMIAL = "negbin"


@dataclass(frozen=True)
class ModelSpec:
    id: int
    dependent: str
    independents: tuple[str, ...]


MODEL_SPECS: dict[int, ModelSpec] = {
    1: ModelSpec(1, "cite_forward", ("performance_ratio", "filed_year")),
    2: ModelSpec(2, "cite3", ("performance_ratio", "filed_year")),
    3: ModelSpec(3, "cite3_rank_percentile", ("performance_ratio", "filed_year")),
    4: ModelSpec(4, "cite_forward", ("performance_ratio",)),
}

BOUNDED_RESPONSES = {"cite3_rank_percentile"}


@dataclass
class RegressionResult:
    family: Family
    terms: list[str]
    coefficients: dict[str, float]
    std_errors: dict[str, float]
    p_values: dict[str, float]
    n: int
    log_likelihood: Optional[float] = None
    r_squared: Optional[float] = None          # OLS only
    aic: Optional[float] = None                # GLM families
    dispersion: Optional[float] = None         # NB theta
    converged: bool = True
    warnings: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "family": self.family.value,
            "terms": self.terms,
            "coefficients": self.coefficients,
            "std_errors": self.std_errors,
            "p_values": self.p_values,
            "n": self.n,
            "log_likelihood": self.log_likelihood,
            "r_squared": self.r_squared,
            "aic": self.aic,
            "dispersion": (None if self.dispersion is None
                           else (self.dispersion if math.isfinite(self.dispersion) else "inf")),
            "converged": self.converged,
            "warnings": self.warnings,
        }


def _as_design(y, X, terms: Optional[Sequence[str]]) -> tuple[np.ndarray, np.ndarray, list[str]]:
    y = np.asarray(y, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise RegressionError("y and X shapes do not match")
    n, p = X.shape
    if n <= p:
        raise RegressionError(f"need n > p, got n={n}, p={p}")
    if terms is None:
        terms = ["intercept"] + [f"x{i}" for i in range(1, p)]
    terms = list(terms)
    if len(terms) != p:
        raise RegressionError("terms length does not match design matrix")
    return y, X, terms


def _check_counts(y: np.ndarray, allow_noninteger: bool) -> None:
    if np.any(y < 0):
        raise RegressionError("count response must be nonnegative")
    if not allow_noninteger and np.any(y != np.floor(y)):
        raise RegressionError("count response must be integer-valued")


def fit_ols(y, X, terms: Optional[Sequence[str]] = None) -> RegressionResult:
    y, X, terms = _as_design(y, X, terms)
    n, p = X.shape
    if np.linalg.matrix_rank(X) < p:
        raise RegressionError("design matrix is rank deficient")
    beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    sse = float(resid @ resid)
    df = n - p
    sigma2 = sse / df
    cov = sigma2 * np.linalg.inv(X.T @ X)
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        t_stats = np.where(se > 0, beta / se, 0.0)
    p_values = np.array([2.0 * t_sf(abs(t), df) for t in t_stats.tolist()])
    centered = y - y.mean()
    sst = float(centered @ centered)
    r_squared = 1.0 - sse / sst if sst > 0 else 0.0
    log_lik = -0.5 * n * (math.log(2 * math.pi * sse / n) + 1) if sse > 0 else None
    return RegressionResult(
        family=Family.OLS,
        terms=terms,
        coefficients=dict(zip(terms, beta.tolist())),
        std_errors=dict(zip(terms, se.tolist())),
        p_values=dict(zip(terms, p_values.tolist())),
        n=n,
        log_likelihood=log_lik,
        r_squared=r_squared,
    )


def _poisson_loglik(y: np.ndarray, mu: np.ndarray) -> float:
    return float(np.sum(y * np.log(mu) - mu - lgamma(y + 1.0)))


def _step(new: np.ndarray, old: np.ndarray) -> float:
    return float(np.max(np.abs(new - old) / (np.abs(new) + 1.0)))


def _irls(y: np.ndarray, X: np.ndarray, theta: Optional[float]) -> tuple[np.ndarray, bool]:
    """IRLS for log-link Poisson (theta None) or NB2 with known theta."""
    mu = y + np.mean(y) * 0.1 + 0.1
    eta = np.log(mu)
    beta = np.zeros(X.shape[1])
    converged = False
    for _ in range(MAX_ITER):
        if theta is None:
            w = mu
        else:
            w = mu / (1.0 + mu / theta)
        z = eta + (y - mu) / mu
        wx = X * w[:, None]
        beta_new = np.linalg.solve(X.T @ wx, wx.T @ z)
        delta = _step(beta_new, beta)
        beta = beta_new
        eta = X @ beta
        eta = np.clip(eta, -30.0, 30.0)
        mu = np.exp(eta)
        if delta < COEF_TOL:
            converged = True
            break
    return beta, converged


def _wald(beta: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    se = np.sqrt(np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0, beta / se, 0.0)
    return se, np.array([2.0 * norm_sf(abs(v)) for v in z.tolist()])


def fit_poisson(y, X, terms: Optional[Sequence[str]] = None,
                allow_noninteger: bool = False) -> RegressionResult:
    y, X, terms = _as_design(y, X, terms)
    _check_counts(y, allow_noninteger)
    n, p = X.shape
    if np.all(y == 0):
        # MLE at the boundary: mean zero, intercept -> -inf.
        return RegressionResult(
            family=Family.POISSON,
            terms=terms,
            coefficients={t: (-math.inf if t == terms[0] else 0.0) for t in terms},
            std_errors={t: math.inf for t in terms},
            p_values={t: 1.0 for t in terms},
            n=n,
            log_likelihood=0.0,
            aic=2.0 * p,
            converged=False,
            warnings=["boundary estimate: all-zero response"],
        )
    beta, converged = _irls(y, X, theta=None)
    mu = np.exp(np.clip(X @ beta, -30.0, 30.0))
    cov = np.linalg.inv(X.T @ (X * mu[:, None]))
    se, p_values = _wald(beta, cov)
    log_lik = _poisson_loglik(y, mu)
    result = RegressionResult(
        family=Family.POISSON,
        terms=terms,
        coefficients=dict(zip(terms, beta.tolist())),
        std_errors=dict(zip(terms, se.tolist())),
        p_values=dict(zip(terms, p_values.tolist())),
        n=n,
        log_likelihood=log_lik,
        aic=2.0 * p - 2.0 * log_lik,
    )
    if not converged:
        result.converged = False
        result.warnings.append(f"IRLS did not converge in {MAX_ITER} iterations; "
                               "reporting last iterate")
    return result


def _nb_loglik(y: np.ndarray, mu: np.ndarray, theta: float, lgamma_y1: np.ndarray) -> float:
    """NB2 log-likelihood; lgamma_y1 = lgamma(y + 1), which does not depend on theta."""
    return float(np.sum(
        lgamma(y + theta) - math.lgamma(theta) - lgamma_y1
        + theta * np.log(theta / (theta + mu)) + y * np.log(mu / (theta + mu))))


def fit_negative_binomial(y, X, terms: Optional[Sequence[str]] = None,
                          allow_noninteger: bool = False) -> RegressionResult:
    """NB2 fit alternating IRLS for beta with profile maximization of theta."""
    y, X, terms = _as_design(y, X, terms)
    _check_counts(y, allow_noninteger)
    n, p = X.shape
    if np.all(y == 0):
        result = fit_poisson(y, X, terms)
        result.family = Family.NEGATIVE_BINOMIAL
        result.dispersion = math.inf
        return result

    # Moment start for theta from the Poisson fit.
    beta, _ = _irls(y, X, theta=None)
    mu = np.exp(np.clip(X @ beta, -30.0, 30.0))
    excess = float(np.mean((y - mu) ** 2 - mu))
    theta = float(np.mean(mu ** 2) / excess) if excess > 0 else POISSON_EQUIVALENT_THETA

    lgamma_y1 = lgamma(y + 1.0)
    converged = False
    for _ in range(50):
        beta_new, inner_ok = _irls(y, X, theta=theta)
        mu = np.exp(np.clip(X @ beta_new, -30.0, 30.0))
        theta_new = math.exp(minimize_bounded(
            lambda log_theta: -_nb_loglik(y, mu, math.exp(log_theta), lgamma_y1),
            math.log(1e-4), math.log(THETA_BOUND), xatol=1e-10))
        if inner_ok and min(theta, theta_new) >= POISSON_EQUIVALENT_THETA:
            # The likelihood is flat in theta out here, so the search lands anywhere
            # up to THETA_BOUND and theta never settles. beta is already the Poisson
            # fit; report it with the theta it was fitted at.
            beta, converged = beta_new, True
            break
        settled = (_step(beta_new, beta) < COEF_TOL
                   and abs(math.log(theta_new) - math.log(theta)) < THETA_TOL)
        beta, theta = beta_new, theta_new
        if inner_ok and settled:
            converged = True
            break

    w = mu / (1.0 + mu / theta)
    cov = np.linalg.inv(X.T @ (X * w[:, None]))
    se, p_values = _wald(beta, cov)
    log_lik = _nb_loglik(y, mu, theta, lgamma_y1)
    result = RegressionResult(
        family=Family.NEGATIVE_BINOMIAL,
        terms=terms,
        coefficients=dict(zip(terms, beta.tolist())),
        std_errors=dict(zip(terms, se.tolist())),
        p_values=dict(zip(terms, p_values.tolist())),
        n=n,
        log_likelihood=log_lik,
        aic=2.0 * (p + 1) - 2.0 * log_lik,
        dispersion=theta,
        converged=converged,
    )
    if theta >= POISSON_EQUIVALENT_THETA:
        result.dispersion = math.inf
        result.warnings.append("no overdispersion detected: Poisson-equivalent "
                               "(theta at upper bound)")
    if not converged and theta < POISSON_EQUIVALENT_THETA:
        result.warnings.append("NB alternation did not converge; reporting last iterate")
    return result


def build_analysis_table(dataset, exclusions: Iterable[str] = ()) -> list[dict]:
    """Per-patent analysis rows for run_model from a loaded dataset.

    Citation windows use only the citations observable inside the
    dataset; Cite3 rank percentiles are cohorted by grant year.
    """
    from .citation_metrics import build_internal_edges, domain_citation_stats
    from .yield_metrics import performance_ratio

    excluded = set(exclusions)
    patents = {n: p for n, p in dataset.patents.items() if n not in excluded}
    if not patents:
        return []
    stats = domain_citation_stats(patents.values(), build_internal_edges(patents))
    trial_by_patent = {ts.patent_number: ts for ts in dataset.trial_sets}
    rows = []
    for number in sorted(patents):
        if number not in trial_by_patent:
            continue
        patent = patents[number]
        rows.append({
            "patent_number": number,
            "cite_forward": patent.forward_citation_count,
            "cite3": stats.per_patent_cite3[number],
            "cite3_rank_percentile": stats.per_patent_rank_percentile[number],
            "performance_ratio": performance_ratio(trial_by_patent[number]),
            "filed_year": patent.filed_year,
        })
    return rows


_FITTERS = {
    Family.OLS: fit_ols,
    Family.POISSON: fit_poisson,
    Family.NEGATIVE_BINOMIAL: fit_negative_binomial,
}


def run_model(spec: ModelSpec | int, family: Family | str,
              data: Iterable[Mapping[str, float]],
              exclusions: Iterable[str] = ()) -> RegressionResult:
    """Fit one model spec on a per-patent analysis table.

    Rows are mappings with keys patent_number, cite_forward, cite3,
    cite3_rank_percentile, performance_ratio, filed_year. Exclusions are
    removed before fitting.
    """
    if isinstance(spec, int):
        spec = MODEL_SPECS[spec]
    family = Family(family)
    excluded = set(exclusions)
    rows = [r for r in data if str(r.get("patent_number", "")) not in excluded]
    if not rows:
        raise RegressionError("no data rows left after exclusions")
    for column in (spec.dependent, *spec.independents):
        for r in rows:
            if column not in r:
                raise RegressionError(f"missing column {column!r} in analysis table")
    y = [float(r[spec.dependent]) for r in rows]
    X = [[1.0] + [float(r[c]) for c in spec.independents] for r in rows]
    terms = ["intercept", *spec.independents]
    bounded = spec.dependent in BOUNDED_RESPONSES
    if family is Family.OLS:
        result = _FITTERS[family](y, X, terms)
    else:
        # Rank percentiles are not counts; fitted quasi-style with a warning.
        result = _FITTERS[family](y, X, terms, allow_noninteger=bounded)
    if bounded:
        result.warnings.append(
            "dependent variable is bounded in [0, 1]; OLS/Poisson families are "
            "ill-suited to it")
    return result
