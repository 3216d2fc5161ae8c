"""OLS, Poisson and negative binomial fitters plus the four model specs.

The Poisson and NB2 fitters use iteratively reweighted least squares
with a hand-rolled, fixed iteration order so that identical inputs give
bit-identical results. NB2 means variance = mu + mu^2/theta; theta is
profiled out by one-dimensional likelihood maximization between IRLS
passes. All fitters report Wald standard errors and two-sided tests.

Every least-squares problem (OLS, each IRLS step, each Wald covariance) is
one QR in _weighted_ls (Bjorck 1996, ch. 2; Green, JRSS-B 1984), which also
decides rank deficiency for every family alike.

Model specs (intercept always included):

    1: cite_forward          ~ performance_ratio + filed_year
    2: cite3                 ~ performance_ratio + filed_year
    3: cite3_rank_percentile ~ performance_ratio + filed_year
    4: cite_forward          ~ performance_ratio

p-values, log-likelihoods and the NB dispersion search use the special
functions of cornrate.special (t_sf, norm_sf, lgamma, minimize_bounded);
their tolerances against SciPy are listed there. They are re-exported
here, so `from cornrate.regression import t_sf` keeps working.

numpy is bound lazily (cornrate._lazy_module): it is imported by the first
array operation. The binding stays at module level rather than in each
function, so that code that wraps this module's functions from outside (a
profiler, the benchmark's tracer) finds them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from . import _lazy_module
from .special import lgamma, minimize_bounded, norm_sf, t_sf

np = _lazy_module("numpy")

MAX_ITER = 100
# Stopping rule on the scale-aware step max |dbeta| / (|beta| + 1). An absolute
# rule stalls: with filed_year near 2000, cond(sqrt(W) X) is ~6e5 on the fixture,
# so a step at the solution is float noise of up to cond * eps ~ 1e-10 relative
# (the last fixture steps are 1e-11 to 3e-10). IRLS converges quadratically, so a
# step under 1e-8 leaves an error far below that floor.
COEF_TOL = 1e-8
# Stopping rule on |d log theta| between NB passes. The profile likelihood is flat
# at its maximum, so float noise in it moves the maximiser by up to ~4e-7 in
# log theta from pass to pass; a tighter rule is met only by chance.
THETA_TOL = 1e-6
THETA_BOUND = 1e8        # optimizer search bound for the NB dispersion
POISSON_EQUIVALENT_THETA = 1e6  # above this, NB is reported as Poisson-equivalent


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


def _weighted_ls(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimiser of sum w (y - X beta)^2, and R^-1, from one QR of sqrt(w) [X y].

    X'WX is never formed, and (X'WX)^-1 = R^-1 R^-T. QR leaves about eps ||R_:j||
    = eps ||sqrt(w) x_j|| in a column that depends on the others, so the design is
    rank deficient when some |R_jj| <= max(n, p) eps ||R_:j||.
    """
    p = X.shape[1]
    r = np.linalg.qr(np.column_stack([X, y]) * np.sqrt(w)[:, None], mode="r")[:p]
    tol = max(X.shape) * np.finfo(float).eps
    if any(abs(col[j]) <= tol * math.hypot(*col) for j, col in enumerate(zip(*r[:, :p].tolist()))):
        raise RegressionError("design matrix is rank deficient")
    r_inv = np.linalg.inv(r[:, :p])
    return r_inv @ r[:, p], r_inv


def fit_ols(y, X, terms: Optional[Sequence[str]] = None) -> RegressionResult:
    y, X, terms = _as_design(y, X, terms)
    n, p = X.shape
    beta, r_inv = _weighted_ls(X, y, np.ones(n))
    resid = y - X @ beta
    sse = float(resid @ resid)
    df = n - p
    sigma2 = sse / df
    se = np.sqrt(sigma2 * np.sum(r_inv ** 2, axis=1))
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


def _linear_predictor(X: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, int]:
    """X beta clipped to [-30, 30] so that exp() cannot overflow, and the count of rows clipped."""
    eta = X @ beta
    return np.clip(eta, -30.0, 30.0), int(np.count_nonzero(np.abs(eta) > 30.0))


def _report_clipping(result: RegressionResult, clipped: int) -> None:
    """A clipped linear predictor means the reported fit is not the MLE."""
    if clipped:
        result.converged = False
        result.warnings.append(f"linear predictor clipped to [-30, 30] in {clipped} of "
                               f"{result.n} rows; estimates are not the MLE")


def _irls(y: np.ndarray, X: np.ndarray, theta: Optional[float]) -> tuple[np.ndarray, bool]:
    """IRLS for log-link Poisson (theta None) or NB2 with known theta."""
    mu = y + np.mean(y) * 0.1 + 0.1
    eta = np.log(mu)
    beta = np.zeros(X.shape[1])
    converged = False
    for _ in range(MAX_ITER):
        w = mu if theta is None else mu / (1.0 + mu / theta)
        beta_new, _ = _weighted_ls(X, eta + (y - mu) / mu, w)
        delta = _step(beta_new, beta)
        beta = beta_new
        eta, _ = _linear_predictor(X, beta)
        mu = np.exp(eta)
        if delta < COEF_TOL:
            converged = True
            break
    return beta, converged


def _wald(X: np.ndarray, beta: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    _, r_inv = _weighted_ls(X, np.zeros(len(w)), w)
    se = np.sqrt(np.sum(r_inv ** 2, axis=1))
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
    eta, clipped = _linear_predictor(X, beta)
    mu = np.exp(eta)
    se, p_values = _wald(X, beta, mu)
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
    _report_clipping(result, clipped)
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
    mu = np.exp(_linear_predictor(X, beta)[0])
    excess = float(np.mean((y - mu) ** 2 - mu))
    theta = float(np.mean(mu ** 2) / excess) if excess > 0 else POISSON_EQUIVALENT_THETA

    lgamma_y1 = lgamma(y + 1.0)
    converged = False
    for _ in range(50):
        beta_new, inner_ok = _irls(y, X, theta=theta)
        eta, clipped = _linear_predictor(X, beta_new)
        mu = np.exp(eta)
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

    se, p_values = _wald(X, beta, mu / (1.0 + mu / theta))
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
    _report_clipping(result, clipped)
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
    try:
        if family is Family.OLS:
            result = _FITTERS[family](y, X, terms)
        else:
            # Rank percentiles are not counts; fitted quasi-style with a warning.
            result = _FITTERS[family](y, X, terms, allow_noninteger=bounded)
    except np.linalg.LinAlgError as exc:
        # LinAlgError is a ValueError, which the CLI maps to a data error.
        raise RegressionError(f"model {spec.id} ({family.value}): {exc}") from exc
    if bounded:
        result.warnings.append(
            "dependent variable is bounded in [0, 1]; OLS/Poisson families are "
            "ill-suited to it")
    return result
