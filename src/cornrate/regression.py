"""OLS, Poisson and negative binomial fitters plus the four model specs.

Both count families come from one fitter, _fit_counts. NB2 means variance
= mu + mu^2/theta, and Poisson is its theta = inf case (Cameron & Trivedi,
Regression Analysis of Count Data, 2nd ed., 2013, ch. 3): the IRLS and
Wald weight mu / (1 + mu/theta) is mu bit for bit at theta = inf, so
Poisson is one IRLS at that theta. For NB2, between IRLS passes theta is
the root of its profile score at the current mu (Lawless, Can. J.
Statist. 15(3), 1987; MASS theta.ml). IRLS runs in a hand-rolled, fixed
iteration order, so identical inputs give bit-identical results on one
set of kernels: numpy's SIMD exp and log, the OpenBLAS kernel and, at
5x10^4 patents, the BLAS thread count move the last bits. All fitters
report Wald standard errors and two-sided tests, each as one immutable
RegressionResult (a typing.NamedTuple), built once its warnings and
convergence are known; run_model adds a warning through _replace.

Every least-squares problem (OLS, each IRLS step, each Wald covariance) is
one QR in _weighted_ls (Bjorck 1996, ch. 2; Green, JRSS-B 1984), which also
decides rank deficiency for every family alike.

Model specs (intercept always included):

    1: cite_forward          ~ performance_ratio + filed_year
    2: cite3                 ~ performance_ratio + filed_year
    3: cite3_rank_percentile ~ performance_ratio + filed_year
    4: cite_forward          ~ performance_ratio

p-values, log-likelihoods and the NB theta score use the special functions
of cornrate.special (t_sf, norm_sf, lgamma, digamma); their tolerances
against SciPy are listed there.

numpy is bound lazily (cornrate._lazy_module): it is imported by the first
array operation. The binding stays at module level rather than in each
function, so that code that wraps this module's functions from outside (a
profiler, the benchmark's tracer) finds them all.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Mapping, NamedTuple, Optional, Sequence

from . import _lazy_module
from .core_data import CornrateError, IngestError, _fresh_defaults
from .special import digamma, lgamma, norm_sf, t_sf

np = _lazy_module("numpy")

MAX_ITER = 100
# Stopping rule on the scale-aware step max |dbeta| / (|beta| + 1). An absolute
# rule stalls: with filed_year near 2000, cond(sqrt(W) X) is ~6e5 on the fixture,
# so a step at the solution is float noise of up to cond * eps ~ 1e-10 relative
# (the last fixture steps are 1e-11 to 3e-10). IRLS converges quadratically, so a
# step under 1e-8 leaves an error far below that floor.
COEF_TOL = 1e-8
# Where cond * eps itself passes COEF_TOL, that rule is met only by chance, so
# IRLS stops at max(COEF_TOL, NOISE_FACTOR * kappa * eps), with kappa =
# ||R||_F ||R^-1||_F from the QR of sqrt(W) X (between the 2-norm condition
# number and p times it). c = NOISE_FACTOR = 10 covers the noise of the p
# coefficients adding up in one step; on the fixture c * kappa * eps stays
# below 2e-9, so COEF_TOL still rules there.
NOISE_FACTOR = 10.0
# Upper end of the NB theta search; a fit that reaches it is reported as
# Poisson-equivalent. Further out the score (~n / theta^2) sinks below the
# rounding noise of digamma(y + theta) - digamma(theta) (~n eps log theta).
POISSON_EQUIVALENT_THETA = 1e6


class RegressionError(CornrateError):
    """Bad inputs: rank deficiency, too few rows, invalid response."""

    exit_code = 4


class Family(str, Enum):
    OLS = "ols"
    POISSON = "poisson"
    NEGATIVE_BINOMIAL = "negbin"


class ModelSpec(NamedTuple):
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


@_fresh_defaults
class RegressionResult(NamedTuple):
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
    warnings: list[str] = []

    def as_dict(self) -> dict:
        d = self._asdict()
        d["family"] = self.family.value
        if self.dispersion is not None and not math.isfinite(self.dispersion):
            d["dispersion"] = "inf"
        return d


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


def _weighted_ls(X: np.ndarray, y: np.ndarray,
                 w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimiser of sum w (y - X beta)^2, R^-1 and R, from one QR of sqrt(w) [X y].

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
    return r_inv @ r[:, p], r_inv, r[:, :p]


def _two_sided(beta: np.ndarray, se: np.ndarray, tail) -> list[float]:
    """Two-sided p-values 2 tail(|beta| / se). As in trend.fit_exponential, a zero
    standard error gives 0 for a nonzero coefficient and 1 for a zero one."""
    with np.errstate(divide="ignore", invalid="ignore"):
        stats = np.where(beta != 0.0, np.abs(beta) / se, 0.0)
    return [2.0 * tail(v) for v in stats.tolist()]


def fit_ols(y, X, terms: Optional[Sequence[str]] = None) -> RegressionResult:
    y, X, terms = _as_design(y, X, terms)
    n, p = X.shape
    beta, r_inv, _ = _weighted_ls(X, y, np.ones(n))
    resid = y - X @ beta
    sse = float(resid @ resid)
    df = n - p
    sigma2 = sse / df
    se = np.sqrt(sigma2 * np.sum(r_inv ** 2, axis=1))
    p_values = _two_sided(beta, se, lambda t: t_sf(t, df))
    centered = y - y.mean()
    sst = float(centered @ centered)
    r_squared = 1.0 - sse / sst if sst > 0 else 0.0
    log_lik = -0.5 * n * (math.log(2 * math.pi * sse / n) + 1) if sse > 0 else None
    return RegressionResult(
        family=Family.OLS,
        terms=terms,
        coefficients=dict(zip(terms, beta.tolist())),
        std_errors=dict(zip(terms, se.tolist())),
        p_values=dict(zip(terms, p_values)),
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


def _irls(y: np.ndarray, X: np.ndarray, theta: float) -> tuple[np.ndarray, bool, float]:
    """IRLS for log-link NB2 with known theta; theta = inf is Poisson.

    Stops once a step is below COEF_TOL or, on a worse-conditioned design,
    below the rounding floor NOISE_FACTOR * kappa * eps of that step's QR.
    Returns the coefficients, whether it stopped so, and the last step's
    tolerance, max(COEF_TOL, that floor).
    """
    mu = y + np.mean(y) * 0.1 + 0.1
    eta = np.log(mu)
    beta = np.zeros(X.shape[1])
    converged = False
    for _ in range(MAX_ITER):
        w = mu / (1.0 + mu / theta)
        beta_new, r_inv, r = _weighted_ls(X, eta + (y - mu) / mu, w)
        delta = _step(beta_new, beta)
        kappa = float(np.linalg.norm(r) * np.linalg.norm(r_inv))
        tol = max(COEF_TOL, NOISE_FACTOR * kappa * np.finfo(float).eps)
        beta = beta_new
        eta, _ = _linear_predictor(X, beta)
        mu = np.exp(eta)
        if delta < tol:
            converged = True
            break
    return beta, converged, tol


def _nb_loglik(y: np.ndarray, mu: np.ndarray, theta: float) -> float:
    """NB2 log-likelihood."""
    return float(np.sum(
        lgamma(y + theta) - math.lgamma(theta) - lgamma(y + 1.0)
        + theta * np.log(theta / (theta + mu)) + y * np.log(mu / (theta + mu))))


def _nb_theta(y: np.ndarray, mu: np.ndarray, theta: float, tol: float) -> float:
    """Root in [1e-4, POISSON_EQUIVALENT_THETA] of the NB2 profile score in theta at mu.

    Secant steps in log theta from the start theta, kept inside a bracket on
    which the score changes sign; a step that leaves the bracket (or none,
    where two scores tie) bisects it. Two steps in a row below tol end the
    search, as a step below tol ends each IRLS; so does a bracket shrunk to
    rounding. A score >= 0 at the upper end returns that end.
    """
    def score(log_theta: float) -> float:
        # Times theta^2, which leaves the root and tends to -sum((y - mu)^2 - y) / 2
        # as theta grows, where the score itself fades like 1/theta^2: chords
        # towards the upper end then still point at the root.
        t = math.exp(log_theta)
        d = digamma(np.append(y + t, t))   # psi(y + t) and, last, psi(t): one call
        return t * t * float(np.sum(d[:-1] - d[-1] - np.log1p(mu / t) + (mu - y) / (t + mu)))

    lo, hi = math.log(1e-4), math.log(POISSON_EQUIVALENT_THETA)
    x_old, g_old = hi, score(hi)
    if g_old >= 0.0:
        return POISSON_EQUIVALENT_THETA
    x = math.log(theta)
    for _ in range(MAX_ITER):
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        g = score(x)
        if g > 0.0:
            lo = x
        else:
            hi = x
        x_new = x - g * (x - x_old) / (g - g_old) if g != g_old else math.nan
        if max(abs(x_new - x), abs(x - x_old)) < tol:
            return math.exp(x_new)
        if hi - lo <= 4.0 * np.finfo(float).eps * max(1.0, abs(x)):
            return math.exp(x)
        x_old, g_old, x = x, g, x_new
    return math.exp(x_old)


def _fit_counts(family: Family, y, X, terms: Optional[Sequence[str]],
                allow_noninteger: bool) -> RegressionResult:
    """Poisson or NB2 fit, with Poisson as NB2 at theta = inf.

    Poisson is one IRLS; NB2 alternates IRLS for beta with the score root for
    theta, starting at the Poisson end of the theta range.
    """
    y, X, terms = _as_design(y, X, terms)
    _check_counts(y, allow_noninteger)
    n, p = X.shape
    negbin = family is Family.NEGATIVE_BINOMIAL
    if np.all(y == 0):
        # MLE at the boundary: mean zero, intercept -> -inf.
        return RegressionResult(
            family=family,
            terms=terms,
            coefficients={t: (-math.inf if t == terms[0] else 0.0) for t in terms},
            std_errors={t: math.inf for t in terms},
            p_values={t: 1.0 for t in terms},
            n=n,
            log_likelihood=0.0,
            aic=2.0 * p,
            dispersion=math.inf if negbin else None,
            converged=False,
            warnings=["boundary estimate: all-zero response"],
        )

    if not negbin:
        theta = math.inf
        beta, converged, _ = _irls(y, X, theta)
        eta, clipped = _linear_predictor(X, beta)
        mu = np.exp(eta)
        failure = f"IRLS did not converge in {MAX_ITER} iterations; reporting last iterate"
    else:
        beta, theta, converged = np.zeros(p), POISSON_EQUIVALENT_THETA, False
        for _ in range(50):
            beta_new, inner_ok, tol = _irls(y, X, theta)
            eta, clipped = _linear_predictor(X, beta_new)
            mu = np.exp(eta)
            theta_new = _nb_theta(y, mu, theta, tol)
            # beta and log theta settle at the rounding floor of the inner IRLS, as each IRLS does.
            settled = max(_step(beta_new, beta), abs(math.log(theta_new / theta))) < tol
            beta, theta = beta_new, theta_new
            if inner_ok and settled:
                converged = True
                break
        failure = "NB alternation did not converge; reporting last iterate"

    _, r_inv, _ = _weighted_ls(X, np.zeros(n), mu / (1.0 + mu / theta))
    se = np.sqrt(np.sum(r_inv ** 2, axis=1))
    log_lik = _nb_loglik(y, mu, theta) if negbin else _poisson_loglik(y, mu)
    poisson_equivalent = negbin and theta >= POISSON_EQUIVALENT_THETA
    warnings = []
    if poisson_equivalent:
        warnings.append("no overdispersion detected: Poisson-equivalent "
                        "(theta at upper bound)")
    if not converged:
        warnings.append(failure)
    if clipped:
        # A clipped linear predictor means the reported fit is not the MLE.
        converged = False
        warnings.append(f"linear predictor clipped to [-30, 30] in {clipped} of "
                        f"{n} rows; estimates are not the MLE")
    return RegressionResult(
        family=family,
        terms=terms,
        coefficients=dict(zip(terms, beta.tolist())),
        std_errors=dict(zip(terms, se.tolist())),
        p_values=dict(zip(terms, _two_sided(beta, se, norm_sf))),
        n=n,
        log_likelihood=log_lik,
        aic=2.0 * (p + negbin) - 2.0 * log_lik,
        dispersion=(math.inf if poisson_equivalent else theta) if negbin else None,
        converged=converged,
        warnings=warnings,
    )


def fit_poisson(y, X, terms: Optional[Sequence[str]] = None,
                allow_noninteger: bool = False) -> RegressionResult:
    """Log-link Poisson fit by IRLS."""
    return _fit_counts(Family.POISSON, y, X, terms, allow_noninteger)


def fit_negative_binomial(y, X, terms: Optional[Sequence[str]] = None,
                          allow_noninteger: bool = False) -> RegressionResult:
    """NB2 fit alternating IRLS for beta with the score root for theta."""
    return _fit_counts(Family.NEGATIVE_BINOMIAL, y, X, terms, allow_noninteger)


def build_analysis_table(dataset) -> dict:
    """run_model's table: patent_number, the patents with a trial set in number
    order, and a float64 column over them for each variable of MODEL_SPECS.

    Citation windows use only the citations between the dataset's
    patents, so an excluded patent (core_data.without_patents) neither
    gets an entry nor cites; Cite3 rank percentiles are cohorted by grant year.
    """
    from .citation_metrics import per_patent_cite3
    from .yield_metrics import performance_ratio

    patents = dataset.patents
    cite3, percentile = per_patent_cite3(patents)
    trials = {ts.patent_number: ts for ts in dataset.trial_sets}
    numbers = [n for n in sorted(patents) if n in trials]
    return {
        "patent_number": numbers,
        "cite_forward": np.array([patents[n].forward_citation_count for n in numbers], float),
        "cite3": np.array([cite3[n] for n in numbers], float),
        "cite3_rank_percentile": np.array([percentile[n] for n in numbers], float),
        "performance_ratio": np.array([performance_ratio(trials[n]) for n in numbers], float),
        "filed_year": np.array([patents[n].filed_year for n in numbers], float),
    }


def run_model(model: int, family: Family | str, table: Mapping[str, np.ndarray]) -> RegressionResult:
    """Fit the MODEL_SPECS model of an id on the columns of build_analysis_table.

    y is the spec's dependent column, and X a column of ones followed by its
    independent columns. family is a Family or its value; any other name is
    a ValueError.
    """
    family = Family(family)
    spec = MODEL_SPECS[model]
    y = table[spec.dependent]
    if not len(y):
        raise RegressionError("no data rows")
    X = np.column_stack([np.ones(len(y)), *(table[c] for c in spec.independents)])
    terms = ["intercept", *spec.independents]
    # Rank percentiles are not counts; fitted quasi-style with a warning.
    bounded = spec.dependent in BOUNDED_RESPONSES
    try:
        if family is Family.OLS:
            result = fit_ols(y, X, terms)
        elif family is Family.POISSON:
            result = fit_poisson(y, X, terms, allow_noninteger=bounded)
        else:
            result = fit_negative_binomial(y, X, terms, allow_noninteger=bounded)
    except np.linalg.LinAlgError as exc:
        # LinAlgError is a ValueError, which the CLI maps to a data error.
        raise RegressionError(f"model {spec.id} ({family.value}): {exc}") from exc
    if bounded:
        result = result._replace(warnings=[
            *result.warnings, "dependent variable is bounded in [0, 1]; OLS/Poisson "
            "families are ill-suited to it"])
    return result


def _model_id(entry: str) -> int:
    """The MODEL_SPECS id an entry of a model list names; any other entry is an IngestError."""
    try:
        model = int(entry)
    except ValueError:
        model = None
    if model not in MODEL_SPECS:
        raise IngestError(f"unknown model id {entry!r}; the ids are "
                          f"{', '.join(map(str, MODEL_SPECS))}")
    return model


def fit_models(dataset, models: str, families: str) -> dict:
    """Every model of a comma-separated id list, fitted in every family of another.

    Every fit runs on one build_analysis_table(dataset), of a dataset from
    which any excluded patents are already dropped; n_rows is its number of
    patents, and none is a ValueError. A family that is not a Family value
    is a ValueError, a model that is not a MODEL_SPECS id an IngestError
    naming it. Each fit is reported with its model id, and the coefficient
    table gives every term's coefficient in every fit, keyed model<id>_<family>.
    """
    columns = build_analysis_table(dataset)
    if not columns["patent_number"]:
        raise ValueError("analysis table is empty: no patent has a trial set")
    family_list = [Family(f) for f in families.split(",")]
    model_ids = [_model_id(m) for m in models.split(",")]
    fits = [{"model": model, **run_model(model, family, columns).as_dict()}
            for model in model_ids for family in family_list]
    terms = sorted({t for f in fits for t in f["terms"]})
    table = {term: {f"model{f['model']}_{f['family']}": f["coefficients"].get(term)
                    for f in fits} for term in terms}
    return {"n_rows": len(columns["patent_number"]), "fits": fits, "coefficient_table": table}
