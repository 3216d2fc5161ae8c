import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cornrate.regression import (MODEL_SPECS, Family, RegressionError,
                                 RegressionResult, build_analysis_table,
                                 fit_negative_binomial, fit_ols, fit_poisson,
                                 run_model)


def normal_equations(y, X):
    """Oracle: beta = (X'X)^-1 X'y solved directly."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    return np.linalg.solve(X.T @ X, X.T @ y)


def design(rows):
    return [[1.0, *r] for r in rows]


class TestOls:
    def test_matches_normal_equations(self):
        rng = np.random.default_rng(11)
        X = np.column_stack([np.ones(40), rng.normal(size=40), rng.normal(size=40)])
        y = X @ [1.0, 2.0, -0.5] + rng.normal(size=40)
        fit = fit_ols(y, X)
        expected = normal_equations(y, X)
        got = [fit.coefficients[t] for t in fit.terms]
        assert np.allclose(got, expected, atol=1e-10)

    def test_statistics_match_scipy(self):
        from scipy import stats
        rng = np.random.default_rng(5)
        x = rng.normal(size=30)
        y = 2.0 + 0.7 * x + rng.normal(size=30)
        fit = fit_ols(y, design([[v] for v in x]), terms=["intercept", "x"])
        ref = stats.linregress(x, y)
        assert fit.coefficients["x"] == pytest.approx(ref.slope, abs=1e-12)
        assert fit.std_errors["x"] == pytest.approx(ref.stderr, abs=1e-12)
        assert fit.p_values["x"] == pytest.approx(ref.pvalue, abs=1e-12)
        assert fit.r_squared == pytest.approx(ref.rvalue ** 2, abs=1e-12)

    def test_rank_deficiency_rejected(self):
        X = [[1.0, 2.0, 4.0], [1.0, 3.0, 6.0], [1.0, 5.0, 10.0], [1.0, 7.0, 14.0]]
        with pytest.raises(RegressionError, match="rank deficient"):
            fit_ols([1.0, 2.0, 3.0, 4.0], X)

    def test_n_le_p_rejected(self):
        with pytest.raises(RegressionError, match="need n > p"):
            fit_ols([1.0, 2.0], [[1.0, 0.0], [1.0, 1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(RegressionError):
            fit_ols([1.0, 2.0, 3.0], [[1.0], [1.0]])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                    min_size=4, max_size=30))
    def test_normal_equations_property(self, rows):
        xs = [x for x, _ in rows]
        if max(xs) - min(xs) < 1e-3:
            return  # effectively collinear with the intercept
        y = [y_ for _, y_ in rows]
        X = design([[x] for x in xs])
        fit = fit_ols(y, X)
        expected = normal_equations(y, X)
        got = [fit.coefficients[t] for t in fit.terms]
        assert np.allclose(got, expected, atol=1e-8)


class TestPoisson:
    def test_intercept_only_is_log_mean(self):
        y = [1, 3, 2, 2]
        fit = fit_poisson(y, [[1.0]] * 4, terms=["intercept"])
        assert fit.coefficients["intercept"] == pytest.approx(math.log(2.0),
                                                              abs=1e-10)

    def test_score_equations_hold(self):
        rng = np.random.default_rng(42)
        x = rng.uniform(-1, 1, size=80)
        mu = np.exp(0.3 + 0.8 * x)
        y = rng.poisson(mu)
        X = np.column_stack([np.ones_like(x), x])
        fit = fit_poisson(y, X, terms=["intercept", "x"])
        beta = np.array([fit.coefficients["intercept"], fit.coefficients["x"]])
        mu_hat = np.exp(X @ beta)
        score = X.T @ (y - mu_hat)
        assert np.all(np.abs(score) < 1e-8)

    def test_simulation_recovery(self):
        rng = np.random.default_rng(0)
        n = 5000
        x = rng.uniform(-1, 1, size=n)
        y = rng.poisson(np.exp(0.5 + 0.3 * x))
        fit = fit_poisson(y, np.column_stack([np.ones(n), x]),
                          terms=["intercept", "x"])
        assert fit.coefficients["intercept"] == pytest.approx(0.5, abs=0.05)
        assert fit.coefficients["x"] == pytest.approx(0.3, abs=0.05)
        assert fit.converged

    def test_all_zero_boundary(self):
        fit = fit_poisson([0, 0, 0, 0], design([[0.1], [0.2], [0.3], [0.4]]))
        assert fit.coefficients[fit.terms[0]] == -math.inf
        assert not fit.converged
        assert any("all-zero" in w for w in fit.warnings)

    def test_negative_counts_rejected(self):
        with pytest.raises(RegressionError, match="nonnegative"):
            fit_poisson([1, -1, 2], design([[0.0], [1.0], [2.0]]))

    def test_noninteger_needs_flag(self):
        y = [0.5, 1.5, 2.0]
        X = design([[0.0], [1.0], [2.0]])
        with pytest.raises(RegressionError, match="integer-valued"):
            fit_poisson(y, X)
        fit = fit_poisson(y, X, allow_noninteger=True)
        assert fit.converged

    def test_centering_invariance(self):
        """Shifting a covariate only moves the intercept."""
        rng = np.random.default_rng(2)
        x = rng.uniform(1990, 2010, size=60)
        y = rng.poisson(np.exp(0.01 * (x - 2000)))
        raw = fit_poisson(y, design([[v] for v in x]), terms=["intercept", "x"])
        cen = fit_poisson(y, design([[v - 2000.0] for v in x]),
                          terms=["intercept", "x"])
        assert cen.coefficients["x"] == pytest.approx(
            raw.coefficients["x"], abs=1e-8)
        assert cen.log_likelihood == pytest.approx(raw.log_likelihood, abs=1e-8)

    def test_aic_definition(self):
        y = [1, 3, 2, 2]
        fit = fit_poisson(y, [[1.0]] * 4, terms=["intercept"])
        assert fit.aic == pytest.approx(2.0 - 2.0 * fit.log_likelihood, abs=1e-12)


class TestNegativeBinomial:
    def test_simulation_recovery(self):
        rng = np.random.default_rng(1)
        n = 4000
        x = rng.uniform(-1, 1, size=n)
        mu = np.exp(1.0 + 0.2 * x)
        theta = 2.0
        y = rng.poisson(rng.gamma(theta, mu / theta))
        fit = fit_negative_binomial(y, np.column_stack([np.ones(n), x]),
                                    terms=["intercept", "x"])
        assert fit.coefficients["intercept"] == pytest.approx(1.0, abs=0.05)
        assert fit.coefficients["x"] == pytest.approx(0.2, abs=0.05)
        assert fit.dispersion == pytest.approx(2.0, abs=0.3)
        assert fit.converged

    def test_score_equations_hold(self):
        rng = np.random.default_rng(9)
        n = 300
        x = rng.uniform(-1, 1, size=n)
        theta_true = 1.5
        y = rng.poisson(rng.gamma(theta_true, np.exp(0.5 + 0.5 * x) / theta_true))
        X = np.column_stack([np.ones(n), x])
        fit = fit_negative_binomial(y, X, terms=["intercept", "x"])
        beta = np.array([fit.coefficients["intercept"], fit.coefficients["x"]])
        mu_hat = np.exp(X @ beta)
        w = mu_hat / (1.0 + mu_hat / fit.dispersion)
        score = X.T @ ((y - mu_hat) / mu_hat * w)
        assert np.all(np.abs(score) < 1e-6)

    def test_underdispersed_flagged_poisson_equivalent(self):
        # A constant response has zero variance, so the NB likelihood
        # increases monotonically in theta and the fit hits the bound.
        y = [2] * 10
        X = [[1.0]] * 10
        fit = fit_negative_binomial(y, X, terms=["intercept"])
        assert fit.dispersion == math.inf
        assert any("Poisson-equivalent" in w for w in fit.warnings)
        assert fit.converged
        # Coefficients collapse to the Poisson fit.
        pois = fit_poisson(y, X, terms=["intercept"])
        assert fit.coefficients["intercept"] == pytest.approx(
            pois.coefficients["intercept"], abs=1e-5)

    def test_all_zero_boundary(self):
        fit = fit_negative_binomial([0, 0, 0], design([[0.0], [1.0], [2.0]]))
        assert fit.family is Family.NEGATIVE_BINOMIAL
        assert fit.dispersion == math.inf
        assert fit.coefficients[fit.terms[0]] == -math.inf

    def test_nb_loglik_beats_poisson_when_overdispersed(self):
        rng = np.random.default_rng(8)
        n = 1000
        y = rng.poisson(rng.gamma(0.8, 3.0 / 0.8, size=n))
        X = [[1.0]] * n
        nb = fit_negative_binomial(y, X, terms=["intercept"])
        po = fit_poisson(y, X, terms=["intercept"])
        assert nb.log_likelihood > po.log_likelihood
        assert nb.aic < po.aic


class TestResultSerialization:
    def test_inf_dispersion_serialized(self):
        fit = fit_negative_binomial([0, 0, 0], design([[0.0], [1.0], [2.0]]))
        assert fit.as_dict()["dispersion"] == "inf"

    def test_keys_present(self):
        fit = fit_ols([1.0, 2.0, 3.0, 5.0], design([[0.0], [1.0], [2.0], [3.0]]))
        d = fit.as_dict()
        for key in ("family", "terms", "coefficients", "std_errors", "p_values",
                    "n", "log_likelihood", "r_squared", "aic", "dispersion",
                    "converged", "warnings"):
            assert key in d


class TestRunModel:
    def _rows(self, n=24):
        rng = np.random.default_rng(6)
        rows = []
        for i in range(n):
            perf = 1.0 + rng.uniform(-0.05, 0.10)
            year = 1990 + (i % 12)
            rows.append({
                "patent_number": str(5000000 + i),
                "cite_forward": int(rng.poisson(math.exp(1.0 + 2.0 * (perf - 1.0)))),
                "cite3": int(rng.poisson(1.0)),
                "cite3_rank_percentile": (i % 10 + 0.5) / 10,
                "performance_ratio": perf,
                "filed_year": year,
            })
        return rows

    def test_spec_lookup_and_terms(self):
        fit = run_model(1, Family.OLS, self._rows())
        assert fit.terms == ["intercept", "performance_ratio", "filed_year"]
        fit4 = run_model(4, "poisson", self._rows())
        assert fit4.terms == ["intercept", "performance_ratio"]

    def test_exclusions_applied(self):
        rows = self._rows()
        fit_all = run_model(4, Family.OLS, rows)
        fit_less = run_model(4, Family.OLS, rows,
                             exclusions=(rows[0]["patent_number"],))
        assert fit_less.n == fit_all.n - 1

    def test_all_excluded_raises(self):
        rows = self._rows(4)
        with pytest.raises(RegressionError, match="no data rows"):
            run_model(4, Family.OLS, rows,
                      exclusions=tuple(r["patent_number"] for r in rows))

    def test_missing_column_raises(self):
        rows = [{"patent_number": "1", "performance_ratio": 1.0}] * 5
        with pytest.raises(RegressionError, match="missing column"):
            run_model(4, Family.OLS, rows)

    def test_bounded_response_warns(self):
        fit = run_model(3, Family.POISSON, self._rows())
        assert any("bounded in [0, 1]" in w for w in fit.warnings)

    def test_model_specs_table(self):
        assert MODEL_SPECS[2].dependent == "cite3"
        assert MODEL_SPECS[4].independents == ("performance_ratio",)


class TestAnalysisTable:
    def test_from_synthetic_dataset(self):
        from cornrate.synthetic import synthetic_dataset
        ds = synthetic_dataset()
        rows = build_analysis_table(ds)
        assert rows
        numbers = {r["patent_number"] for r in rows}
        trialed = {ts.patent_number for ts in ds.trial_sets}
        assert numbers <= trialed
        for r in rows:
            assert 0.0 <= r["cite3_rank_percentile"] <= 1.0
            assert r["cite3"] >= 0
            assert r["performance_ratio"] > 0

    def test_every_count_fit_converges(self):
        # filed_year near 2000 makes X'WX ill-conditioned (cond ~1e11); the
        # stopping rule must still be reachable in floating point.
        from cornrate.synthetic import synthetic_dataset
        rows = build_analysis_table(synthetic_dataset())
        for model in MODEL_SPECS:
            for family in (Family.POISSON, Family.NEGATIVE_BINOMIAL):
                assert run_model(model, family, rows).converged, (model, family)

    def test_exclusions_flow_through(self):
        from cornrate.synthetic import synthetic_dataset
        ds = synthetic_dataset()
        rows = build_analysis_table(ds)
        some = rows[0]["patent_number"]
        reduced = build_analysis_table(ds, exclusions=(some,))
        assert some not in {r["patent_number"] for r in reduced}


def exact_ols_std_errors(y, X):
    """Oracle in exact rational arithmetic: OLS standard errors from (X'X)^-1.

    The floats of X and y are converted to Fractions without rounding, the
    Gram matrix is inverted by Gauss-Jordan elimination, and only the final
    square roots are taken in float.
    """
    Xf = [[Fraction(v) for v in row] for row in X]
    yf = [Fraction(v) for v in y]
    n, p = len(Xf), len(Xf[0])
    aug = [[sum(row[i] * row[j] for row in Xf) for j in range(p)]
           + [Fraction(int(i == j)) for j in range(p)] for i in range(p)]
    for c in range(p):
        pivot = next(r for r in range(c, p) if aug[r][c] != 0)
        aug[c], aug[pivot] = aug[pivot], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(p):
            if r != c and aug[r][c] != 0:
                factor = aug[r][c]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[c])]
    gram_inv = [row[p:] for row in aug]
    xty = [sum(Xf[k][j] * yf[k] for k in range(n)) for j in range(p)]
    beta = [sum(g * v for g, v in zip(gram_inv[i], xty)) for i in range(p)]
    sse = sum((yf[k] - sum(x * b for x, b in zip(Xf[k], beta))) ** 2 for k in range(n))
    sigma2 = sse / (n - p)
    return [math.sqrt(sigma2 * gram_inv[i][i]) for i in range(p)]


def collinear_design(t, d, rng):
    """[1, t, t + d u]: full rank, with cond(X) growing like 1/d."""
    u = np.round(rng.uniform(-1, 1, len(t)), 3)
    return np.column_stack([np.ones(len(t)), t, t + d * u])


RANK_DEFICIENT = [[1.0, 2.0, 4.0], [1.0, 3.0, 6.0], [1.0, 5.0, 10.0], [1.0, 7.0, 14.0]]


def one_filing_year():
    """The fixture design with filed_year 1990 in every row: 1990 times the intercept.

    QR leaves a rounding residual of about eps * ||x_year|| in that column, not an
    exact zero, so the rank rule must be scaled by the column, not by max |R_jj|.
    """
    from cornrate.synthetic import synthetic_dataset
    rows = build_analysis_table(synthetic_dataset())
    return ([r["cite_forward"] for r in rows],
            [[1.0, r["performance_ratio"], 1990.0] for r in rows])


class TestIllConditionedDesigns:
    def test_ols_standard_errors_match_exact_oracle(self):
        rng = np.random.default_rng(0)
        X = collinear_design(1990.0 + np.arange(30) % 15, 3.6e-5, rng)
        y = np.round(rng.normal(size=len(X)) + X[:, 1], 3)
        assert 1e8 < np.linalg.cond(X) < 3e8
        fit = fit_ols(y, X)
        expected = exact_ols_std_errors(y.tolist(), X.tolist())
        got = [fit.std_errors[t] for t in fit.terms]
        assert all(math.isfinite(v) for v in got)
        # QR is backward stable, so the errors may be off by up to about
        # cond(X) * eps ~ 4e-8 relative (2e-10 with numpy's OpenBLAS on x86-64).
        assert got == pytest.approx(expected, rel=1e-7)

    @pytest.mark.parametrize("fitter", [fit_ols, fit_poisson, fit_negative_binomial])
    @pytest.mark.parametrize("data", [lambda: ([1, 2, 3, 4], RANK_DEFICIENT), one_filing_year],
                             ids=["small_integers", "one_filing_year"])
    def test_rejects_rank_deficient_design(self, fitter, data):
        y, X = data()
        with pytest.raises(RegressionError, match="rank deficient"):
            fitter(y, X)

    def test_poisson_on_collinear_full_rank_design(self):
        rng = np.random.default_rng(0)
        t = np.arange(30) % 15 / 10.0
        X = collinear_design(t, 1e-8, rng)
        assert np.linalg.matrix_rank(X) == 3
        y = rng.poisson(np.exp(0.5 + 0.5 * t))
        fit = fit_poisson(y, X)
        beta = np.array([fit.coefficients[term] for term in fit.terms])
        mu = np.exp(X @ beta)
        score = X.T @ (y - mu)
        # Rounding in X @ beta alone moves each score component by about this much.
        floor = np.finfo(float).eps * (np.abs(X).T @ (mu * (np.abs(X) @ np.abs(beta))))
        assert np.all(np.abs(score) <= 10.0 * floor)


class TestLinearPredictorClip:
    Y = [1e14, 2e14, 1.5e14, 1.2e14]   # MLE intercept log(mean) = 32.59 > 30

    @pytest.mark.parametrize("fitter", [fit_poisson, fit_negative_binomial])
    def test_clipped_fit_is_reported(self, fitter):
        fit = fitter(self.Y, [[1.0]] * 4, terms=["intercept"])
        assert not fit.converged
        assert any("clipped to [-30, 30] in 4 of 4 rows" in w for w in fit.warnings)
