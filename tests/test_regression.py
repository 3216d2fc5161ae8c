import contextlib
import importlib.util
import io
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cornrate import regression
from cornrate.cli import main
from cornrate.core_data import load_dataset, without_patents
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


FIELDS = ("cite_forward", "cite3", "cite3_rank_percentile", "performance_ratio", "filed_year")


def row_analysis_table(dataset) -> list[dict]:
    """Oracle: build_analysis_table as one dict per patent with a trial set,
    in patent-number order, built row by row."""
    from cornrate.citation_metrics import per_patent_cite3
    from cornrate.yield_metrics import performance_ratio

    patents = dataset.patents
    cite3, percentile = per_patent_cite3(patents)
    trial_by_patent = {ts.patent_number: ts for ts in dataset.trial_sets}
    rows = []
    for number in sorted(patents):
        if number not in trial_by_patent:
            continue
        patent = patents[number]
        rows.append({
            "patent_number": number,
            "cite_forward": patent.forward_citation_count,
            "cite3": cite3[number],
            "cite3_rank_percentile": percentile[number],
            "performance_ratio": performance_ratio(trial_by_patent[number]),
            "filed_year": patent.filed_year,
        })
    return rows


@pytest.fixture(scope="module")
def network_dataset(tmp_path_factory):
    """The dataset store that `cornrate ingest` makes of the benchmark's network seed 11."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("perfbench_generate", path)
    generate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generate)
    raw, store = tmp_path_factory.mktemp("net11"), tmp_path_factory.mktemp("net11-store")
    generate.generate_network(11, raw)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", "--patents", str(raw / "patents.csv"),
                     "--trials", str(raw / "trials.csv"), "--fieldtests",
                     str(raw / "fieldtests.csv"), "--schema", "illinois",
                     "--out", str(store), "--no-timestamp"]) == 0
    return load_dataset(store)


def near_collinear(seed, cond, mixing=None):
    """30 Poisson counts of rate exp(0.3 + 0.15 t), each rate times a draw of
    mixing(rng) if given, and the design [1, t, t + d u] of condition number
    cond, where t ~ U(0, 10) and u ~ N(0, 1)."""
    rng = np.random.default_rng(seed)
    t, u = rng.uniform(0, 10, size=30), rng.normal(size=30)
    rate = np.exp(0.3 + 0.15 * t)
    y = rng.poisson(rate if mixing is None else rate * mixing(rng))
    base = np.column_stack([np.ones(30), t, t + 1e-9 * u])
    d = 1e-9 * np.linalg.cond(base) / cond
    X = np.column_stack([np.ones(30), t, t + d * u])
    assert np.linalg.cond(X) == pytest.approx(cond, rel=0.01)
    return y, X


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

    @pytest.mark.parametrize("value, p_value", [(5.0, 0.0), (0.0, 1.0)])
    def test_zero_standard_error(self, value, p_value):
        # A constant response fits exactly: as in trend.fit_exponential, a zero
        # standard error gives p 0 for a nonzero coefficient and 1 for a zero one.
        fit = fit_ols([value] * 4, [[1.0]] * 4, ["intercept"])
        assert fit.coefficients["intercept"] == value
        assert fit.std_errors["intercept"] == 0.0
        assert fit.p_values["intercept"] == p_value

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

    @pytest.mark.parametrize("seed", [1, 2])
    def test_converges_at_the_rounding_floor(self, seed):
        # Columns t and t + d u are nearly collinear (cond 3.5e10), so a step at
        # the solution is float noise of about cond * eps, far above COEF_TOL.
        y, X = near_collinear(seed, 3.5e10)
        fit = fit_poisson(y, X, terms=["intercept", "t", "t_du"])
        assert fit.converged
        assert not fit.warnings
        # At the rounding floor: the score X'(y - mu) is noise against X'y.
        mu = np.exp(X @ np.array(list(fit.coefficients.values())))
        assert np.abs(X.T @ (y - mu)).max() < 1e-5 * np.abs(X.T @ y).max()

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

    @pytest.mark.parametrize("cond", [1.1e9, 3.5e10], ids=["cond-1.1e9", "cond-3.5e10"])
    def test_converges_at_the_rounding_floor(self, cond):
        # Overdispersed counts on a nearly collinear design: the alternation
        # must stop at the rounding floor of its inner IRLS, as that IRLS does.
        y, X = near_collinear(2, cond, mixing=lambda rng: rng.gamma(2, 0.5, size=30))
        fit = fit_negative_binomial(y, X, terms=["intercept", "t", "t_du"])
        assert fit.converged
        assert not fit.warnings
        assert 1 < fit.dispersion < 100
        mu = np.exp(X @ np.array(list(fit.coefficients.values())))
        w = mu / (1.0 + mu / fit.dispersion)
        score = X.T @ ((y - mu) / mu * w)
        assert np.abs(score).max() < 1e-5 * np.abs(X.T @ y).max()

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

    def test_fixture_theta_is_the_scipy_score_root(self):
        # Oracle: SciPy's digamma and brentq on the same profile score at the fit's mu.
        from scipy import optimize, special
        from tests.synthetic import synthetic_dataset
        table = build_analysis_table(synthetic_dataset())
        finite = 0
        for model, spec in MODEL_SPECS.items():
            fit = run_model(model, Family.NEGATIVE_BINOMIAL, table)
            if not math.isfinite(fit.dispersion):
                continue
            y = table[spec.dependent]
            X = np.column_stack([np.ones(len(y)), *(table[c] for c in spec.independents)])
            mu = np.exp(X @ np.array([fit.coefficients[t] for t in fit.terms]))

            def score(theta):
                return np.sum(special.digamma(y + theta) - special.digamma(theta)
                              - np.log1p(mu / theta) + (mu - y) / (theta + mu))

            root = optimize.brentq(score, 1e-4, 1e6, xtol=1e-300, rtol=4 * np.finfo(float).eps)
            assert fit.dispersion == pytest.approx(root, rel=1e-12, abs=0), model
            finite += 1
        assert finite

    def test_nb_loglik_beats_poisson_when_overdispersed(self):
        rng = np.random.default_rng(8)
        n = 1000
        y = rng.poisson(rng.gamma(0.8, 3.0 / 0.8, size=n))
        X = [[1.0]] * n
        nb = fit_negative_binomial(y, X, terms=["intercept"])
        po = fit_poisson(y, X, terms=["intercept"])
        assert nb.log_likelihood > po.log_likelihood
        assert nb.aic < po.aic


class TestCountFamilies:
    """Poisson and NB2 come from one fitter; Poisson is NB2 at theta = inf."""

    FITTERS = {Family.POISSON: fit_poisson, Family.NEGATIVE_BINOMIAL: fit_negative_binomial}

    @pytest.mark.parametrize("family", list(FITTERS), ids=lambda f: f.value)
    @pytest.mark.parametrize("y, X", [([0, 0, 0, 0], design([[0.1], [0.2], [0.3], [0.4]])),
                                      ([0, 0, 0], design([[0.0], [1.0], [2.0]]))],
                             ids=["4-rows", "3-rows"])
    def test_all_zero_boundary(self, family, y, X):
        fit = self.FITTERS[family](y, X)
        assert fit.family is family
        assert fit.coefficients == {t: -math.inf if t == fit.terms[0] else 0.0 for t in fit.terms}
        assert fit.std_errors == dict.fromkeys(fit.terms, math.inf)
        assert fit.p_values == dict.fromkeys(fit.terms, 1.0)
        assert fit.log_likelihood == 0.0
        assert not fit.converged
        assert any("all-zero" in w for w in fit.warnings)
        assert fit.aic == 2.0 * len(fit.terms)
        # NB2 is the Poisson result field for field, but for its family and theta.
        expected = {**fit_poisson(y, X)._asdict(), "family": family,
                    "dispersion": math.inf if family is Family.NEGATIVE_BINOMIAL else None}
        assert fit._asdict() == expected

    @pytest.mark.parametrize("family, warning", [
        (Family.POISSON, "IRLS did not converge in 1 iterations; reporting last iterate"),
        (Family.NEGATIVE_BINOMIAL, "NB alternation did not converge; reporting last iterate"),
    ], ids=["poisson", "negbin"])
    def test_nonconvergence_reported(self, family, warning, monkeypatch):
        rng = np.random.default_rng(8)
        y = rng.poisson(rng.gamma(0.8, 3.0 / 0.8, size=200))
        monkeypatch.setattr(regression, "MAX_ITER", 1)
        fit = self.FITTERS[family](y, [[1.0]] * len(y), ["intercept"])
        assert not fit.converged
        assert fit.warnings == [warning]


@pytest.mark.parametrize("fitter", [fit_ols, fit_poisson, fit_negative_binomial],
                         ids=["ols", "poisson", "negbin"])
@pytest.mark.parametrize("where, value", [("y", math.nan), ("y", math.inf), ("X", math.nan),
                                          ("X", -math.inf)],
                         ids=["nan-y", "inf-y", "nan-X", "minus-inf-X"])
def test_non_finite_values_refused(fitter, where, value):
    # Refused up front, where a NaN or inf used to end in NaN coefficients,
    # numpy RuntimeWarnings or a p-value that did not converge.
    y, X = [1.0, 0.0, 2.0, 3.0, 1.0], design([[0.1], [0.2], [0.3], [0.4], [0.5]])
    if where == "y":
        y[2] = value
    else:
        X[2][1] = value
    with pytest.raises(RegressionError, match="^y and X must be finite$"):
        fitter(y, X)


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

    def test_warnings_default_not_shared(self):
        fits = [RegressionResult(Family.OLS, [], {}, {}, {}, n) for n in (1, 2)]
        assert fits[0].warnings == [] and fits[0].warnings is not fits[1].warnings


class TestRunModel:
    def _table(self, n=24):
        rng = np.random.default_rng(6)
        rows = []
        for i in range(n):
            perf = 1.0 + rng.uniform(-0.05, 0.10)
            year = 1990 + (i % 12)
            rows.append((str(5000000 + i),
                         int(rng.poisson(math.exp(1.0 + 2.0 * (perf - 1.0)))),
                         int(rng.poisson(1.0)),
                         (i % 10 + 0.5) / 10,
                         perf,
                         year))
        numbers, *columns = zip(*rows)
        return {"patent_number": list(numbers),
                **{name: np.array(column, float) for name, column in zip(FIELDS, columns)}}

    def test_spec_lookup_and_terms(self):
        fit = run_model(1, Family.OLS, self._table())
        assert fit.terms == ["intercept", "performance_ratio", "filed_year"]
        fit4 = run_model(4, Family.POISSON, self._table())
        assert fit4.terms == ["intercept", "performance_ratio"]

    @pytest.mark.parametrize("family", list(Family))
    def test_family_dispatch(self, family):
        fit = run_model(1, family, self._table())
        assert fit.family is family
        assert (fit.r_squared is None) is (family is not Family.OLS)
        assert (fit.dispersion is None) is (family is not Family.NEGATIVE_BINOMIAL)

    def test_family_by_name(self):
        for family in Family:
            fit = run_model(1, family.value, self._table())
            assert fit.family is family
            assert fit._asdict() == run_model(1, family, self._table())._asdict()
        with pytest.raises(ValueError):
            run_model(1, "logit", self._table())

    def test_all_excluded_raises(self):
        # Excluding every patent leaves no rows; run_model refuses what is left.
        from tests.synthetic import synthetic_dataset
        ds = synthetic_dataset()
        table = build_analysis_table(without_patents(ds, ds.patents))
        assert table["patent_number"] == []
        with pytest.raises(RegressionError, match="no data rows"):
            run_model(4, Family.OLS, table)

    def test_bounded_response_warns(self):
        fit = run_model(3, Family.POISSON, self._table())
        assert any("bounded in [0, 1]" in w for w in fit.warnings)

    def test_model_specs_table(self):
        assert MODEL_SPECS[2].dependent == "cite3"
        assert MODEL_SPECS[4].independents == ("performance_ratio",)


class TestAnalysisTable:
    def test_from_synthetic_dataset(self):
        from tests.synthetic import synthetic_dataset
        ds = synthetic_dataset()
        table = build_analysis_table(ds)
        assert table["patent_number"]
        numbers = set(table["patent_number"])
        trialed = {ts.patent_number for ts in ds.trial_sets}
        assert numbers <= trialed
        assert np.all((0.0 <= table["cite3_rank_percentile"])
                      & (table["cite3_rank_percentile"] <= 1.0))
        assert np.all(table["cite3"] >= 0)
        assert np.all(table["performance_ratio"] > 0)

    def test_holds_every_model_column(self):
        from tests.synthetic import synthetic_dataset
        table = build_analysis_table(synthetic_dataset())
        n = len(table["patent_number"])
        for spec in MODEL_SPECS.values():
            for column in (spec.dependent, *spec.independents):
                assert table[column].dtype == np.float64
                assert table[column].shape == (n,)

    @pytest.mark.parametrize("dataset", ["synthetic", "network_seed_11"])
    def test_columns_are_the_row_oracle_bit_for_bit(self, dataset, request):
        if dataset == "synthetic":
            from tests.synthetic import synthetic_dataset
            ds = synthetic_dataset()
        else:
            ds = request.getfixturevalue("network_dataset")
        table = build_analysis_table(ds)
        rows = row_analysis_table(ds)
        assert len(rows) > 60
        assert table["patent_number"] == [r["patent_number"] for r in rows]
        for column in FIELDS:
            assert table[column].dtype == np.float64
            assert ([v.hex() for v in table[column].tolist()]
                    == [float(r[column]).hex() for r in rows]), column

    def test_every_count_fit_converges(self):
        # filed_year near 2000 makes X'WX ill-conditioned (cond ~1e11); the
        # stopping rule must still be reachable in floating point.
        from tests.synthetic import synthetic_dataset
        table = build_analysis_table(synthetic_dataset())
        for model in MODEL_SPECS:
            for family in (Family.POISSON, Family.NEGATIVE_BINOMIAL):
                assert run_model(model, family, table).converged, (model, family)

    def test_exclusions_flow_through(self):
        from tests.synthetic import synthetic_dataset
        ds = synthetic_dataset()
        table = build_analysis_table(ds)
        some = table["patent_number"][0]
        reduced = build_analysis_table(without_patents(ds, (some,)))
        assert some not in set(reduced["patent_number"])
        assert len(reduced["patent_number"]) == len(table["patent_number"]) - 1


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
    from tests.synthetic import synthetic_dataset
    table = build_analysis_table(synthetic_dataset())
    n = len(table["patent_number"])
    return (table["cite_forward"],
            np.column_stack([np.ones(n), table["performance_ratio"], np.full(n, 1990.0)]))


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
