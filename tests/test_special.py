"""The in-house special functions against SciPy, which is the oracle here only.

cornrate computes its p-values, log-likelihoods and NB dispersion score
without SciPy; these grids hold each replacement to the tolerance stated
in the cornrate.special docstring.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

import cornrate
from cornrate.special import digamma, lgamma, norm_sf, t_sf

# Upper tails from 0.5 down past 1e-300; below t ~ 1e-3 SciPy's stdtr loses
# digits itself, so small t is held to closed forms instead.
T_GRID = np.concatenate([np.geomspace(1e-2, 5.0, 60), np.geomspace(5.0, 1e20, 90)[1:]])


def t_tail_error(dfs) -> float:
    worst = 0.0
    for df in dfs:
        for t in T_GRID.tolist():
            ref = special.stdtr(df, -t)
            if ref >= 1e-300:
                worst = max(worst, abs(t_sf(t, df) - ref) / ref)
    return worst


class TestStudentT:
    def test_integer_df_up_to_200(self):
        assert t_tail_error(range(1, 201)) <= 1e-12

    def test_large_df(self):
        assert t_tail_error([201, 333, 500, 1000, 2500, 5000, 7777, 10_000]) <= 1e-10

    def test_fractional_df(self):
        assert t_tail_error([0.5, 1.5, 2.5, 7.3, 99.9]) <= 1e-12

    @pytest.mark.parametrize("t", [1e-12, 1e-8, 1e-4, 1e-2])
    def test_small_t_closed_forms(self, t):
        assert t_sf(t, 1) == pytest.approx(0.5 - math.atan(t) / math.pi, rel=1e-15)
        assert t_sf(t, 2) == pytest.approx(0.5 - t / (2 * math.sqrt(2 + t * t)), rel=1e-15)

    def test_zero(self):
        assert t_sf(0.0, 7) == 0.5

    @pytest.mark.parametrize("df", [0.5, 1, 1.5, 2, 7.3, 200])
    def test_infinite_and_huge_t(self, df):
        assert t_sf(math.inf, df) == 0.0
        # From t ~ 1.34e154 on, t^2 overflows, in SciPy too (its tail reads 0 there);
        # past that the oracle is the leading term c df^((df - 1) / 2) t^-df of
        # the tail, with c the density's constant; the next term is smaller by a
        # factor of about df / t^2.
        log_c = (math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
                 + (df - 1) / 2 * math.log(df))
        for t in np.geomspace(1e20, 1.7e308, 200).tolist() + [1.34e154, 1.35e154]:
            got = t_sf(t, df)
            ref = stats.t.sf(t, df)
            if t * t == math.inf:
                ref = math.exp(log_c - df * math.log(t))
            if ref >= 1e-300:
                assert got == pytest.approx(ref, rel=1e-12, abs=0), t
            else:
                assert 0.0 <= got < 1e-290, t


def test_normal_tail():
    z = np.linspace(0.0, 37.0, 3701)
    got = np.array([norm_sf(v) for v in z.tolist()])
    ref = special.ndtr(-z)
    assert np.max(np.abs(got - ref) / ref) <= 1e-12


GAMMA_GRID = np.concatenate([np.geomspace(1e-4, 1e10, 5000), np.arange(1.0, 2000.0),
                             np.arange(0.0, 2000.0) * 0.5 + 1e-4, np.linspace(0.5, 20.0, 1000)])


def test_lgamma():
    ref = special.gammaln(GAMMA_GRID)
    assert np.max(np.abs(lgamma(GAMMA_GRID) - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-13


def test_digamma_matches_scipy():
    ref = special.digamma(GAMMA_GRID)
    assert np.max(np.abs(digamma(GAMMA_GRID) - ref) / np.maximum(1.0, np.abs(ref))) <= 1e-13


def test_cli_runs_without_scipy():
    src = str(Path(cornrate.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import contextlib, io, sys\n"
            "import cornrate.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cornrate.cli.main(['trend', '--series', 'usda-file']) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out.strip() == "[]"
