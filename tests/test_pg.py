"""Polya-Gamma utilities: analytic mean, exact sampler, sigmoid identity."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hawkes_vb import pg
from hawkes_vb.errors import DomainError


class TestPgMean:
    def test_limit_at_zero(self):
        assert pg.pg_mean(0.0) == pytest.approx(0.25)

    def test_value_at_one(self):
        assert pg.pg_mean(1.0) == pytest.approx(math.tanh(0.5) / 2.0, rel=1e-14)

    def test_value_at_ten(self):
        assert pg.pg_mean(10.0) == pytest.approx(math.tanh(5.0) / 20.0, rel=1e-14)

    def test_taylor_branch_is_continuous(self):
        below = pg.pg_mean(9.999e-5)
        above = pg.pg_mean(1.001e-4)
        assert abs(below - above) < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            pg.pg_mean(-0.5)

    @given(st.floats(0.0, 80.0), st.floats(0.0, 80.0))
    @example(0.0, 1e-8)  # 1/4 - c^2/48 rounds to 1/4 itself
    @example(0.0, 1e-7)  # a gap of about four ulps still decreases
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_range_and_monotone_decreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        va, vb = pg.pg_mean(lo), pg.pg_mean(hi)
        assert 0.0 < vb <= va <= 0.25
        # strict where the exact gap, (hi^2 - lo^2)/48 to leading order near
        # 0, exceeds two ulps of 1/4; below that both means may round alike
        if hi > lo + 1e-9 and (hi * hi - lo * lo) / 48.0 > 2 * math.ulp(0.25):
            assert vb < va

    def test_vectorised(self):
        c = np.array([0.0, 1.0, 10.0])
        np.testing.assert_allclose(
            pg.pg_mean(c),
            [0.25, math.tanh(0.5) / 2.0, math.tanh(5.0) / 20.0], rtol=1e-13)


class TestPgSample:
    def test_positive_support(self):
        rng = np.random.default_rng(0)
        draws = pg.pg_sample_arr(np.linspace(0.0, 12.0, 2000), rng)
        assert np.all(draws > 0.0)

    @pytest.mark.parametrize("c", [0.0, 0.5, 2.0, 10.0])
    def test_empirical_mean_matches_analytic(self, c):
        rng = np.random.default_rng(42)
        n = 200_000
        draws = pg.pg_sample_arr(np.full(n, c), rng)
        se = draws.std(ddof=1) / math.sqrt(n)
        assert abs(draws.mean() - pg.pg_mean(c)) < 4.0 * se

    def test_empty_and_shaped_input(self):
        # gibbs_sample passes an empty array when a dimension has no events
        # and draws no latent point
        rng = np.random.default_rng(4)
        empty = pg.pg_sample_arr(np.zeros(0), rng)
        assert empty.shape == (0,) and empty.dtype == np.float64
        draws = pg.pg_sample_arr(np.full((3, 4), 2.0), rng)
        assert draws.shape == (3, 4)
        assert np.all(draws > 0.0)

    def test_negative_rejected(self):
        rng = np.random.default_rng(0)
        for c in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                pg.pg_sample_arr([c], rng)

    def test_distribution_against_series_construction(self):
        # independent construction: truncated sum of Gamma(1,1)/rates with
        # the standard mean bias correction
        from scipy.stats import ks_2samp

        def series_pg(c, n, rng, trunc=2000):
            denom = (np.arange(trunc) + 0.5) ** 2 + c * c / (4 * np.pi**2)
            g = rng.gamma(1.0, 1.0, size=(n, trunc))
            x = (g / denom).sum(axis=1) / (2 * np.pi**2)
            half = max(abs(c) / 2, 1e-8)
            return x * (np.tanh(half) / half / 4) / ((1 / denom).sum() / (2 * np.pi**2))

        # c = 10 and 50 put z * 0.64 >= 1, the inverse-Gaussian branch that
        # draws untruncated and rejects above 0.64
        rng = np.random.default_rng(7)
        for c in (0.0, 2.0, 10.0, 50.0):
            a = pg.pg_sample_arr(np.full(8000, c), rng)
            b = series_pg(c, 8000, rng)
            assert ks_2samp(a, b).pvalue > 1e-3


class TestLogG:
    def test_at_zero(self):
        assert pg.log_g(1.0, 0.0) == pytest.approx(-math.log(2.0))

    def test_direct_formula(self):
        assert pg.log_g(1.0, 2.0) == pytest.approx(-2.0 + 1.0 - math.log(2.0))

    def test_nonpositive_omega_rejected(self):
        with pytest.raises(DomainError):
            pg.log_g(0.0, 1.0)

    def test_sigmoid_identity_monte_carlo(self):
        rng = np.random.default_rng(11)
        draws = pg.pg_sample_arr(np.zeros(100_000), rng)
        x = 0.7
        vals = np.exp(pg.log_g(draws, x))
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        sig = 1.0 / (1.0 + math.exp(-x))
        assert abs(vals.mean() - sig) < 5.0 * se


class TestBackends:
    def test_backend_reported(self):
        assert pg.BACKEND == "numpy"
