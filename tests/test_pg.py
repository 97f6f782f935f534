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


    @pytest.mark.parametrize("tilts", [
        np.concatenate([[0.0, 1e-9, 5e-5, 9.999e-5, 1e-4, 1.001e-4],
                        np.logspace(-6, 2.5, 200)]),
        np.random.default_rng(4).uniform(1e-4, 60.0, 5000),
        np.array(3.5)])
    def test_equals_the_two_branch_formula_bitwise(self, tilts):
        np.testing.assert_array_equal(pg.pg_mean(tilts), _two_branch_pg_mean(tilts))


def _two_branch_pg_mean(c):
    """Frozen copy of ``pg_mean`` when it evaluated both branches at every
    tilt and picked one with ``np.where``."""
    arr = np.asarray(c, dtype=np.float64)
    small = arr < 1e-4
    safe = np.where(small, 1.0, arr)
    return np.where(small, 0.25 - arr * arr / 48.0, np.tanh(0.5 * safe) / (2.0 * safe))


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


# A frozen copy of the sampler as it drew one entry of c at a time, before
# ``reps``: every draw of ``pg_sample_arr`` must stay byte-equal to it.
def _ref_series_coef(n, x):
    k = (n + 0.5) * math.pi
    right = k * np.exp(-0.5 * k * k * x)
    left = k * np.exp(-1.5 * np.log(0.5 * math.pi * x) - 2.0 * (n + 0.5) ** 2 / x)
    return np.where(x > 0.64, right, left)


def _ref_right_piece_mass(z, fz):
    from scipy.special import expit, log_ndtr

    rt = math.sqrt(1.0 / 0.64)
    x0 = np.log(fz) + fz * 0.64
    xb = x0 - z + log_ndtr(rt * (0.64 * z - 1.0))
    xa = x0 + z + log_ndtr(-rt * (0.64 * z + 1.0))
    return expit(-(math.log(4.0 / math.pi) + np.logaddexp(xb, xa)))


def _ref_trunc_inv_gauss(z, rng):
    x = np.empty(z.size)
    todo = np.arange(z.size)
    while todo.size:
        zt = z[todo]
        prop = np.empty(zt.size)
        ok = np.empty(zt.size, dtype=bool)
        low = zt * 0.64 < 1.0
        n = np.count_nonzero(low)
        e1 = rng.standard_exponential(n)
        e2 = rng.standard_exponential(n)
        prop[low] = 0.64 / (1.0 + 0.64 * e1) ** 2
        ok[low] = ((e1 * e1 <= 2.0 * e2 / 0.64)
                   & (rng.random(n) <= np.exp(-0.5 * zt[low] ** 2 * prop[low])))
        mu = 1.0 / zt[~low]
        a = mu * rng.standard_normal(mu.size) ** 2
        root = mu / (1.0 + 0.5 * a + np.sqrt(a + 0.25 * a * a))
        root = np.where(rng.random(mu.size) > mu / (mu + root), mu * mu / root, root)
        prop[~low] = root
        ok[~low] = root <= 0.64
        x[todo[ok]] = prop[ok]
        todo = todo[~ok]
    return x


def _ref_series_accepts(x, rng):
    s = _ref_series_coef(0, x)
    y = rng.random(x.size) * s
    accept = np.zeros(x.size, dtype=bool)
    open_ = np.arange(x.size)
    n = 0
    while open_.size:
        n += 1
        term = _ref_series_coef(n, x[open_])
        if n % 2:
            s[open_] -= term
            done = y[open_] <= s[open_]
            accept[open_[done]] = True
        else:
            s[open_] += term
            done = y[open_] > s[open_]
        open_ = open_[~done]
    return accept


def _ref_pg_sample_arr(c, rng):
    c = np.asarray(c, dtype=np.float64)
    z = 0.5 * c.ravel()
    fz = math.pi * math.pi / 8.0 + 0.5 * z * z
    right = _ref_right_piece_mass(z, fz)
    out = np.empty(z.size)
    todo = np.arange(z.size)
    while todo.size:
        tail = rng.random(todo.size) < right[todo]
        x = np.empty(todo.size)
        x[tail] = 0.64 + rng.standard_exponential(np.count_nonzero(tail)) / fz[todo[tail]]
        x[~tail] = _ref_trunc_inv_gauss(z[todo[~tail]], rng)
        accept = _ref_series_accepts(x, rng)
        out[todo[accept]] = 0.25 * x[accept]
        todo = todo[~accept]
    return out.reshape(c.shape)


def _tilt_sets():
    """(c, reps) pairs: both body branches (z 0.64 < 1 below c = 3.125, the
    inverse-Gaussian draw above it), c = 0, the largest tilt, and counts of
    0, 1 and hundreds."""
    yield (np.array([0.0, 1.0, 3.125, 3.2, 10.0, 1e3, 1e150]),
           np.array([5, 0, 1, 300, 2, 7, 3]))
    yield np.array([2.0, 50.0]), np.array([0, 400])
    yield np.array([0.0]), np.array([1])
    rng = np.random.default_rng(2013)
    for _ in range(30):
        m = int(rng.integers(1, 40))
        c = rng.uniform(0.0, 60.0, m)
        c[rng.random(m) < 0.1] = 0.0
        c[rng.random(m) < 0.05] = 1e150
        yield c, rng.integers(0, 300, m) * (rng.random(m) < 0.8)


_TILT_SETS = list(_tilt_sets())


class TestPgSampleStream:
    @pytest.mark.parametrize("case", range(len(_TILT_SETS)))
    def test_reps_draws_are_those_of_the_repeated_tilts(self, case):
        c, reps = _TILT_SETS[case]
        rng, ref_rng = np.random.default_rng(case), np.random.default_rng(case)
        draws = pg.pg_sample_arr(c, rng, reps)
        ref = _ref_pg_sample_arr(np.repeat(c, reps), ref_rng)
        assert draws.dtype == np.float64 and draws.shape == (reps.sum(),)
        assert draws.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("c", [
        np.array([0.0, 1.0, 3.125, 3.2, 10.0, 1e3, 1e150]),
        np.linspace(0.0, 60.0, 500).reshape(20, 25),
        np.float64(4.0)], ids=["1-d", "shaped", "scalar"])
    def test_draws_without_reps_are_the_reference(self, c):
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        draws = pg.pg_sample_arr(c, rng)
        ref = _ref_pg_sample_arr(c, ref_rng)
        assert draws.shape == np.shape(c)
        assert draws.tobytes() == ref.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_all_zero_reps_draw_nothing(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        draws = pg.pg_sample_arr([1.0, 20.0, 0.0], rng, np.zeros(3, dtype=np.int64))
        assert draws.shape == (0,) and draws.dtype == np.float64
        assert rng.bit_generator.state == before

    def test_negative_count_rejected(self):
        with pytest.raises(DomainError, match="nonnegative"):
            pg.pg_sample_arr([1.0, 2.0], np.random.default_rng(0), np.array([3, -1]))

    def test_non_integer_counts_rejected(self):
        with pytest.raises(DomainError, match="integers"):
            pg.pg_sample_arr([1.0, 2.0], np.random.default_rng(0), np.array([3.0, 1.0]))

    def test_count_per_tilt_mismatch_rejected(self):
        with pytest.raises(DomainError, match="one count per tilt"):
            pg.pg_sample_arr([1.0, 2.0], np.random.default_rng(0), np.array([3, 1, 2]))

    def test_reps_with_shaped_tilts_rejected(self):
        with pytest.raises(DomainError, match="1-d"):
            pg.pg_sample_arr(np.ones((2, 2)), np.random.default_rng(0),
                             np.ones(4, dtype=int))


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
