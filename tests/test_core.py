"""Intensity, likelihood and basis feature tests against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkes_vb import (EventData, HawkesParams, HistogramBasis, LinkFunction,
                       basis_features, intensity, linear_drive, log_likelihood)
from hawkes_vb.core import drive_breakpoints, feature_matrix
from hawkes_vb.errors import DataError, DomainError

A = 0.1


def _events(times, horizon, dims=1, dim_of=None):
    if dims == 1:
        return EventData(dims_K=1, horizon_T=horizon, times=(np.asarray(times, float),))
    per = [[] for _ in range(dims)]
    for t, d in zip(times, dim_of):
        per[d].append(t)
    return EventData(dims_K=dims, horizon_T=horizon,
                     times=tuple(np.asarray(p, float) for p in per))


def _brute_drive(params, events, k, t):
    """Independent oracle: loop over every event and evaluate the kernel."""
    total = params.nu[k]
    for l in range(params.dims_K):
        w = params.weights[l][k]
        if w is None:
            continue
        basis = params.basis[k]
        for s in events.times[l]:
            lag = t - s
            if 0.0 < lag <= basis.memory_A:
                j = int(math.ceil(lag * basis.num_bins_J / basis.memory_A))
                total += w[min(j, basis.num_bins_J) - 1] * basis.height
    return total


class TestLinkFunction:
    def test_sigmoid_midpoint(self):
        link = LinkFunction("sigmoid", theta=20.0, alpha=0.1, eta=10.0)
        assert link(10.0) == pytest.approx(10.0)

    def test_sigmoid_high_precision(self):
        link = LinkFunction("sigmoid", theta=20.0, alpha=0.1, eta=10.0)
        assert link(1.0) == pytest.approx(20.0 / (1.0 + math.exp(0.9)), rel=1e-12)

    def test_relu_linear_region(self):
        link = LinkFunction("relu", theta=1.0, alpha=1.0, eta=0.0, theta_base=0.001)
        assert link(0.5) == pytest.approx(0.501)

    def test_softplus(self):
        link = LinkFunction("softplus", theta=40.0, alpha=0.1, eta=20.0)
        assert link(20.0) == pytest.approx(40.0 * math.log(2.0))

    def test_sigmoid_bounded(self):
        link = LinkFunction("sigmoid", theta=20.0, alpha=0.2, eta=10.0)
        xs = np.linspace(-1e4, 1e4, 1001)
        vals = link(xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 20.0)

    @given(st.sampled_from(["sigmoid", "relu", "softplus"]),
           st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=60, deadline=None)
    def test_monotone_nonnegative(self, kind, x, y):
        link = LinkFunction(kind, theta=20.0, alpha=0.2, eta=10.0)
        lo, hi = min(x, y), max(x, y)
        assert link(lo) >= 0.0
        assert link(lo) <= link(hi) + 1e-12

    def test_invalid(self):
        with pytest.raises(DomainError):
            LinkFunction("sigmoid", theta=-1.0)
        with pytest.raises(DomainError):
            LinkFunction("exp")


class TestEventData:
    def test_cross_dimension_ties_rejected(self):
        with pytest.raises(DataError):
            _events([1.0, 1.0], 2.0, dims=2, dim_of=[0, 1])

    def test_unsorted_rejected(self):
        with pytest.raises(DataError):
            _events([2.0, 1.0], 3.0)

    def test_beyond_horizon_rejected(self):
        with pytest.raises(DataError):
            _events([1.0, 5.0], 3.0)

    @pytest.mark.parametrize("times", [[-np.inf, np.nan], [np.nan], [1.0, np.inf],
                                       [-np.inf, 1.0]])
    def test_non_finite_times_rejected(self, times):
        with pytest.raises(DataError):
            EventData(dims_K=1, horizon_T=10.0, times=(np.array(times),))

    def test_negative_times_form_initial_condition(self):
        ev = _events([-0.05, 0.5], 1.0)
        assert ev.counts()[0] == 1
        assert ev.total(t_min=-1.0) == 2


class TestLinearDrive:
    def test_no_interaction(self):
        basis = HistogramBasis(A, 4)
        p = HawkesParams.build([10.0], [[None]], basis)
        ev = _events([0.2, 0.4], 1.0)
        assert linear_drive(p, ev, 0, 0.7) == pytest.approx(10.0)

    def test_single_bin_value(self):
        basis = HistogramBasis(A, 1)
        p = HawkesParams.build([1.0], [[np.array([0.3])]], basis)
        t = 0.6
        ev = _events([t - A / 2], 1.0)
        assert linear_drive(p, ev, 0, t) == pytest.approx(1.0 + 0.3 / A)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        basis = HistogramBasis(A, 4)
        p = HawkesParams.build([2.0], [[np.array([0.3, -0.1, 0.2, 0.05])]], basis)
        times = np.sort(rng.uniform(0.0, 0.5, size=5))
        ev = _events(times, 1.0)
        for t in rng.uniform(0.0, 1.0, size=20):
            assert linear_drive(p, ev, 0, t) == pytest.approx(
                _brute_drive(p, ev, 0, t), rel=1e-12)

    def test_domain_error(self):
        basis = HistogramBasis(A, 1)
        p = HawkesParams.build([1.0], [[None]], basis)
        ev = _events([0.5], 1.0)
        with pytest.raises(DomainError):
            linear_drive(p, ev, 0, 1.5)
        with pytest.raises(DomainError):
            linear_drive(p, ev, 0, -0.1)

    def test_piecewise_constant_between_breakpoints(self):
        rng = np.random.default_rng(1)
        basis = HistogramBasis(A, 4)
        p = HawkesParams.build([1.0], [[np.array([0.2, 0.1, -0.1, 0.05])]], basis)
        ev = _events(np.sort(rng.uniform(0.0, 0.8, 6)), 1.0)
        pts = drive_breakpoints(p, ev, 0)
        for left, right in zip(pts[:-1], pts[1:]):
            qs = left + (right - left) * np.array([0.25, 0.5, 0.75])
            vals = [linear_drive(p, ev, 0, float(q)) for q in qs]
            assert max(vals) - min(vals) < 1e-12


class TestIntensity:
    def test_sigmoid_at_midpoint(self):
        link = LinkFunction("sigmoid", theta=20.0, alpha=0.1, eta=10.0)
        basis = HistogramBasis(A, 1)
        p = HawkesParams.build([10.0], [[None]], basis)
        ev = _events([], 1.0)
        assert intensity(p, ev, link, 0, 0.5) == pytest.approx(10.0)

    def test_relu_default(self):
        link = LinkFunction("relu", theta=1.0, alpha=1.0, eta=0.0, theta_base=0.001)
        basis = HistogramBasis(A, 1)
        p = HawkesParams.build([0.5], [[None]], basis)
        ev = _events([], 1.0)
        assert intensity(p, ev, link, 0, 0.5) == pytest.approx(0.501)

    def test_sigmoid_derived_value(self):
        link = LinkFunction("sigmoid", theta=20.0, alpha=0.1, eta=10.0)
        basis = HistogramBasis(A, 1)
        p = HawkesParams.build([1.0], [[None]], basis)
        ev = _events([], 1.0)
        assert intensity(p, ev, link, 0, 0.3) == pytest.approx(
            20.0 / (1.0 + math.exp(0.9)), rel=1e-12)


class TestLogLikelihood:
    def test_empty_events_constant_intensity(self):
        link = LinkFunction("sigmoid", theta=20.0, alpha=0.2, eta=10.0)
        basis = HistogramBasis(A, 2)
        p = HawkesParams.build([7.0, 4.0], [[None, None], [None, None]],
                               (basis, basis))
        ev = EventData(dims_K=2, horizon_T=5.0, times=(np.array([]), np.array([])))
        expected = -(link(7.0) + link(4.0)) * 5.0
        assert log_likelihood(p, ev, link) == pytest.approx(expected, rel=1e-12)

    def test_zero_horizon(self):
        link = LinkFunction("sigmoid", theta=20.0, alpha=0.2, eta=10.0)
        basis = HistogramBasis(A, 1)
        p = HawkesParams.build([1.0], [[None]], basis)
        ev = EventData(dims_K=1, horizon_T=0.0, times=(np.array([]),))
        assert log_likelihood(p, ev, link) == 0.0

    def test_exact_matches_riemann_within_1e6_relative(self):
        # Riemann error ~ n_jumps * step * jump_size; small kernel weights
        # keep it two orders below the 1e-6 relative target while a
        # wrong-bin bug would still shift the value ~1000x above it
        link = LinkFunction("sigmoid", theta=20.0, alpha=0.2, eta=10.0)
        basis = HistogramBasis(A, 4)
        p = HawkesParams.build([7.0], [[np.array([2e-3, 1e-3, -1e-3, 5e-4])]],
                               basis)
        ev = _events([0.1234, 3.4567, 7.6543], 10.0)
        exact = log_likelihood(p, ev, link, method="exact")
        riemann = log_likelihood(p, ev, link, method="riemann", grid_step=A / 1e4)
        assert exact == pytest.approx(riemann, rel=1e-6)

    def test_exact_matches_riemann_generic_positions(self):
        # off-grid jumps leave an O(step * jumps) quadrature error; the bound
        # ~ n_jumps * step * max_jump stays below 1e-3 relative here
        rng = np.random.default_rng(9)
        link = LinkFunction("sigmoid", theta=20.0, alpha=0.2, eta=10.0)
        basis = HistogramBasis(A, 2)
        p = HawkesParams.build(
            [6.0, 5.0],
            [[np.array([0.2, 0.1]), np.array([0.15, 0.05])],
             [None, np.array([-0.2, -0.1])]],
            (basis, basis))
        times = np.sort(rng.uniform(0, 3.0, size=14))
        ev = _events(times, 3.0, dims=2, dim_of=rng.integers(0, 2, size=14))
        exact = log_likelihood(p, ev, link, method="exact")
        riemann = log_likelihood(p, ev, link, method="riemann", grid_step=A / 1e4)
        assert exact == pytest.approx(riemann, rel=1e-3)

    def test_zero_intensity_event_gives_minus_inf(self):
        link = LinkFunction("relu", theta=1.0, alpha=1.0, eta=0.0, theta_base=0.0)
        basis = HistogramBasis(A, 1)
        p = HawkesParams.build([-1.0], [[None]], basis)
        ev = _events([0.5], 1.0)
        assert log_likelihood(p, ev, link) == -math.inf


class TestBasisFeatures:
    def test_empty_window(self):
        basis = HistogramBasis(A, 4)
        ev = _events([], 1.0)
        assert np.array_equal(basis_features(ev, basis, 0, 0.5), np.zeros(4))

    def test_first_bin_membership(self):
        basis = HistogramBasis(A, 4)
        t = 0.7
        ev = _events([t - A / 8], 1.0)
        np.testing.assert_allclose(basis_features(ev, basis, 0, t),
                                   [4 / A, 0, 0, 0])

    def test_clustered_counts(self):
        rng = np.random.default_rng(2)
        basis = HistogramBasis(A, 4)
        times = np.sort(rng.uniform(0.4, 0.5, size=12))
        ev = _events(times, 1.0)
        t = 0.5 + 0.013
        got = basis_features(ev, basis, 0, t)
        want = np.zeros(4)
        for s in times:
            lag = t - s
            if 0.0 < lag <= A:
                want[min(int(math.ceil(lag * 4 / A)), 4) - 1] += 4 / A
        np.testing.assert_allclose(got, want)

    @given(st.lists(st.floats(0.0, 0.99), min_size=0, max_size=30),
           st.integers(1, 8), st.floats(0.05, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_sum_identity(self, raw, j_bins, t):
        times = np.unique(np.asarray(raw, float))
        ev = EventData(dims_K=1, horizon_T=1.0, times=(times,))
        basis = HistogramBasis(A, j_bins)
        feats = basis_features(ev, basis, 0, t)
        window = np.sum((times >= t - A) & (times < t))
        assert (A / j_bins) * feats.sum() == pytest.approx(float(window))

    def test_feature_matrix_stacks_features(self):
        rng = np.random.default_rng(3)
        basis = HistogramBasis(A, 4)
        times = np.sort(rng.uniform(0, 1, size=9))
        ev = _events(times, 1.0, dims=2, dim_of=rng.integers(0, 2, size=9))
        ts = rng.uniform(0, 1, size=5)
        mat = feature_matrix(ev, basis, [0, 1], ts)
        assert mat.shape == (9, 5)
        for col, t in enumerate(ts):
            np.testing.assert_allclose(mat[0, col], 1.0)
            np.testing.assert_allclose(mat[1:5, col], basis_features(ev, basis, 0, t))
            np.testing.assert_allclose(mat[5:9, col], basis_features(ev, basis, 1, t))
