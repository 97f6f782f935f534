"""Intensity, likelihood and basis feature tests against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _fixtures as fx
from hawkes_vb import (EventData, HawkesParams, HistogramBasis, LinkFunction, SimConfig,
                       core, linear_drive, log_likelihood, simulate)
from hawkes_vb.adaptive import enumerate_submodels
from hawkes_vb.core import distinct_columns, feature_matrix, segment_points
from hawkes_vb.errors import ConfigError, DataError, DomainError
from hawkes_vb.gibbs import check_latent_candidates
from hawkes_vb.vi import GaussianPrior, QuadratureGrid

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


def _brute_features(times, basis, t):
    """Independent oracle: histogram features of one source at time t."""
    want = np.zeros(basis.num_bins_J)
    for s in times:
        lag = t - s
        if 0.0 < lag <= basis.memory_A:
            j = int(math.ceil(lag * basis.num_bins_J / basis.memory_A))
            want[min(j, basis.num_bins_J) - 1] += basis.height
    return want


def _searchsorted_feature_matrix(events, basis, sources, times):
    """Frozen copy of ``feature_matrix`` before the merge count: each time
    searched among each source's events, one bin edge at a time."""
    times = np.asarray(times, dtype=np.float64)
    j_bins = basis.num_bins_J
    offsets = np.arange(j_bins + 1) * (basis.memory_A / j_bins)
    out = np.ones((1 + len(sources) * j_bins, times.size), dtype=np.uint8)
    for pos, l in enumerate(sources):
        src = events.times[l]
        upper = np.searchsorted(src, times - offsets[0], side="left")
        for j in range(1, j_bins + 1):
            lower = np.searchsorted(src, times - offsets[j], side="left")
            counts = upper - lower
            peak = counts.max(initial=0)
            if peak > np.iinfo(out.dtype).max:
                out = out.astype(np.min_scalar_type(peak))
            out[pos * j_bins + j] = counts
            upper = lower
    return out


def _features(events, basis, l, t):
    """Features of the single source l at one time t."""
    return basis.features(feature_matrix(events, basis, [l], [t]))[1:, 0]


@pytest.mark.parametrize("build, error", [
    (lambda: LinkFunction(theta=math.nan), DomainError),
    (lambda: LinkFunction(eta=math.inf), DomainError),
    (lambda: HistogramBasis(math.inf, 2), DomainError),
    (lambda: HawkesParams.build([math.nan], [[None]], HistogramBasis(A, 1)), DataError),
    (lambda: HawkesParams.build([0.5], [[[math.inf]]], HistogramBasis(A, 1)), DataError),
    (lambda: EventData(dims_K=1, horizon_T=math.nan, times=(np.empty(0),)), DataError),
    (lambda: EventData(dims_K=1, horizon_T=math.inf, times=(np.empty(0),)), DataError),
    (lambda: GaussianPrior(mean=[math.nan, 0.0], cov=np.eye(2)), ConfigError),
    (lambda: GaussianPrior(mean=np.zeros(2), cov=np.diag([1.0, math.nan])), ConfigError),
], ids=["link_theta_nan", "link_eta_inf", "basis_memory_inf", "params_nu_nan",
        "params_weight_inf", "events_horizon_nan", "events_horizon_inf",
        "prior_mean_nan", "prior_cov_nan"])
def test_domain_types_reject_non_finite_values(build, error):
    with pytest.raises(error, match="finite"):
        build()


@pytest.mark.parametrize("run", [
    lambda: GaussianPrior.isotropic(11),
    lambda: QuadratureGrid.build(1.0, 101),
    lambda: QuadratureGrid.default(10.0, fx.MEMORY_A),
    lambda: enumerate_submodels(5, 1),
    lambda: check_latent_candidates(fx.SIM_LINK, 10.0),
    lambda: simulate(SimConfig(params=fx.excitation_1d(), link=fx.SIM_LINK, horizon_T=10.0)),
], ids=["prior_entries", "quadrature_nodes", "default_quadrature", "candidates",
        "gibbs_latent", "thinning"])
def test_every_cap_is_the_one_check_points(run, monkeypatch):
    # 121 entries, 101 or 500 nodes, 320 candidates, theta T = 200 and
    # K theta (T + A) = 202 thinning candidates: each past a cap of 100 only
    # if its site reads core.MAX_POINTS through core.check_points
    monkeypatch.setattr(core, "MAX_POINTS", 100)
    with pytest.raises(ConfigError, match="is more than the 1e\\+02 .*allowed"):
        run()


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
        for x in np.linspace(-1e4, 1e4, 1001).tolist():
            assert 0.0 <= link(x) <= 20.0

    @given(st.sampled_from(["sigmoid", "relu", "softplus"]),
           st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=60, deadline=None, derandomize=True)
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
        np.testing.assert_allclose(linear_drive(p, ev, 0, [0.3, 0.7]), [10.0, 10.0])

    def test_single_bin_value(self):
        basis = HistogramBasis(A, 1)
        p = HawkesParams.build([1.0], [[np.array([0.3])]], basis)
        t = 0.6
        ev = _events([t - A / 2], 1.0)
        assert linear_drive(p, ev, 0, [t])[0] == pytest.approx(1.0 + 0.3 / A)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        basis = HistogramBasis(A, 4)
        p = HawkesParams.build([2.0], [[np.array([0.3, -0.1, 0.2, 0.05])]], basis)
        times = np.sort(rng.uniform(0.0, 0.5, size=5))
        ev = _events(times, 1.0)
        ts = rng.uniform(0.0, 1.0, size=20)
        np.testing.assert_allclose(linear_drive(p, ev, 0, ts),
                                   [_brute_drive(p, ev, 0, t) for t in ts], rtol=1e-12)

    def test_support_open_at_zero_closed_at_memory(self):
        # dyadic memory and times keep every lag exact: an event at lag 0
        # adds nothing, one at lag A still adds its last bin
        basis = HistogramBasis(0.25, 4)
        p = HawkesParams.build([1.0], [[np.array([0.5, 0.25, 0.125, 2.0])]], basis)
        ev = _events([0.5, 0.75], 1.0)
        ts = np.array([0.75, 0.5, 1.0])
        want = [_brute_drive(p, ev, 0, t) for t in ts]
        assert want == [1.0 + 2.0 * 16.0, 1.0, 1.0 + 2.0 * 16.0]
        np.testing.assert_array_equal(linear_drive(p, ev, 0, ts), want)

    def test_domain_error(self):
        basis = HistogramBasis(A, 1)
        p = HawkesParams.build([1.0], [[None]], basis)
        ev = _events([0.5], 1.0)
        with pytest.raises(DomainError):
            linear_drive(p, ev, 0, [0.5, 1.5])
        with pytest.raises(DomainError):
            linear_drive(p, ev, 0, [-0.1])

    def test_piecewise_constant_between_breakpoints(self):
        rng = np.random.default_rng(1)
        basis = HistogramBasis(A, 4)
        p = HawkesParams.build([1.0], [[np.array([0.2, 0.1, -0.1, 0.05])]], basis)
        ev = _events(np.sort(rng.uniform(0.0, 0.8, 6)), 1.0)
        pts = segment_points(ev, p.basis[0], [0])
        for left, right in zip(pts[:-1], pts[1:]):
            qs = left + (right - left) * np.array([0.25, 0.5, 0.75])
            vals = linear_drive(p, ev, 0, qs)
            assert max(vals) - min(vals) < 1e-12


class TestSegmentTable:
    """Breakpoints and distinct count columns against feature_matrix itself."""

    @staticmethod
    def _two_dims(seed, n=40, horizon=2.0):
        rng = np.random.default_rng(seed)
        times = np.sort(rng.uniform(-A, horizon, size=n))
        return _events(times, horizon, dims=2, dim_of=rng.integers(0, 2, size=n))

    def test_widths_sum_to_the_horizon(self):
        ev = self._two_dims(4)
        pts = segment_points(ev, HistogramBasis(A, 4), [0, 1])
        assert pts[0] == 0.0 and pts[-1] == ev.horizon_T
        assert np.all(np.diff(pts) > 0.0)
        assert np.diff(pts).sum() == pytest.approx(ev.horizon_T, rel=1e-12)

    @pytest.mark.parametrize("j_bins, sources", [(1, [0]), (4, [0, 1]), (8, [1])])
    def test_segment_column_is_the_count_at_any_interior_point(self, j_bins, sources):
        rng = np.random.default_rng(6)
        ev = self._two_dims(6)
        basis = HistogramBasis(A, j_bins)
        pts = segment_points(ev, basis, sources)
        cols, inverse = distinct_columns(
            feature_matrix(ev, basis, sources, 0.5 * (pts[:-1] + pts[1:])))
        inside = pts[:-1] + rng.uniform(0.01, 0.99, size=pts.size - 1) * np.diff(pts)
        np.testing.assert_array_equal(cols[:, inverse],
                                      feature_matrix(ev, basis, sources, inside))

    def test_multiplicities_sum_to_the_events(self):
        ev = self._two_dims(7, n=200)
        basis = HistogramBasis(A, 4)
        own = ev.times[0][ev.times[0] >= 0.0]
        counts = feature_matrix(ev, basis, [0, 1], own)
        cols, inverse = distinct_columns(counts)
        mult = np.bincount(inverse, minlength=cols.shape[1])
        assert np.all(mult > 0) and mult.sum() == own.size
        np.testing.assert_array_equal(cols[:, inverse], counts)

    @pytest.mark.parametrize("burst, dtype", [(0, np.uint8), (300, np.uint16)])
    def test_columns_match_a_unique_by_column_reference(self, burst, dtype):
        rng = np.random.default_rng(8)
        basis = HistogramBasis(A, 4)
        # a burst of more than 255 events within A/4 widens the table to uint16
        burst_times = 0.452 + np.arange(burst) * (0.02 / max(burst, 1))
        times = np.concatenate([np.sort(rng.uniform(0.0, 0.45, size=60)), burst_times])
        ev = _events(times, 1.0, dims=2, dim_of=[0] * 60 + [1] * burst)
        counts = feature_matrix(ev, basis, [0, 1], rng.uniform(0.0, 1.0, size=3000))
        assert counts.dtype == dtype
        cols, inverse = distinct_columns(counts)
        assert cols.dtype == dtype
        np.testing.assert_array_equal(cols[:, np.lexsort(cols[::-1])],
                                      np.unique(counts, axis=1))
        np.testing.assert_array_equal(cols[:, inverse], counts)

    def test_empty_table(self):
        cols, inverse = distinct_columns(np.ones((5, 0), dtype=np.uint8))
        assert cols.shape == (5, 0) and inverse.shape == (0,)

    @pytest.mark.parametrize("rows, top, dtype", [(5, 6, np.uint8), (5, 300, np.uint16),
                                                  (20, 200, np.uint8)],
                             ids=["packed", "packed_uint16", "byte_record"])
    def test_columns_come_in_the_order_of_their_bytes(self, rows, top, dtype):
        # keys packed into 64 bits, and the byte-record keys of a table whose
        # varying bytes need more, both order columns as their bytes do
        rng = np.random.default_rng(rows)
        counts = rng.integers(0, top, size=(rows, 4000)).astype(dtype)
        counts[0] = 1
        counts[:, 2000:] = counts[:, :2000]  # every column twice
        cols, inverse = distinct_columns(counts)
        table = np.ascontiguousarray(counts.T)
        records = table.view(np.dtype((np.void, table.shape[1] * table.itemsize))).ravel()
        _, first = np.unique(records, return_index=True)
        np.testing.assert_array_equal(cols, counts[:, first])
        np.testing.assert_array_equal(cols[:, inverse], counts)

    def test_adjacent_segments_of_one_column_merge_into_one_run(self):
        pts = np.array([0.0, 0.1, 0.3, 0.6, 1.0])
        widths = core.segment_widths(np.array([0, 0, 1, 0]), pts, 2)
        assert widths.tolist() == [(0.3 - 0.0) + (1.0 - 0.6), 0.6 - 0.3]


class TestMergeCount:
    """``feature_matrix`` against its frozen searchsorted copy: values and dtype."""

    @staticmethod
    def _check(events, basis, sources, times):
        got = feature_matrix(events, basis, sources, times)
        want = _searchsorted_feature_matrix(events, basis, sources, times)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        return got

    @pytest.mark.parametrize("j_bins", [1, 2, 4, 8])
    def test_unsorted_sorted_and_repeated_points(self, j_bins):
        rng = np.random.default_rng(10)
        ev = TestSegmentTable._two_dims(10, n=120)
        times = rng.uniform(0.0, 2.0, size=300)
        times = np.concatenate([times, times[:50], times[:7]])
        rng.shuffle(times)
        self._check(ev, HistogramBasis(A, j_bins), [0, 1], times)
        self._check(ev, HistogramBasis(A, j_bins), [0, 1], np.sort(times))  # no scatter

    @pytest.mark.parametrize("memory", [0.5, A])
    def test_points_on_the_bin_edges(self, memory):
        # every s + jA/J, the edges where a lag leaves one bin for the next
        ev = TestSegmentTable._two_dims(11, n=30)
        basis = HistogramBasis(memory, 4)
        src = np.concatenate(ev.times)
        edges = (src[:, None] + np.arange(5) * basis.bin_width).ravel()
        counts = self._check(ev, basis, [1, 0], edges)
        assert counts[1:].any()

    def test_points_before_the_first_event_and_after_the_last(self):
        ev = _events([0.3, 0.32, 0.35, 0.6], 1.0)
        times = np.array([-1.0, 0.0, 0.3, 0.95, 1.0, 5.0, -0.2])
        counts = self._check(ev, HistogramBasis(A, 2), [0], times)
        np.testing.assert_array_equal(counts[1:, [0, 1, 3, 4, 5, 6]], 0)

    def test_empty_source(self):
        ev = _events([0.2, 0.4], 1.0, dims=2, dim_of=[0, 0])
        counts = self._check(ev, HistogramBasis(A, 4), [1, 0, 1], [0.25, 0.1, 0.45])
        assert counts.shape == (13, 3) and not counts[1:5].any()

    @pytest.mark.parametrize("burst, dtype", [(255, np.uint8), (256, np.uint16),
                                              (70_000, np.uint32)])
    def test_a_bin_past_255_events_widens_the_type(self, burst, dtype):
        times = np.concatenate([[0.1], 0.452 + np.arange(burst) * (0.02 / burst)])
        ev = _events(times, 1.0, dims=2, dim_of=[0] + [1] * burst)
        counts = self._check(ev, HistogramBasis(A, 4), [0, 1], [0.5, 0.3, 0.5, 0.9])
        assert counts.dtype == dtype and counts[6, 0] == burst


class TestIntensity:
    def test_sigmoid_at_midpoint(self):
        link = LinkFunction("sigmoid", theta=20.0, alpha=0.1, eta=10.0)
        basis = HistogramBasis(A, 1)
        p = HawkesParams.build([10.0], [[None]], basis)
        ev = _events([], 1.0)
        assert link(linear_drive(p, ev, 0, [0.5])[0]) == pytest.approx(10.0)

    def test_relu_default(self):
        link = LinkFunction("relu", theta=1.0, alpha=1.0, eta=0.0, theta_base=0.001)
        basis = HistogramBasis(A, 1)
        p = HawkesParams.build([0.5], [[None]], basis)
        ev = _events([], 1.0)
        assert link(linear_drive(p, ev, 0, [0.5])[0]) == pytest.approx(0.501)

    def test_sigmoid_derived_value(self):
        link = LinkFunction("sigmoid", theta=20.0, alpha=0.1, eta=10.0)
        basis = HistogramBasis(A, 1)
        p = HawkesParams.build([1.0], [[None]], basis)
        ev = _events([], 1.0)
        assert link(linear_drive(p, ev, 0, [0.3])[0]) == pytest.approx(
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
        assert np.array_equal(_features(ev, basis, 0, 0.5), np.zeros(4))

    def test_first_bin_membership(self):
        basis = HistogramBasis(A, 4)
        t = 0.7
        ev = _events([t - A / 8], 1.0)
        np.testing.assert_allclose(_features(ev, basis, 0, t), [4 / A, 0, 0, 0])

    def test_clustered_counts(self):
        rng = np.random.default_rng(2)
        basis = HistogramBasis(A, 4)
        times = np.sort(rng.uniform(0.4, 0.5, size=12))
        ev = _events(times, 1.0)
        t = 0.5 + 0.013
        np.testing.assert_allclose(_features(ev, basis, 0, t),
                                   _brute_features(times, basis, t))

    @given(st.lists(st.floats(0.0, 0.99), min_size=0, max_size=30),
           st.integers(1, 8), st.floats(0.05, 1.0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_sum_identity(self, raw, j_bins, t):
        times = np.unique(np.asarray(raw, float))
        ev = EventData(dims_K=1, horizon_T=1.0, times=(times,))
        basis = HistogramBasis(A, j_bins)
        feats = _features(ev, basis, 0, t)
        window = np.sum((times >= t - A) & (times < t))
        assert (A / j_bins) * feats.sum() == pytest.approx(float(window))

    def test_feature_matrix_stacks_features(self):
        rng = np.random.default_rng(3)
        basis = HistogramBasis(A, 4)
        times = np.sort(rng.uniform(0, 1, size=9))
        ev = _events(times, 1.0, dims=2, dim_of=rng.integers(0, 2, size=9))
        ts = rng.uniform(0, 1, size=5)
        mat = basis.features(feature_matrix(ev, basis, [0, 1], ts))
        assert mat.shape == (9, 5)
        for col, t in enumerate(ts):
            np.testing.assert_allclose(mat[0, col], 1.0)
            np.testing.assert_allclose(mat[1:5, col], _brute_features(ev.times[0], basis, t))
            np.testing.assert_allclose(mat[5:9, col], _brute_features(ev.times[1], basis, t))

    @pytest.mark.parametrize("burst, dtype", [(255, np.uint8), (256, np.uint16),
                                              (300, np.uint16)])
    def test_counts_widen_past_uint8_and_stay_exact(self, burst, dtype):
        # dimension 0's rows are counted before dimension 1's burst, all of
        # whose lags at t = 0.5 fall in bin 2 of 4, (A/4, A/2]
        basis = HistogramBasis(A, 4)
        burst_times = 0.452 + np.arange(burst) * (0.02 / burst)
        times = np.concatenate([[0.41, 0.43, 0.48], burst_times])
        ev = _events(times, 1.0, dims=2, dim_of=[0, 0, 0] + [1] * burst)
        counts = feature_matrix(ev, basis, [0, 1], [0.5])
        assert counts.dtype == dtype
        assert counts[:, 0].tolist() == [1, 1, 0, 1, 1, 0, burst, 0, 0]
        want = np.concatenate([_brute_features(ev.times[l], basis, 0.5) for l in (0, 1)])
        np.testing.assert_array_equal(basis.features(counts)[1:, 0], want)
        assert basis.features(counts)[6, 0] == burst * basis.height
