"""Fixed-model variational inference: updates, ELBO, quadrature, oracles."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

import _fixtures as fx
from hawkes_vb import EventData, HistogramBasis, LinkFunction, SimConfig, core, simulate, vi
from hawkes_vb.adaptive import Model, SubModel, enumerate_submodels
from hawkes_vb.core import feature_matrix
from hawkes_vb.errors import ConfigError, NumericalError, UnsupportedLinkError
from hawkes_vb.pg import pg_mean
from hawkes_vb.vi import (GaussianPrior, QuadratureGrid, _DimensionProblem,
                          cavi_fixed_model, fit_candidates)

LINK = fx.SIM_LINK


def _model(dims, j_bins):
    return Model(graph_delta=np.ones((dims, dims), dtype=np.int8),
                 bins_J=(j_bins,) * dims, memory_A=fx.MEMORY_A)


def _float_features(events, basis, sources, times):
    """Reference features computed directly at J: counts x J/A, row 0 = 1.0."""
    offsets = np.arange(basis.num_bins_J + 1) * (basis.memory_A / basis.num_bins_J)
    rows = [np.ones(times.size)]
    for l in sources:
        idx = np.searchsorted(events.times[l], times[None, :] - offsets[:, None],
                              side="left")
        rows.extend((idx[:-1] - idx[1:]) * basis.height)
    return np.array(rows)


def _per_segment_problem(events, k, submodel, prior):
    """Reference exact problem with no deduplication: a column per own event
    of dimension k and per segment between breakpoints, of its width."""
    basis = HistogramBasis(fx.MEMORY_A, submodel.num_bins)
    pts = core.segment_points(events, basis, submodel.active_sources)
    own = events.times[k][events.times[k] >= 0.0]
    times = np.concatenate([own, 0.5 * (pts[:-1] + pts[1:])])
    feats = _float_features(events, basis, submodel.active_sources, times)
    return _DimensionProblem(feats, own.size, np.diff(pts), LINK, prior, events.horizon_T)


def _node_problem(events, k, submodel, prior, quad):
    """The problem of ``submodel`` for dimension k on the quadrature nodes, counted
    directly: a column per own event, then per node, of its weight."""
    basis = HistogramBasis(fx.MEMORY_A, submodel.num_bins)
    own = events.times[k][events.times[k] >= 0.0]
    counts = feature_matrix(events, basis, submodel.active_sources,
                            np.concatenate([own, quad.points]))
    return _DimensionProblem(basis.features(counts), own.size, quad.weights, LINK, prior,
                             events.horizon_T)


def _fit_problem(task, tasks, events, quad):
    """The problem ``fit_candidates`` fits for ``task`` among ``tasks``."""
    table = vi._task_tables(tasks, events, quad, fx.MEMORY_A)[task[:2]]
    return vi._problem(task, table, fx.MEMORY_A, LINK, events.horizon_T)


def _count_tables(monkeypatch):
    """The list that every later ``vi.feature_matrix`` call appends its arguments to."""
    calls, build = [], vi.feature_matrix
    monkeypatch.setattr(vi, "feature_matrix", lambda *a: calls.append(a) or build(*a))
    return calls


def _empty_events(dims=1):
    return EventData(dims_K=dims, horizon_T=0.0,
                     times=tuple(np.array([]) for _ in range(dims)))


class TestQuadratureGrid:
    def test_weights_sum_to_horizon(self):
        for n in (7, 100, 5000):
            g = QuadratureGrid.build(37.5, n)
            assert g.weights.sum() == pytest.approx(37.5, rel=1e-12)
            assert g.points.min() > 0.0 and g.points.max() < 37.5

    def test_single_rule_integrates_polynomials_exactly(self):
        g = QuadratureGrid.build(2.0, 8)
        for p in range(12):  # one 10-node Gauss panel: exact through degree 19
            val = float(g.weights @ g.points**p)
            assert val == pytest.approx(2.0 ** (p + 1) / (p + 1), rel=1e-10)

    @pytest.mark.parametrize("n", [1, 7, 10, 11, 105])
    def test_node_count_is_whole_panels(self, n):
        assert QuadratureGrid.build(3.0, n).n_gq == 10 * math.ceil(n / 10)

    def test_composite_rule_integrates_smooth_functions(self):
        g = QuadratureGrid.build(10.0, 500)
        val = float(g.weights @ np.sin(g.points))
        assert val == pytest.approx(1.0 - math.cos(10.0), rel=1e-10)

    def test_default_resolution_rule(self):
        # 2.5 nodes per memory length, in whole panels, and at least 100
        assert QuadratureGrid.default(500.0, 0.1).n_gq == 12500
        assert QuadratureGrid.default(41.0, 0.1).n_gq == 1030
        assert QuadratureGrid.default(3.0, 0.1).n_gq == 100
        with pytest.raises(ConfigError, match=r"2\.5 horizon_T / memory_A"):
            QuadratureGrid.default(1e12, 0.1)

    @pytest.mark.parametrize("horizon", [1e12, 1e300])
    def test_more_nodes_than_the_cap_is_config_error(self, horizon):
        with pytest.raises(ConfigError, match="allowed"):
            QuadratureGrid.default(horizon, 0.1)
        with pytest.raises(ConfigError, match="allowed"):
            QuadratureGrid.build(1.0, core.MAX_POINTS + 1)


class TestCaviFixedModel:
    def test_no_data_returns_prior_exactly(self):
        prior = [GaussianPrior.isotropic(2, 5.0)]
        posts = cavi_fixed_model(_empty_events(), _model(1, 1), LINK, prior,
                                 QuadratureGrid.build(0.0, 0))
        np.testing.assert_array_equal(posts[0].mean, prior[0].mean)
        np.testing.assert_allclose(posts[0].cov, prior[0].cov, rtol=1e-12)
        assert posts[0].elbo == pytest.approx(0.0, abs=1e-10)

    def test_non_sigmoid_rejected(self, monkeypatch):
        tables = _count_tables(monkeypatch)
        relu = LinkFunction("relu", theta=1.0, alpha=1.0, eta=0.0)
        with pytest.raises(UnsupportedLinkError):
            cavi_fixed_model(_empty_events(), _model(1, 1), relu,
                             [GaussianPrior.isotropic(2)],
                             QuadratureGrid.build(0.0, 0))
        assert tables == []  # refused before the features are counted

    def test_prior_of_the_wrong_size_is_config_error(self, monkeypatch):
        tables = _count_tables(monkeypatch)
        with pytest.raises(ConfigError, match="prior dimension 3"):
            cavi_fixed_model(_empty_events(), _model(1, 1), LINK,
                             [GaussianPrior.isotropic(3)], QuadratureGrid.build(0.0, 0))
        assert tables == []

    def test_fixed_point_self_consistency(self):
        # three events, two parameters: polish to a parameter-level fixed
        # point, then one extra update moves the factor by less than 1e-8
        ev = EventData(dims_K=1, horizon_T=2.0,
                       times=(np.array([0.31, 0.55, 1.2]),))
        quad = QuadratureGrid.default(2.0, fx.MEMORY_A)
        prior = [GaussianPrior.isotropic(2, 5.0)]
        posts = cavi_fixed_model(ev, _model(1, 1), LINK, prior, quad,
                                 max_iter=500, tol=1e-14)
        problem = _node_problem(ev, 0, _model(1, 1).submodel(0), prior[0], quad)
        mean, cov = posts[0].mean, posts[0].cov
        for _ in range(5000):
            new_mean, new_cov = problem.update(problem.moments(mean, cov))
            step = max(np.max(np.abs(new_mean - mean)), np.max(np.abs(new_cov - cov)))
            mean, cov = new_mean, new_cov
            if step < 1e-12:
                break
        assert step < 1e-12
        mean2, cov2 = problem.update(problem.moments(mean, cov))
        assert np.max(np.abs(mean2 - mean)) < 1e-8
        assert np.max(np.abs(cov2 - cov)) < 1e-8

    def test_elbo_trace_monotone(self):
        ev = simulate(SimConfig(params=fx.excitation_1d(), link=LINK,
                                horizon_T=60.0, seed=2))
        posts = cavi_fixed_model(ev, _model(1, 4), LINK,
                                 [GaussianPrior.isotropic(5, 5.0)],
                                 QuadratureGrid.default(60.0, fx.MEMORY_A),
                                 tol=1e-10)
        tr = np.asarray(posts[0].elbo_trace)
        assert np.all(np.diff(tr) >= -1e-6 * np.abs(tr[:-1]))

    def test_dimension_independence_bitwise(self):
        truth = fx.sparse_truth(2)
        ev = simulate(SimConfig(params=truth, link=LINK, horizon_T=40.0, seed=4))
        quad = QuadratureGrid.default(40.0, fx.MEMORY_A)
        priors = [GaussianPrior.isotropic(5, 5.0), GaussianPrior.isotropic(5, 5.0)]
        model = _model(2, 2)
        joint = cavi_fixed_model(ev, model, LINK, priors, quad)
        for k in range(2):
            # dimension k alone: one task, on tables of its own
            (solo,) = fit_candidates([(k, model.submodel(k), priors[k])], ev, quad,
                                     fx.MEMORY_A, LINK, 100, 1e-3)
            np.testing.assert_array_equal(joint[k].mean, solo.mean)
            np.testing.assert_array_equal(joint[k].cov, solo.cov)
            assert joint[k].elbo == solo.elbo

    def test_quadrature_doubling_stability(self):
        # the piecewise-constant integrand limits the composite rule to
        # first-order convergence, so the 1e-4 doubling criterion is
        # checked past the knee (panel width well under one bin); the fits
        # run on the nodes, which ``fit_candidates`` would replace by the
        # fewer segment columns, and the exact fit meets the same criterion
        ev = simulate(SimConfig(params=fx.excitation_1d(), link=LINK,
                                horizon_T=50.0, seed=6))
        task = (0, _model(1, 4).submodel(0), GaussianPrior.isotropic(5, 5.0))
        out = []
        for n in (40_000, 80_000):
            problem = _node_problem(ev, *task, QuadratureGrid.build(50.0, n))
            out.append(vi._fit_dimension(problem, 300, 1e-10).mean)
        exact = cavi_fixed_model(ev, _model(1, 4), LINK, [task[2]],
                                 QuadratureGrid.default(50.0, fx.MEMORY_A), tol=1e-10,
                                 max_iter=300)[0].mean
        for mean in (out[0], exact):
            assert np.max(np.abs(out[1] - mean)) / np.max(np.abs(out[1])) < 1e-4

    def test_threaded_equals_serial(self):
        truth = fx.sparse_truth(2)
        ev = simulate(SimConfig(params=truth, link=LINK, horizon_T=30.0, seed=7))
        quad = QuadratureGrid.default(30.0, fx.MEMORY_A)
        priors = [GaussianPrior.isotropic(5, 5.0)] * 2
        serial = cavi_fixed_model(ev, _model(2, 2), LINK, priors, quad, threads=1)
        threaded = cavi_fixed_model(ev, _model(2, 2), LINK, priors, quad, threads=2)
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a.mean, b.mean)

    def test_singular_prior_fails_cleanly(self):
        with pytest.raises(NumericalError):
            bad = GaussianPrior(mean=np.zeros(2), cov=np.zeros((2, 2)))
            cavi_fixed_model(_empty_events(), _model(1, 1), LINK, [bad],
                             QuadratureGrid.build(0.0, 0))

    def test_non_finite_elbo_stops_the_fit_at_once(self):
        # a prior mean of 1e300 overflows the tilts: the first ELBO is -inf
        ev = EventData(dims_K=1, horizon_T=2.0, times=(np.array([0.31, 0.55, 1.2]),))
        with pytest.raises(NumericalError, match="after 0 CAVI iterations"):
            cavi_fixed_model(ev, _model(1, 2), LINK,
                             [GaussianPrior.isotropic(3, 5.0, mean=1e300)],
                             QuadratureGrid.default(2.0, fx.MEMORY_A), max_iter=5)

    def test_dimension_without_events_matches_pinned_fit(self):
        # dimension 1 has no events of its own: it has no event columns, and
        # two segment columns (no event of dimension 0 within A, or one), of
        # widths 1.6 and 0.4
        ev = EventData(dims_K=2, horizon_T=2.0,
                       times=(np.array([0.31, 0.55, 1.2, 1.6]), np.array([])))
        prior = GaussianPrior.isotropic(3, 5.0)
        post = cavi_fixed_model(ev, _model(2, 1), LINK, [prior] * 2,
                                QuadratureGrid.default(2.0, fx.MEMORY_A),
                                max_iter=4, tol=1e-14)[1]
        ref = vi._fit_dimension(_per_segment_problem(ev, 1, _model(2, 1).submodel(1), prior),
                                4, 1e-14)
        np.testing.assert_allclose(post.mean, ref.mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(post.cov, ref.cov, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(post.elbo_trace, ref.elbo_trace, rtol=1e-10)
        np.testing.assert_allclose(
            post.mean, [-5.446365648148267, -0.3778740881790285, 0.0],
            rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(post.cov.ravel(), [
            4.524357423054798, -0.44770265526247094, 0.0,
            -0.44770265526247094, 0.30583556931870676, 0.0,
            0.0, 0.0, 25.0], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(post.elbo_trace, [
            -17.090815769019123, -6.328469035613907, -5.682723435935486,
            -5.415466686491953, -5.2810168346887565], rtol=1e-12, atol=1e-12)


class TestFeatureCache:
    """The count tables of ``fit_candidates``' set-up (``vi._task_tables``)."""

    def test_stack_places_each_source_at_its_block(self):
        ev = simulate(SimConfig(params=fx.sparse_truth(3), link=LINK, horizon_T=5.0,
                                seed=1))
        quad = QuadratureGrid.build(5.0, 30)
        sm = SubModel(column=(1, 0, 1), depth=1)
        task = (2, sm, GaussianPrior.isotropic(sm.param_dim, 5.0))
        problem = _fit_problem(task, [task], ev, quad)
        stacked, n = problem.feats, problem.n_events
        e, q = stacked[:, :n], stacked[:, n:]
        basis = HistogramBasis(fx.MEMORY_A, 2)
        own = ev.times[2][ev.times[2] >= 0.0]
        assert own.size > 0
        for feats, times in ((e, own), (q, quad.points)):
            assert feats.shape == (sm.param_dim, times.size)
            np.testing.assert_array_equal(feats[0], 1.0)
            for l in sm.active_sources:
                one = basis.features(feature_matrix(ev, basis, [l], times))
                np.testing.assert_array_equal(feats[sm.block(l)], one[1:])
            np.testing.assert_array_equal(
                feats, basis.features(feature_matrix(ev, basis, [0, 2], times)))

    def test_table_is_read_only(self):
        ev = EventData(dims_K=1, horizon_T=2.0, times=(np.array([0.3, 1.1]),))
        tasks = [(0, SubModel(column=(1,), depth=d), None) for d in (0, 1)]
        tables = vi._task_tables(tasks, ev, QuadratureGrid.build(2.0, 10), fx.MEMORY_A)
        # neither event has an earlier one within A: one distinct event column
        assert [tables[task[:2]][0].shape for task in tasks] == [(2, 1), (3, 1)]
        for table in tables.values():
            for counts in (table[0], table[2]):  # the event and compensator counts
                with pytest.raises(ValueError, match="read-only"):
                    counts[1, 0] = 7

    @pytest.mark.parametrize("memory", [0.5, fx.MEMORY_A])
    @pytest.mark.parametrize("finest", [1, 2, 4, 8])
    def test_stack_equals_the_float_features_at_each_size_bitwise(self, memory, finest):
        # events and all but 20 random points on a grid of A/8 (exact when
        # A = 0.5), so lags fall on the bin edges j A/J of every size, A among
        # them.  The points are the own events of dimension 2, which sends
        # nothing; two nodes, not fewer than the distinct columns of either
        # column at depth 0, keep every depth on the nodes
        step = memory / 8
        grid = np.arange(-8, 33)
        off_grid = np.random.default_rng(4).uniform(0, 32 * step, 20)
        points = np.sort(np.concatenate([np.arange(2, 33, 3) * step, off_grid]))
        ev = EventData(dims_K=3, horizon_T=32 * step, times=(
            grid[grid % 3 == 0] * step, grid[grid % 3 == 1] * step, points))
        nodes = np.array([16 * step, off_grid[0]])
        quad = QuadratureGrid(points=nodes, weights=np.full(nodes.size, 16 * step))
        columns, depths = ((1, 1, 0), (0, 1, 0)), range(finest.bit_length())
        subs = [SubModel(column=column, depth=d) for column in columns for d in depths]
        tasks = [(k, sm, GaussianPrior.isotropic(sm.param_dim)) for k in range(3)
                 for sm in subs]
        tables = vi._task_tables(tasks, ev, quad, memory)
        problems = {task[:2]: vi._problem(task, tables[task[:2]], memory, LINK,
                                          ev.horizon_T) for task in tasks}
        for depth in depths:
            basis = HistogramBasis(memory, 2 ** depth)
            for column in columns:
                sm = SubModel(column=column, depth=depth)
                for k in range(3):
                    feats, n = problems[(k, sm)].feats, problems[(k, sm)].n_events
                    own = ev.times[k][ev.times[k] >= 0.0]
                    want = _float_features(ev, basis, sm.active_sources,
                                           np.concatenate([own, nodes]))
                    assert n == own.size
                    np.testing.assert_array_equal(feats.view(np.uint64),
                                                  want.view(np.uint64))

    def test_build_peak_is_under_a_quarter_of_the_float_tables(self):
        ev = simulate(SimConfig(params=fx.sparse_truth(10), link=LINK, horizon_T=50.0,
                                seed=1))
        quad = QuadratureGrid.default(50.0, fx.MEMORY_A)
        tasks = [(k, SubModel(column=(1,) * 10, depth=d), None) for k in range(10)
                 for d in range(3)]
        # what one float64 table per size J = 1, 2, 4 took
        float_bytes = sum((1 + 10 * j) * (ev.total() + quad.n_gq) * 8 for j in (1, 2, 4))
        tracemalloc.start()
        try:
            vi._task_tables(tasks, ev, quad, fx.MEMORY_A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < float_bytes / 4

    def test_caller_builds_the_finest_table_once_before_the_pool(self, monkeypatch):
        ev = simulate(SimConfig(params=fx.sparse_truth(3), link=LINK, horizon_T=5.0,
                                seed=1))
        own = [t[t >= 0.0] for t in ev.times]
        assert len({t.tobytes() for t in own}) == 3 and all(t.size for t in own)
        quad = QuadratureGrid.build(5.0, 30)
        subs = [SubModel(column=column, depth=d) for column in ((1, 1, 1), (0, 1, 1))
                for d in range(2)]
        tasks = [(k, sm, GaussianPrior.isotropic(sm.param_dim, 5.0))
                 for k in range(3) for sm in subs]
        expected = {}
        for k, sm, prior in tasks:  # each job counted on its own
            problem = _node_problem(ev, k, sm, prior, quad)
            expected[(sm, k)] = problem.feats, problem.n_events

        log, stacked, lock = [], {}, threading.Lock()
        build, fit, make = vi.feature_matrix, vi._fit_dimension, vi._problem

        def counting(events, basis, sources, times):
            with lock:
                log.append(("table", threading.get_ident(), tuple(sources),
                            basis.num_bins_J, np.asarray(times).tobytes()))
            return build(events, basis, sources, times)

        def fitting(problem, *args):
            with lock:
                log.append(("fit", threading.get_ident()))
            return fit(problem, *args)

        def recording(task, *args):
            problem = make(task, *args)
            with lock:
                stacked[(task[1], task[0])] = problem.feats, problem.n_events
            return problem

        monkeypatch.setattr(vi, "feature_matrix", counting)
        monkeypatch.setattr(vi, "_fit_dimension", fitting)
        monkeypatch.setattr(vi, "_problem", recording)
        posts = fit_candidates(tasks, ev, quad, fx.MEMORY_A, LINK, 3, 1e-3, threads=4)
        assert len(posts) == len(tasks)
        # the set-up counts each column at depth 0, in the calling thread:
        # both have more segments than the 30 nodes, and more distinct columns
        # too, so every depth keeps the nodes.  It then counts each column once
        # at its finest depth, at every own event and then every node; the
        # complete column's table holds every source.  The workers only fit
        caller, points = threading.get_ident(), np.concatenate(own + [quad.points])
        counted = [entry for entry in log if entry[0] == "table"]
        assert [entry[:4] for entry in counted] == [
            ("table", caller, (0, 1, 2), 1), ("table", caller, (0, 1, 2), 2),
            ("table", caller, (1, 2), 1), ("table", caller, (1, 2), 2)]
        assert counted[1][4] == counted[3][4] == points.tobytes()
        assert [entry[0] for entry in log[len(counted):]] == ["fit"] * len(tasks)
        assert stacked.keys() == expected.keys()
        for job, (feats, n) in stacked.items():
            ref_feats, ref_n = expected[job]
            assert n == ref_n
            np.testing.assert_array_equal(feats, ref_feats)

    def test_wrong_prior_in_the_last_task_fails_before_any_fit(self, monkeypatch):
        ev = EventData(dims_K=2, horizon_T=2.0,
                       times=(np.array([0.31, 0.55, 1.2]), np.array([0.4, 1.6])))
        sm = SubModel(column=(1, 1), depth=1)
        tasks = [(k, sm, GaussianPrior.isotropic(sm.param_dim, 5.0)) for k in range(2)]
        tasks.append((1, SubModel(column=(1, 1), depth=2), GaussianPrior.isotropic(5, 5.0)))
        monkeypatch.setattr(vi, "feature_matrix",
                            lambda *a: pytest.fail("a feature table was built"))
        monkeypatch.setattr(vi, "_fit_dimension", lambda *a: pytest.fail("a fit ran"))
        with pytest.raises(ConfigError, match="prior dimension 5 of dimension 1"):
            fit_candidates(tasks, ev, QuadratureGrid.default(2.0, fx.MEMORY_A), fx.MEMORY_A,
                           LINK, 5, 1e-3, threads=1)


class TestExactIntegration:
    """Sub-models on their distinct segment columns instead of the nodes."""

    @staticmethod
    def _data(seed=3, horizon=20.0):
        return simulate(SimConfig(params=fx.sparse_truth(2), link=LINK, horizon_T=horizon,
                                  seed=seed))

    def test_elbo_and_update_equal_the_per_segment_problem(self):
        ev = self._data()
        quad = QuadratureGrid.default(20.0, fx.MEMORY_A)
        for k, column in ((0, (1, 0)), (1, (1, 1))):
            sm = SubModel(column=column, depth=1)
            task = (k, sm, GaussianPrior.isotropic(sm.param_dim, 5.0))
            exact = _fit_problem(task, [task], ev, quad)
            ref = _per_segment_problem(ev, k, sm, task[2])
            # distinct columns: fewer than the segments and the events
            assert exact.feats.shape[1] < ref.feats.shape[1] / 4
            mean = np.random.default_rng(k).normal(size=sm.param_dim)
            mean[0] += 3.0
            cov = 0.02 * np.eye(sm.param_dim) + 0.005
            want = ref.elbo(mean, cov, ref.moments(mean, cov))
            got = exact.elbo(mean, cov, exact.moments(mean, cov))
            assert abs(got - want) <= 1e-10 * abs(want)
            for a, b in zip(exact.update(exact.moments(mean, cov)),
                            ref.update(ref.moments(mean, cov))):
                np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_exact_fit_counts_no_node_table(self, monkeypatch):
        # the one column integrates exactly: one table, at the own events and
        # then the segment midpoints, and none at the nodes
        ev = EventData(dims_K=1, horizon_T=2.0, times=(np.array([0.31, 0.55, 1.2, 1.6]),))
        tables = _count_tables(monkeypatch)
        cavi_fixed_model(ev, _model(1, 1), LINK, [GaussianPrior.isotropic(2, 5.0)],
                         QuadratureGrid.default(2.0, fx.MEMORY_A), max_iter=4)
        pts = core.segment_points(ev, HistogramBasis(fx.MEMORY_A, 1), [0])
        assert len(tables) == 1
        np.testing.assert_array_equal(
            tables[0][3], np.concatenate([ev.times[0], 0.5 * (pts[:-1] + pts[1:])]))

    def test_exact_fit_is_closer_to_a_fine_quadrature_than_five_nodes_per_memory(self):
        ev = self._data(seed=5, horizon=30.0)
        model = Model(graph_delta=fx.sparse_truth(2).graph(), bins_J=(2, 2),
                      memory_A=fx.MEMORY_A)
        priors = [GaussianPrior.isotropic(model.submodel(k).param_dim, 5.0)
                  for k in range(2)]
        quad = QuadratureGrid.build(30.0, 1500)  # 5 T/A
        exact = cavi_fixed_model(ev, model, LINK, priors, quad, tol=1e-10, max_iter=300)
        fine = QuadratureGrid.build(30.0, 200 * 300)
        for k in range(2):
            task = (k, model.submodel(k), priors[k])
            ref, five = (vi._fit_dimension(_node_problem(ev, *task, nodes), 300, 1e-10)
                         for nodes in (fine, quad))
            assert abs(exact[k].elbo - ref.elbo) < abs(five.elbo - ref.elbo)
            assert (np.max(np.abs(exact[k].mean - ref.mean))
                    < np.max(np.abs(five.mean - ref.mean)))

    @pytest.mark.parametrize("column", [(1, 0), (1, 1)])
    def test_rungs_summed_from_the_finest_table_equal_tables_counted_directly(self, column):
        # 5 nodes per memory length, so that both columns integrate exactly
        ev, quad = self._data(), QuadratureGrid.build(20.0, 1000)
        rungs = [(0, SubModel(column=column, depth=d), None) for d in range(3)]
        tables = vi._task_tables(rungs, ev, quad, fx.MEMORY_A)
        ladder = {sm.depth: table[2:] for (_, sm), table in tables.items()
                  if table[3] is not quad.weights}  # on the segments
        assert sorted(ladder) == [0, 1, 2]
        for depth, (cols, widths) in ladder.items():
            direct_cols, direct_widths = vi._task_tables([rungs[depth]], ev, quad,
                                                         fx.MEMORY_A)[rungs[depth][:2]][2:]
            np.testing.assert_array_equal(cols, direct_cols)  # values, in the same order
            np.testing.assert_array_equal(widths.view(np.uint64),
                                          direct_widths.view(np.uint64))

    def test_widths_sum_to_the_horizon_and_multiplicities_to_the_events(self):
        ev = self._data()
        # 5 nodes per memory length, so that every column integrates exactly
        quad = QuadratureGrid.build(20.0, 1000)
        tasks = [(k, sm, None) for k in range(2) for sm in enumerate_submodels(2, 2)]
        tables = vi._task_tables(tasks, ev, quad, fx.MEMORY_A)
        assert sum(table[3] is not quad.weights for table in tables.values()) == len(tasks)
        for (k, sm), (events, mult, segments, widths) in tables.items():
            assert events.shape[0] == segments.shape[0] == sm.param_dim
            assert mult.sum() == np.count_nonzero(ev.times[k] >= 0.0)
            assert np.all(mult > 0) and np.all(widths > 0.0)
            assert widths.sum() == pytest.approx(20.0, rel=1e-12)

    def test_exact_fit_is_the_same_at_either_node_density(self):
        # the sparse column (1, 0) has 6 / 19 / 86 distinct segment columns at
        # depths 0-2, fewer than the 500 and the 1,000 nodes of 2.5 and of 5
        # nodes per memory length: its fits never read the nodes
        ev = self._data()
        quads = [QuadratureGrid.default(20.0, fx.MEMORY_A),
                 QuadratureGrid.build(20.0, 1000)]
        assert [quad.n_gq for quad in quads] == [500, 1000]
        tasks = [(k, sm, GaussianPrior.isotropic(sm.param_dim, 5.0)) for k in range(2)
                 for sm in (SubModel(column=(1, 0), depth=d) for d in range(3))]
        for quad in quads:
            tables = vi._task_tables(tasks, ev, quad, fx.MEMORY_A).values()
            assert sum(table[3] is not quad.weights for table in tables) == len(tasks)
        coarse, fine = (fit_candidates(tasks, ev, quad, fx.MEMORY_A, LINK, 50, 1e-6,
                                       threads=1)
                        for quad in quads)
        for a, b in zip(coarse, fine):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.cov, b.cov)
            assert a.elbo_trace == b.elbo_trace
        # on the nodes, the same fit differs between the two densities
        on_nodes = [vi._fit_dimension(_node_problem(ev, *tasks[0], quad), 50, 1e-6)
                    for quad in quads]
        assert on_nodes[0].elbo_trace != on_nodes[1].elbo_trace

    def test_column_not_fewer_than_the_nodes_at_depth_0_keeps_them_everywhere(self,
                                                                             monkeypatch):
        ev, quad = self._data(), QuadratureGrid.build(20.0, 20)
        tables = _count_tables(monkeypatch)
        sm = [SubModel(column=(1, 1), depth=d) for d in range(3)]
        tasks = [(k, s, GaussianPrior.isotropic(s.param_dim, 5.0)) for k in range(2)
                 for s in sm]
        assert all(table[3] is quad.weights
                   for table in vi._task_tables(tasks, ev, quad, fx.MEMORY_A).values())
        # one table at depth 0 (J = 1) to decide, then one at the finest depth,
        # at both dimensions' events and the nodes, shared by every task
        assert [(tuple(sources), basis.num_bins_J) for _, basis, sources, _ in tables] == [
            ((0, 1), 1), ((0, 1), 4)]
        # each ladder's first rung, which starts cold, is the fit on the nodes
        posts = fit_candidates(tasks, ev, quad, fx.MEMORY_A, LINK, 5, 1e-3, threads=1)
        for task, post in zip(tasks[::3], posts[::3]):
            cold = vi._fit_dimension(_node_problem(ev, *task, quad), 5, 1e-3)
            assert post.elbo_trace == cold.elbo_trace


class TestDepthLadder:
    def _data(self):
        ev = simulate(SimConfig(params=fx.sparse_truth(2), link=LINK, horizon_T=20.0,
                                seed=3))
        return ev, QuadratureGrid.default(20.0, fx.MEMORY_A)

    def _blocks(self, data, submodel, k):
        """(event features, quadrature features), counted directly."""
        ev, quad = data
        basis = HistogramBasis(fx.MEMORY_A, submodel.num_bins)
        own = ev.times[k][ev.times[k] >= 0.0]
        return tuple(basis.features(feature_matrix(ev, basis, submodel.active_sources, t))
                     for t in (own, quad.points))

    @pytest.mark.parametrize("depth", [0, 1, 2])
    def test_split_mean_keeps_the_drive(self, depth):
        data = self._data()
        coarse = SubModel(column=(1, 1), depth=depth)
        fine = SubModel(column=(1, 1), depth=depth + 1)
        mean = np.random.default_rng(depth).normal(size=coarse.param_dim)
        split = vi._split_mean(mean)
        assert split.size == fine.param_dim
        for coarse_feats, fine_feats in zip(self._blocks(data, coarse, 1),
                                            self._blocks(data, fine, 1)):
            drive = coarse_feats.T @ mean
            assert drive.size > 0
            np.testing.assert_allclose(fine_feats.T @ split, drive,
                                       rtol=0, atol=1e-12 * np.max(np.abs(drive)))

    def test_ladders_are_runs_of_rising_depth_in_one_column(self):
        subs = enumerate_submodels(2, 2)  # the empty column, then 3 depths of 3 columns
        tasks = [(k, sm, None) for k in range(2) for sm in subs]
        ladders = vi._ladders(tasks)
        assert [len(ladder) for ladder in ladders] == [1, 3, 3, 3] * 2
        assert [task for ladder in ladders for task in ladder] == tasks
        fixed = [(k, SubModel(column=(1, 1), depth=k), None) for k in range(2)]
        assert vi._ladders(fixed) == [[fixed[0]], [fixed[1]]]

    def test_chained_fit_starts_at_the_split_mean(self):
        ev, quad = self._data()
        subs = [SubModel(column=(1, 1), depth=d) for d in range(2)]
        priors = [GaussianPrior.isotropic(sm.param_dim, 5.0) for sm in subs]
        tasks = [(0, sm, p) for sm, p in zip(subs, priors)]
        coarse, fine = fit_candidates(tasks, ev, quad, fx.MEMORY_A, LINK, 100, 1e-4,
                                      threads=1)
        problem = _fit_problem(tasks[1], tasks, ev, quad)
        start = vi._split_mean(coarse.mean)
        cov = priors[1].cov * vi._INIT_COV_SCALE
        assert fine.elbo_trace[0] == problem.elbo(start, cov, problem.moments(start, cov))
        cold = vi._fit_dimension(problem, 100, 1e-4)
        assert fine.elbo_trace[0] > cold.elbo_trace[0]
        assert fine.iterations < cold.iterations
        assert fine.elbo == pytest.approx(cold.elbo, rel=1e-4)

    def test_lone_tasks_start_cold(self):
        # the data of test_dimension_without_events_matches_pinned_fit
        ev = EventData(dims_K=2, horizon_T=2.0,
                       times=(np.array([0.31, 0.55, 1.2, 1.6]), np.array([])))
        quad = QuadratureGrid.default(2.0, fx.MEMORY_A)
        sm = SubModel(column=(1, 1), depth=0)
        prior = GaussianPrior.isotropic(3, 5.0)
        tasks = [(0, sm, prior), (1, sm, prior)]
        posts = fit_candidates(tasks, ev, quad, fx.MEMORY_A, LINK, 4, 1e-14, threads=2)
        for task, post in zip(tasks, posts):
            cold = vi._fit_dimension(_fit_problem(task, tasks, ev, quad), 4, 1e-14)
            np.testing.assert_array_equal(post.mean, cold.mean)
            np.testing.assert_array_equal(post.cov, cold.cov)
            assert post.elbo_trace == cold.elbo_trace


class TestGaussianPrior:
    def test_factors_are_computed_once_and_shared_by_threads(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        mean, cov = rng.standard_normal(6), a @ a.T + 6.0 * np.eye(6)
        prior = GaussianPrior(mean=mean, cov=cov)
        ref = prior.factors()
        np.testing.assert_allclose(ref[0], np.linalg.inv(cov), rtol=1e-10)
        np.testing.assert_allclose(ref[1], np.linalg.solve(cov, mean), rtol=1e-10)
        assert ref[2] == pytest.approx(np.linalg.slogdet(cov)[1], rel=1e-12)
        assert prior.factors() is ref  # the tuple built at construction

    @pytest.mark.parametrize("sigma", [1e-155, 1e-200])
    def test_variance_without_a_finite_precision_is_config_error(self, sigma):
        with pytest.raises(ConfigError, match="too small"):
            GaussianPrior.isotropic(2, sigma)

    def test_non_finite_matrix_fails_to_factorise_cleanly(self):
        with pytest.raises(NumericalError, match="not finite"):
            vi._chol_with_jitter(np.array([[1.0, np.inf], [np.inf, 1.0]]))


class TestSharedUpdate:
    def test_update_equals_the_two_term_cavi_formula(self):
        # reference: the mean-field update with its event and quadrature
        # terms written out separately, and the mean as P^{-1} rhs / 2
        ev = EventData(dims_K=1, horizon_T=3.0, times=(np.array([0.4, 1.1, 2.3]),))
        quad = QuadratureGrid.default(3.0, fx.MEMORY_A)
        rng = np.random.default_rng(11)
        a = rng.standard_normal((3, 3))
        prior = GaussianPrior(mean=rng.normal(size=3), cov=a @ a.T + 3.0 * np.eye(3))
        problem = _node_problem(ev, 0, _model(1, 2).submodel(0), prior, quad)
        feats, n = problem.feats, problem.n_events
        mean = np.array([3.0, 0.4, -0.2])
        cov = 0.05 * np.eye(3) + 0.01
        mom = problem.moments(mean, cov)
        new_mean, new_cov = problem.update(mom)

        alpha, eta, v = LINK.alpha, LINK.eta, quad.weights
        e, q = feats[:, :n], feats[:, n:]
        c, m, rate_q = mom
        w_e, w_q = pg_mean(c[:n]), pg_mean(c[n:])
        np.testing.assert_array_equal(rate_q, problem.latent_rate(c[n:], m[n:]))
        prior_prec = np.linalg.inv(prior.cov)
        prec = (prior_prec + alpha**2 * (e * w_e) @ e.T
                + alpha**2 * (q * (v * w_q * rate_q)) @ q.T)
        rhs = (2.0 * prior_prec @ prior.mean
               + alpha * e @ (2.0 * w_e * alpha * eta + 1.0)
               + alpha * q @ (v * (2.0 * w_q * alpha * eta - 1.0) * rate_q))
        ref_cov = np.linalg.inv(prec)
        ref_mean = 0.5 * ref_cov @ rhs
        assert n == 3 and q.shape[1] == quad.n_gq
        assert np.max(np.abs(new_mean - ref_mean)) <= 1e-12 * np.max(np.abs(ref_mean))
        assert np.max(np.abs(new_cov - ref_cov)) <= 1e-12 * np.max(np.abs(ref_cov))


class TestBruteForceOracle:
    def test_cavi_matches_direct_elbo_maximisation(self):
        # two-parameter toy: direct numerical maximisation over
        # (mean, cholesky of cov) agrees with the CAVI fixed point
        ev = EventData(dims_K=1, horizon_T=3.0,
                       times=(np.array([0.4, 1.1, 2.3]),))
        quad = QuadratureGrid.default(3.0, fx.MEMORY_A)
        prior = GaussianPrior.isotropic(2, 5.0)
        problem = _node_problem(ev, 0, _model(1, 1).submodel(0), prior, quad)

        posts = cavi_fixed_model(ev, _model(1, 1), LINK, [prior], quad,
                                 max_iter=1000, tol=1e-14)
        ref_mean, ref_cov = posts[0].mean, posts[0].cov

        def unpack(x):
            mean = x[:2]
            low = np.array([[math.exp(x[2]), 0.0], [x[3], math.exp(x[4])]])
            return mean, low @ low.T

        def neg(x):
            mean, cov = unpack(x)
            return -problem.elbo(mean, cov, problem.moments(mean, cov))

        x0 = np.array([1.0, 0.1, math.log(0.5), 0.0, math.log(0.5)])
        res = minimize(neg, x0, method="Nelder-Mead",
                       options={"maxiter": 6000, "xatol": 1e-10, "fatol": 1e-12})
        opt_mean, opt_cov = unpack(res.x)
        assert np.max(np.abs(opt_mean - ref_mean)) < 1e-3
        assert np.max(np.abs(opt_cov - ref_cov)) < 1e-3
        assert -res.fun == pytest.approx(posts[0].elbo, abs=1e-6)
