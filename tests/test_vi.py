"""Fixed-model variational inference: updates, ELBO, quadrature, oracles."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

import _fixtures as fx
from hawkes_vb import EventData, HistogramBasis, LinkFunction, SimConfig, simulate
from hawkes_vb.adaptive import Model
from hawkes_vb.errors import NumericalError, UnsupportedLinkError
from hawkes_vb.vi import (FeatureCache, GaussianPrior, GaussianPosterior,
                          QuadratureGrid, _DimensionProblem, cavi_fixed_model, elbo)

LINK = fx.SIM_LINK


def _model(dims, j_bins):
    return Model(graph_delta=np.ones((dims, dims), dtype=np.int8),
                 bins_J=(j_bins,) * dims, memory_A=fx.MEMORY_A)


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
        for p in range(12):  # order-8 Gauss rule: exact through degree 15
            val = float(g.weights @ g.points**p)
            assert val == pytest.approx(2.0 ** (p + 1) / (p + 1), rel=1e-10)

    def test_composite_rule_integrates_smooth_functions(self):
        g = QuadratureGrid.build(10.0, 500)
        val = float(g.weights @ np.sin(g.points))
        assert val == pytest.approx(1.0 - math.cos(10.0), rel=1e-10)

    def test_default_resolution_rule(self):
        g = QuadratureGrid.default(500.0, 0.1)
        assert g.n_gq >= 25000


class TestCaviFixedModel:
    def test_no_data_returns_prior_exactly(self):
        prior = [GaussianPrior.isotropic(2, 5.0)]
        posts = cavi_fixed_model(_empty_events(), _model(1, 1), LINK, prior,
                                 QuadratureGrid.build(0.0, 0))
        np.testing.assert_array_equal(posts[0].mean, prior[0].mean)
        np.testing.assert_allclose(posts[0].cov, prior[0].cov, rtol=1e-12)
        assert posts[0].elbo == pytest.approx(0.0, abs=1e-10)

    def test_non_sigmoid_rejected(self):
        relu = LinkFunction("relu", theta=1.0, alpha=1.0, eta=0.0)
        with pytest.raises(UnsupportedLinkError):
            cavi_fixed_model(_empty_events(), _model(1, 1), relu,
                             [GaussianPrior.isotropic(2)],
                             QuadratureGrid.build(0.0, 0))

    def test_fixed_point_self_consistency(self):
        # three events, two parameters: polish to a parameter-level fixed
        # point, then one extra update moves the factor by less than 1e-8
        ev = EventData(dims_K=1, horizon_T=2.0,
                       times=(np.array([0.31, 0.55, 1.2]),))
        quad = QuadratureGrid.default(2.0, fx.MEMORY_A)
        prior = [GaussianPrior.isotropic(2, 5.0)]
        posts = cavi_fixed_model(ev, _model(1, 1), LINK, prior, quad,
                                 max_iter=500, tol=1e-14)
        cache = FeatureCache(ev, quad)
        e, q = cache.stack(HistogramBasis(fx.MEMORY_A, 1), [0], 0)
        problem = _DimensionProblem(e, q, quad.weights, LINK, prior[0], 2.0)
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
        joint = cavi_fixed_model(ev, _model(2, 2), LINK, priors, quad)
        solo0 = cavi_fixed_model(ev, _model(2, 2), LINK, priors, quad, dims=[0])
        solo1 = cavi_fixed_model(ev, _model(2, 2), LINK, priors, quad, dims=[1])
        np.testing.assert_array_equal(joint[0].mean, solo0[0].mean)
        np.testing.assert_array_equal(joint[0].cov, solo0[0].cov)
        np.testing.assert_array_equal(joint[1].mean, solo1[0].mean)
        assert joint[0].elbo == solo0[0].elbo
        assert joint[1].elbo == solo1[0].elbo

    def test_quadrature_doubling_stability(self):
        # the piecewise-constant integrand limits the composite rule to
        # first-order convergence, so the 1e-4 doubling criterion is
        # checked past the knee (panel width well under one bin)
        ev = simulate(SimConfig(params=fx.excitation_1d(), link=LINK,
                                horizon_T=50.0, seed=6))
        out = []
        for n in (40_000, 80_000):
            posts = cavi_fixed_model(ev, _model(1, 4), LINK,
                                     [GaussianPrior.isotropic(5, 5.0)],
                                     QuadratureGrid.build(50.0, n), tol=1e-10,
                                     max_iter=300)
            out.append(posts[0].mean)
        rel = np.max(np.abs(out[1] - out[0])) / np.max(np.abs(out[0]))
        assert rel < 1e-4

    def test_threaded_equals_serial(self):
        truth = fx.sparse_truth(2)
        ev = simulate(SimConfig(params=truth, link=LINK, horizon_T=30.0, seed=7))
        quad = QuadratureGrid.default(30.0, fx.MEMORY_A)
        priors = [GaussianPrior.isotropic(5, 5.0)] * 2
        serial = cavi_fixed_model(ev, _model(2, 2), LINK, priors, quad)
        threaded = cavi_fixed_model(ev, _model(2, 2), LINK, priors, quad, threads=2)
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a.mean, b.mean)

    def test_singular_prior_fails_cleanly(self):
        bad = GaussianPrior(mean=np.zeros(2), cov=np.zeros((2, 2)))
        with pytest.raises(NumericalError):
            cavi_fixed_model(_empty_events(), _model(1, 1), LINK, [bad],
                             QuadratureGrid.build(0.0, 0))


class TestElbo:
    def test_zero_for_prior_at_no_data(self):
        prior = [GaussianPrior.isotropic(3, 5.0)]
        post = [GaussianPosterior(mean=prior[0].mean, cov=prior[0].cov,
                                  elbo=0.0, iterations=0, converged=True)]
        val = elbo(_empty_events(), _model(1, 2), LINK, prior, post,
                   QuadratureGrid.build(0.0, 0))
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_matches_posterior_report(self):
        ev = simulate(SimConfig(params=fx.excitation_1d(), link=LINK,
                                horizon_T=25.0, seed=9))
        quad = QuadratureGrid.default(25.0, fx.MEMORY_A)
        prior = [GaussianPrior.isotropic(5, 5.0)]
        posts = cavi_fixed_model(ev, _model(1, 4), LINK, prior, quad)
        val = elbo(ev, _model(1, 4), LINK, prior, posts, quad)
        assert val == posts[0].elbo


class TestBruteForceOracle:
    def test_cavi_matches_direct_elbo_maximisation(self):
        # two-parameter toy: direct numerical maximisation over
        # (mean, cholesky of cov) agrees with the CAVI fixed point
        ev = EventData(dims_K=1, horizon_T=3.0,
                       times=(np.array([0.4, 1.1, 2.3]),))
        quad = QuadratureGrid.default(3.0, fx.MEMORY_A)
        prior = GaussianPrior.isotropic(2, 5.0)
        cache = FeatureCache(ev, quad)
        e, q = cache.stack(HistogramBasis(fx.MEMORY_A, 1), [0], 0)
        problem = _DimensionProblem(e, q, quad.weights, LINK, prior, 3.0)

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
