"""Model enumeration, weights, gap threshold, two-step graph recovery."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _fixtures as fx
from hawkes_vb import SimConfig, simulate
from hawkes_vb.adaptive import (Model, SubModel, detect_gap_threshold,
                                enumerate_submodels, expected_l1_norm,
                                folded_normal_mean, fully_adaptive, norm_matrix,
                                two_step, bernoulli_log_prior,
                                _log_sum_exp_weights, _select_index)
from hawkes_vb.errors import ConfigError, DomainError, NoGapError
from hawkes_vb.vi import GaussianPrior, QuadratureGrid, VIConfig, cavi_fixed_model

LINK = fx.SIM_LINK


def _prior_factory(k, sources, j_bins):
    return GaussianPrior.isotropic(1 + len(sources) * j_bins, 5.0)


class TestEnumeration:
    def test_k1_depth5_gives_7(self):
        assert len(enumerate_submodels(1, 5)) == 7

    def test_k2_depth4_gives_16(self):
        assert len(enumerate_submodels(2, 4)) == 16

    def test_fixed_column(self):
        subs = enumerate_submodels(3, 2, column=(1, 0, 1))
        assert len(subs) == 3
        assert all(s.column == (1, 0, 1) for s in subs)
        assert [s.num_bins for s in subs] == [1, 2, 4]

    def test_empty_column_collapses(self):
        subs = enumerate_submodels(2, 4, column=(0, 0))
        assert len(subs) == 1
        assert subs[0].param_dim == 1

    def test_block_slices(self):
        sm = SubModel(column=(1, 0, 1), depth=1)
        assert sm.param_dim == 5
        assert sm.block(0) == slice(1, 3)
        assert sm.block(2) == slice(3, 5)


class TestExpectedL1Norm:
    def test_half_normal(self):
        assert expected_l1_norm(np.zeros(1), np.eye(1)) == pytest.approx(
            math.sqrt(2 / math.pi), rel=1e-12)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(1)
        mean = np.array([2.0])
        draws = rng.normal(2.0, 1.0, size=10**6)
        assert expected_l1_norm(mean, np.eye(1)) == pytest.approx(
            np.abs(draws).mean(), abs=1e-2)

    def test_degenerate_limit(self):
        assert expected_l1_norm(np.array([-1.7]), np.zeros((1, 1))) == pytest.approx(1.7)

    def test_negative_variance_rejected(self):
        with pytest.raises(DomainError):
            expected_l1_norm(np.zeros(1), -np.eye(1))

    @given(st.floats(-3, 3), st.floats(0.01, 3))
    @settings(max_examples=40, deadline=None)
    def test_dominates_abs_mean(self, mu, sigma):
        val = folded_normal_mean(mu, sigma)
        assert val >= abs(mu) - 1e-12
        assert val >= sigma * math.sqrt(2 / math.pi) * math.exp(-0.5 * (mu / sigma) ** 2) - 1e-12


class TestGapThreshold:
    def test_forced_by_max_gap(self):
        assert detect_gap_threshold([0.01, 0.02, 0.5, 0.6]) == pytest.approx(0.26)

    def test_override_passthrough(self):
        assert detect_gap_threshold([0.01, 0.02, 0.5, 0.6], override=0.15) == 0.15

    def test_all_equal_raises(self):
        with pytest.raises(NoGapError):
            detect_gap_threshold([0.3, 0.3, 0.3])

    def test_needs_two_values(self):
        with pytest.raises(DomainError):
            detect_gap_threshold([0.3])

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=20))
    @example([1.0 - 2.0**-53, 1.0])  # the midpoint rounds up to the upper value
    @example([0.0, 5e-324])  # the midpoint rounds down to the lower value
    @settings(max_examples=60, deadline=None)
    def test_threshold_inside_largest_gap(self, vals):
        # no double lies strictly between two adjacent doubles, so the lower
        # end is the only threshold that can split them
        vals = sorted(vals)
        gaps = np.diff(vals)
        if gaps.size == 0 or gaps.max() <= 0:
            return
        thr = detect_gap_threshold(vals)
        i = int(np.argmax(gaps))
        assert vals[i] <= thr < vals[i + 1]


class TestWeights:
    def test_sum_to_one(self):
        w = _log_sum_exp_weights(np.array([-1000.0, -1001.0, -999.5]))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(-1e5, 1e5))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, elbos, shift):
        e = np.asarray(elbos)
        a = _log_sum_exp_weights(e)
        b = _log_sum_exp_weights(e + shift)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_selection_shift_invariant_and_tie_break(self):
        subs = [SubModel(column=(1,), depth=2), SubModel(column=(1,), depth=0)]
        elbos = np.array([5.0, 5.0])
        assert _select_index(elbos, subs) == 1  # fewer parameters wins the tie
        assert _select_index(elbos + 123.4, subs) == 1

    def test_bernoulli_prior_edge_odds(self):
        subs = enumerate_submodels(2, 1)
        lp = bernoulli_log_prior(subs, p=0.3, max_depth=1)
        assert len(lp) == len(subs)
        assert np.all(np.isfinite(lp))
        by_key = {(s.column, s.depth): v for s, v in zip(subs, lp)}
        # adding one edge multiplies the prior by p / (1 - p)
        assert by_key[((1, 1), 1)] - by_key[((0, 1), 1)] == pytest.approx(
            math.log(0.3 / 0.7), rel=1e-12)


class TestFullyAdaptive:
    def test_single_model_equals_fixed_fit(self):
        ev = simulate(SimConfig(params=fx.excitation_1d(), link=LINK,
                                horizon_T=30.0, seed=3))
        sub = SubModel(column=(1,), depth=2)
        res = fully_adaptive(ev, [sub], LINK, _prior_factory,
                             VIConfig(tol=1e-6), memory_A=fx.MEMORY_A)
        np.testing.assert_allclose(res.per_dim[0].weights, [1.0])
        quad = QuadratureGrid.default(30.0, fx.MEMORY_A)
        model = Model(graph_delta=np.ones((1, 1), dtype=np.int8),
                      bins_J=(4,), memory_A=fx.MEMORY_A)
        direct = cavi_fixed_model(ev, model, LINK,
                                  [GaussianPrior.isotropic(5, 5.0)], quad,
                                  tol=1e-6)
        np.testing.assert_array_equal(res.selected_posterior(0).mean,
                                      direct[0].mean)

    def test_threaded_equals_serial(self):
        truth = fx.sparse_truth(2)
        ev = simulate(SimConfig(params=truth, link=LINK, horizon_T=30.0, seed=7))
        subs = enumerate_submodels(2, 1)
        serial = fully_adaptive(ev, subs, LINK, _prior_factory,
                                VIConfig(tol=1e-4), memory_A=fx.MEMORY_A)
        threaded = fully_adaptive(ev, subs, LINK, _prior_factory,
                                  VIConfig(tol=1e-4, threads=2), memory_A=fx.MEMORY_A)
        for k in range(2):
            np.testing.assert_array_equal(serial.per_dim[k].elbos,
                                          threaded.per_dim[k].elbos)
            assert len(serial.posteriors[k]) == len(subs)
            for a, b in zip(serial.posteriors[k], threaded.posteriors[k]):
                np.testing.assert_array_equal(a.mean, b.mean)
                np.testing.assert_array_equal(a.cov, b.cov)
                assert a.elbo_trace == b.elbo_trace

    def test_prior_dimension_mismatch_is_config_error(self):
        ev = simulate(SimConfig(params=fx.excitation_1d(), link=LINK,
                                horizon_T=5.0, seed=3))
        with pytest.raises(ConfigError):
            fully_adaptive(ev, [SubModel(column=(1,), depth=1)], LINK,
                           lambda k, sources, j: GaussianPrior.isotropic(2, 5.0),
                           memory_A=fx.MEMORY_A)

    def test_empty_model_set_rejected(self):
        ev = simulate(SimConfig(params=fx.excitation_1d(), link=LINK,
                                horizon_T=5.0, seed=3))
        with pytest.raises(DomainError):
            fully_adaptive(ev, [[]], LINK, _prior_factory, memory_A=fx.MEMORY_A)

    def test_selects_true_model_on_well_specified_data(self):
        truth = fx.selection_1d()
        ev = simulate(SimConfig(params=truth, link=LINK, horizon_T=400.0, seed=0))
        subs = enumerate_submodels(1, 3)
        res = fully_adaptive(ev, subs, LINK, _prior_factory,
                             VIConfig(tol=1e-5), memory_A=fx.MEMORY_A)
        sm = res.selected_submodel(0)
        assert sm.column == (1,)
        assert sm.num_bins == 2
        assert res.per_dim[0].weights.sum() == pytest.approx(1.0, abs=1e-12)
        # coarser-than-truth resolutions lose to the true one on the bound
        by_bins = {s.num_bins: e for s, e in zip(res.per_dim[0].submodels,
                                                 res.per_dim[0].elbos)
                   if s.column == (1,)}
        assert by_bins[2] > by_bins[4]
        assert by_bins[2] > by_bins[8]

    def test_inhibition_weights_concentrate_on_top_models(self):
        # the inhibition scenario concentrates essentially all model weight
        # on at most two resolutions
        basis = fx.HistogramBasis(fx.MEMORY_A, 2)
        truth = fx.HawkesParams.build([6.0], [[np.array([-0.28, -0.12])]], basis)
        ev = simulate(SimConfig(params=truth, link=LINK, horizon_T=400.0, seed=1))
        res = fully_adaptive(ev, enumerate_submodels(1, 3), LINK,
                             _prior_factory, VIConfig(tol=1e-5),
                             memory_A=fx.MEMORY_A)
        w = np.sort(res.per_dim[0].weights)[::-1]
        assert w[0] + w[1] >= 0.9


class TestTwoStep:
    def test_recovers_sparse_graph(self):
        truth = fx.sparse_truth(2)
        ev = simulate(SimConfig(params=truth, link=LINK, horizon_T=300.0, seed=2))
        res = two_step(ev, LINK, 2, _prior_factory, VIConfig(tol=1e-4),
                       memory_A=fx.MEMORY_A)
        np.testing.assert_array_equal(res.graph.delta_hat, truth.graph())
        s = res.graph.s_hat
        edges = truth.graph().astype(bool)
        assert s[edges].min() > res.graph.threshold > s[~edges].max()

    def test_override_below_min_gives_complete_graph(self):
        truth = fx.sparse_truth(2)
        ev = simulate(SimConfig(params=truth, link=LINK, horizon_T=100.0, seed=2))
        res = two_step(ev, LINK, 1, _prior_factory, VIConfig(tol=1e-3),
                       memory_A=fx.MEMORY_A, threshold=1e-9)
        assert np.all(res.graph.delta_hat == 1)

    def test_step2_equals_step1_when_graph_complete(self):
        truth = fx.sparse_truth(2)
        ev = simulate(SimConfig(params=truth, link=LINK, horizon_T=60.0, seed=9))
        res = two_step(ev, LINK, 1, _prior_factory, VIConfig(tol=1e-4),
                       memory_A=fx.MEMORY_A, threshold=1e-9)
        for k in range(2):
            np.testing.assert_array_equal(res.step1.selected_posterior(k).mean,
                                          res.step2.selected_posterior(k).mean)
            assert res.step1.selected_submodel(k) == res.step2.selected_submodel(k)

    def test_norm_matrix_zero_outside_selected_sources(self):
        truth = fx.sparse_truth(2)
        ev = simulate(SimConfig(params=truth, link=LINK, horizon_T=60.0, seed=9))
        res = two_step(ev, LINK, 1, _prior_factory, VIConfig(tol=1e-4),
                       memory_A=fx.MEMORY_A)
        s2 = norm_matrix(res.step2)
        inactive = res.graph.delta_hat == 0
        assert np.all(s2[inactive] == 0.0)
