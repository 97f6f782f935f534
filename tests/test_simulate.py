"""Thinning simulator: homogeneous reduction, determinism, renewal counts."""

import math

import numpy as np
import pytest
from scipy import stats

import _fixtures as fx
from hawkes_vb import (EventData, HawkesParams, HistogramBasis, LinkFunction,
                       SimConfig, excursion_stats, simulate)
from hawkes_vb.errors import DomainError, SimulationDivergedError


def _homogeneous(nu=10.0, theta=20.0, alpha=0.2, eta=10.0):
    link = LinkFunction("sigmoid", theta=theta, alpha=alpha, eta=eta)
    basis = HistogramBasis(fx.MEMORY_A, 1)
    params = HawkesParams.build([nu], [[None]], basis)
    return params, link, link(nu)


class TestSimulate:
    def test_deterministic_given_seed(self):
        cfg = SimConfig(params=fx.excitation_1d(), link=fx.SIM_LINK,
                        horizon_T=20.0, seed=99)
        a = simulate(cfg)
        b = simulate(cfg)
        for x, y in zip(a.times, b.times):
            np.testing.assert_array_equal(x, y)

    def test_homogeneous_counts_within_3_sigma(self):
        params, link, rate = _homogeneous()
        horizon = 20.0
        counts = [simulate(SimConfig(params=params, link=link,
                                     horizon_T=horizon, seed=s)).total()
                  for s in range(40)]
        mean_target = rate * horizon
        se = math.sqrt(mean_target / len(counts))
        assert abs(np.mean(counts) - mean_target) < 3.0 * se

    def test_homogeneous_interarrivals_exponential(self):
        params, link, rate = _homogeneous()
        ev = simulate(SimConfig(params=params, link=link, horizon_T=300.0, seed=3))
        gaps = np.diff(ev.times[0][ev.times[0] >= 0.0])
        assert stats.kstest(gaps, "expon", args=(0.0, 1.0 / rate)).pvalue > 0.01

    def test_events_sorted_tie_free_within_window(self):
        ev = simulate(SimConfig(params=fx.sparse_truth(3), link=fx.SIM_LINK,
                                horizon_T=50.0, seed=5))
        assert ev.dims_K == 3
        pooled = ev.pooled()
        assert np.all(np.diff(pooled) > 0.0)
        assert pooled[0] >= -fx.MEMORY_A and pooled[-1] <= 50.0

    def test_event_cap_raises(self):
        params, link, _ = _homogeneous()
        with pytest.raises(SimulationDivergedError):
            simulate(SimConfig(params=params, link=link, horizon_T=50.0,
                               seed=0, max_events=10))

    def test_unbounded_links_run(self):
        # lookahead bound keeps ReLU/softplus exact for stable parameters
        basis = HistogramBasis(fx.MEMORY_A, 2)
        params = HawkesParams.build([1.0], [[np.array([0.02, 0.01])]], basis)
        relu = LinkFunction("relu", theta=1.0, alpha=1.0, eta=0.0, theta_base=0.001)
        ev = simulate(SimConfig(params=params, link=relu, horizon_T=100.0, seed=8))
        rate = ev.total() / 100.0
        # sub-critical linear Hawkes: mean rate ~ nu / (1 - ||h||_1)
        assert 0.6 < rate < 1.6
        soft = LinkFunction("softplus", theta=1.0, alpha=1.0, eta=0.0)
        ev2 = simulate(SimConfig(params=params, link=soft, horizon_T=50.0, seed=8))
        assert ev2.total() > 0

    def test_sequence_link_rejected(self):
        # one link is shared by all dimensions
        with pytest.raises(DomainError):
            SimConfig(params=fx.sparse_truth(2), link=[fx.SIM_LINK, fx.SIM_LINK],
                      horizon_T=10.0)

    def test_burn_in_keeps_initial_condition(self):
        ev = simulate(SimConfig(params=fx.excitation_1d(), link=fx.SIM_LINK,
                                horizon_T=30.0, seed=21, burn_in=1.0))
        assert np.all(ev.times[0] >= -fx.MEMORY_A)
        assert np.any(ev.times[0] < 0.0)


class TestPaperScaleCounts:
    def test_k1_excitation_counts(self):
        # documented single-draw scale: 5250 events, 1558 renewals (+-20%)
        ev = simulate(SimConfig(params=fx.excitation_1d(), link=fx.SIM_LINK,
                                horizon_T=500.0, seed=1))
        st = excursion_stats(ev, fx.MEMORY_A)
        assert 4200 <= st.num_events[0] <= 6300
        assert 1250 <= st.num_global_excursions <= 1870

    def test_k1_mixed_effect_counts(self):
        # documented scale: 3876 events, 1775 renewals (+-20%)
        ev = simulate(SimConfig(params=fx.mixed_1d(), link=fx.SIM_LINK,
                                horizon_T=500.0, seed=1))
        st = excursion_stats(ev, fx.MEMORY_A)
        assert 3101 <= st.num_events[0] <= 4651
        assert 1420 <= st.num_global_excursions <= 2130

    def test_k2_sparse_excitation_counts(self):
        # documented scale: 5680 events (+-20%); the source's excursion
        # column for this row is internally inconsistent and not pinned
        ev = simulate(SimConfig(params=fx.k2_sparse_truth(), link=fx.SIM_LINK,
                                horizon_T=500.0, seed=1))
        st = excursion_stats(ev, fx.MEMORY_A)
        assert 4544 <= sum(st.num_events) <= 6816
        assert st.num_global_excursions > 0


class TestExcursionStats:
    def test_empty_process(self):
        ev = EventData(dims_K=1, horizon_T=5.0, times=(np.array([]),))
        st = excursion_stats(ev, fx.MEMORY_A)
        assert st.num_global_excursions == 0
        assert st.num_local_excursions == (0,)
        assert st.num_events == (0,)

    def test_hand_traced_renewals(self):
        # events {1, 1.05, 3}, A=0.1: renewals at 1.15 and 3.1
        ev = EventData(dims_K=1, horizon_T=4.0, times=(np.array([1.0, 1.05, 3.0]),))
        st = excursion_stats(ev, 0.1)
        assert st.num_global_excursions == 2
        assert st.num_local_excursions == (2,)

    def test_renewal_requires_room_before_horizon(self):
        # the renewal after the last event falls beyond T and is not counted
        ev = EventData(dims_K=1, horizon_T=3.05, times=(np.array([1.0, 1.05, 3.0]),))
        assert excursion_stats(ev, 0.1).num_global_excursions == 1

    def test_cross_dimension_gap_blocks_renewal(self):
        # dim-1 event inside dim-0's quiet window kills the global renewal
        # but not the local one
        ev = EventData(dims_K=2, horizon_T=2.0,
                       times=(np.array([1.0]), np.array([1.05])))
        st = excursion_stats(ev, 0.1)
        assert st.num_local_excursions == (1, 1)
        assert st.num_global_excursions == 1  # only after 1.05

    def test_pre_window_events_count_for_renewals(self):
        ev = EventData(dims_K=1, horizon_T=1.0, times=(np.array([-0.05]),))
        assert excursion_stats(ev, 0.1).num_global_excursions == 1
