"""Gibbs oracle: prior recovery, conjugate step, grid-posterior agreement."""

import hashlib
import math

import numpy as np
import pytest

import _fixtures as fx
from hawkes_vb import (EventData, HawkesParams, HistogramBasis, LinkFunction,
                       SimConfig, gibbs, log_likelihood, simulate)
from hawkes_vb.adaptive import Model
from hawkes_vb.errors import ConfigError, UnsupportedLinkError
from hawkes_vb.gibbs import GibbsConfig, conjugate_update, gibbs_sample
from hawkes_vb.vi import GaussianPrior

LINK = fx.SIM_LINK


def _spy(monkeypatch, name, seen):
    """Wrap ``gibbs.<name>`` so that each call appends its positional args to seen."""
    real = getattr(gibbs, name)

    def wrapper(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(gibbs, name, wrapper)


def _model(dims, j_bins):
    return Model(graph_delta=np.ones((dims, dims), dtype=np.int8),
                 bins_J=(j_bins,) * dims, memory_A=fx.MEMORY_A)


class TestConjugateStep:
    def test_matches_direct_linear_solve(self):
        rng = np.random.default_rng(0)
        d, n = 5, 80
        feats = rng.normal(size=(d, n))
        marks = rng.random(n) + 0.01
        is_event = rng.random(n) < 0.6
        prior = GaussianPrior(mean=rng.normal(size=d),
                              cov=np.diag(rng.random(d) + 0.5))
        alpha, eta = 0.2, 10.0
        mean, cf = conjugate_update(feats, marks, is_event, alpha, eta, prior)
        prior_prec = np.linalg.inv(prior.cov)
        prec = prior_prec + alpha**2 * (feats * marks) @ feats.T
        v = np.where(is_event, 0.5, -0.5)
        rhs = feats @ (alpha * v + alpha**2 * eta * marks) + prior_prec @ prior.mean
        ref = np.linalg.solve(prec, rhs)
        assert np.max(np.abs(mean - ref)) < 1e-10


class TestGibbsSample:
    def test_no_data_recovers_prior(self):
        prior = [GaussianPrior.isotropic(3, 2.0)]
        ev = EventData(dims_K=1, horizon_T=0.0, times=(np.array([]),))
        res = gibbs_sample(ev, GibbsConfig(n_iter=4000, burn_in=0, seed=2),
                           LINK, _model(1, 2), prior)
        s = res.samples[0]
        assert s.shape == (4000, 3)
        se = 2.0 / math.sqrt(s.shape[0])
        assert np.max(np.abs(s.mean(axis=0))) < 4 * se
        np.testing.assert_allclose(s.std(axis=0), 2.0, rtol=0.1)

    def test_short_chain_draws_are_pinned(self):
        # SHA-256 of the draws' bytes; moving the conjugate update must not
        # change a bit of the chain (pinned with its Gram formed as S S')
        ev = simulate(SimConfig(params=fx.excitation_1d(), link=LINK,
                                horizon_T=10.0, seed=1))
        res = gibbs_sample(ev, GibbsConfig(n_iter=6, burn_in=0, seed=7), LINK,
                           _model(1, 4), [GaussianPrior.isotropic(5, 5.0)])
        assert res.samples[0].shape == (6, 5)
        assert hashlib.sha256(res.samples[0].tobytes()).hexdigest() == (
            "bf2398cfb043dece4c00eb6d250ffec423c49d0a021c39dac89733f0d81e6503")

    def test_reproducible_given_seed(self):
        ev = simulate(SimConfig(params=fx.excitation_1d(), link=LINK,
                                horizon_T=10.0, seed=1))
        cfg = GibbsConfig(n_iter=30, burn_in=5, seed=7)
        prior = [GaussianPrior.isotropic(5, 5.0)]
        a = gibbs_sample(ev, cfg, LINK, _model(1, 4), prior)
        b = gibbs_sample(ev, cfg, LINK, _model(1, 4), prior)
        np.testing.assert_array_equal(a.samples[0], b.samples[0])

    @pytest.mark.parametrize("n_iter, burn_in, thin", [(2, 1, 1), (10, 2, 8), (5, 0, 9)])
    def test_fewer_than_two_kept_draws_is_config_error(self, n_iter, burn_in, thin):
        with pytest.raises(ConfigError, match="two draws"):
            GibbsConfig(n_iter=n_iter, burn_in=burn_in, thin=thin)

    def test_two_kept_draws_are_enough(self):
        ev = EventData(dims_K=1, horizon_T=0.0, times=(np.array([]),))
        res = gibbs_sample(ev, GibbsConfig(n_iter=10, burn_in=2, thin=7, seed=0),
                           LINK, _model(1, 1), [GaussianPrior.isotropic(2)])
        assert res.samples[0].shape == (2, 2) and np.all(np.isfinite(res.sd(0)))

    def test_sweep_draws_marks_once_per_column(self, monkeypatch):
        # one sampler call per sweep: a tilt per event or latent column, its
        # points as reps, and the column's mark mean passed with weight reps
        draws, updates = [], []
        _spy(monkeypatch, "pg_sample_arr", draws)
        _spy(monkeypatch, "conjugate_update", updates)
        ev = simulate(SimConfig(params=fx.excitation_1d(), link=LINK,
                                horizon_T=10.0, seed=1))
        gibbs_sample(ev, GibbsConfig(n_iter=12, burn_in=2, seed=3), LINK, _model(1, 4),
                     [GaussianPrior.isotropic(5, 5.0)])
        assert len(draws) == len(updates) == 12
        for (tilts, _, reps), (feats, _, is_event, *_, weights) in zip(draws, updates):
            assert tilts.shape == reps.shape == (feats.shape[1],)
            assert np.array_equal(reps, weights) and np.all(reps > 0)
            assert reps[is_event].sum() == ev.times[0].size
            assert reps.sum() > ev.times[0].size  # and latent points beside them

    def test_non_sigmoid_rejected(self):
        relu = LinkFunction("relu", theta=1.0, alpha=1.0, eta=0.0)
        ev = EventData(dims_K=1, horizon_T=0.0, times=(np.array([]),))
        with pytest.raises(UnsupportedLinkError):
            gibbs_sample(ev, GibbsConfig(n_iter=2, burn_in=0, seed=0), relu,
                         _model(1, 1), [GaussianPrior.isotropic(2)])

    def test_thinning_and_burn_in_bookkeeping(self):
        ev = EventData(dims_K=1, horizon_T=0.0, times=(np.array([]),))
        res = gibbs_sample(ev, GibbsConfig(n_iter=100, burn_in=20, thin=4, seed=0),
                           LINK, _model(1, 1), [GaussianPrior.isotropic(2)])
        assert res.samples[0].shape[0] == 20

    def test_draws_are_sized_by_each_submodel(self):
        truth = fx.sparse_truth(2)
        ev = simulate(SimConfig(params=truth, link=LINK, horizon_T=10.0, seed=1))
        model = Model(graph_delta=truth.graph(), bins_J=(2, 4), memory_A=fx.MEMORY_A)
        prior = [GaussianPrior.isotropic(model.submodel(k).param_dim, 5.0)
                 for k in range(2)]
        res = gibbs_sample(ev, GibbsConfig(n_iter=20, burn_in=5, seed=0),
                           LINK, model, prior)
        assert [res.samples[k].shape for k in range(2)] == [(15, 3), (15, 9)]

    def test_prior_of_the_wrong_size_is_config_error(self):
        ev = EventData(dims_K=1, horizon_T=0.0, times=(np.array([]),))
        with pytest.raises(ConfigError, match="prior dimension 2"):
            gibbs_sample(ev, GibbsConfig(n_iter=2, burn_in=0, seed=0), LINK,
                         _model(1, 2), [GaussianPrior.isotropic(2)])

    def test_matches_grid_posterior_on_toy(self):
        # decisive oracle: exact 2-d quadrature of the posterior
        basis = HistogramBasis(fx.MEMORY_A, 1)
        truth = HawkesParams.build([7.0], [[np.array([0.4])]], basis)
        ev = simulate(SimConfig(params=truth, link=LINK, horizon_T=30.0, seed=3))

        nus = np.linspace(3, 11, 81)
        ws = np.linspace(-1.2, 2.0, 81)
        ll = np.array([[log_likelihood(
            HawkesParams.build([nu], [[np.array([w])]], basis), ev, LINK)
            for w in ws] for nu in nus])
        lp = ll - 0.5 * (nus[:, None] ** 2) / 25 - 0.5 * (ws[None, :] ** 2) / 25
        lp -= lp.max()
        post = np.exp(lp)
        post /= post.sum()
        nu_mean = float(post.sum(axis=1) @ nus)
        w_mean = float(post.sum(axis=0) @ ws)
        nu_sd = math.sqrt(float(post.sum(axis=1) @ (nus - nu_mean) ** 2))
        w_sd = math.sqrt(float(post.sum(axis=0) @ (ws - w_mean) ** 2))

        res = gibbs_sample(ev, GibbsConfig(n_iter=3000, burn_in=500, seed=4),
                           LINK, _model(1, 1), [GaussianPrior.isotropic(2, 5.0)])
        s = res.samples[0]
        n_eff = 200.0  # conservative given the chain autocorrelation
        assert abs(s[:, 0].mean() - nu_mean) < 4 * nu_sd / math.sqrt(n_eff)
        assert abs(s[:, 1].mean() - w_mean) < 4 * w_sd / math.sqrt(n_eff)
        assert s[:, 0].std() == pytest.approx(nu_sd, rel=0.2)
        assert s[:, 1].std() == pytest.approx(w_sd, rel=0.2)

    def test_split_chain_stationarity(self):
        # Gelman-Rubin-style ratio over 4 seeds on a small fixture
        ev = simulate(SimConfig(params=fx.excitation_1d(), link=LINK,
                                horizon_T=20.0, seed=5))
        chains = []
        for seed in range(4):
            res = gibbs_sample(ev, GibbsConfig(n_iter=600, burn_in=200, seed=seed),
                               LINK, _model(1, 4), [GaussianPrior.isotropic(5, 5.0)])
            chains.append(res.samples[0][:, 0])  # background-rate coordinate
        chains = np.asarray(chains)
        n = chains.shape[1]
        within = chains.var(axis=1, ddof=1).mean()
        between = n * chains.mean(axis=1).var(ddof=1)
        var_plus = (n - 1) / n * within + between / n
        r_hat = math.sqrt(var_plus / within)
        assert r_hat < 1.1

    def test_each_dimension_counts_its_features_once_and_runs_its_chain(self, monkeypatch):
        # one count per dimension, then that dimension's 30 sweeps, so only one
        # dimension's columns are held at a time
        calls = []
        for name in ("feature_matrix", "conjugate_update"):
            def named(*args, real=getattr(gibbs, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(gibbs, name, named)
        truth = fx.sparse_truth(2)
        ev = simulate(SimConfig(params=truth, link=LINK, horizon_T=10.0, seed=1))
        model = Model(graph_delta=truth.graph(), bins_J=(2, 4), memory_A=fx.MEMORY_A)
        prior = [GaussianPrior.isotropic(model.submodel(k).param_dim, 5.0)
                 for k in range(2)]
        gibbs_sample(ev, GibbsConfig(n_iter=30, burn_in=5, seed=0), LINK, model, prior)
        assert calls == (["feature_matrix"] + ["conjugate_update"] * 30) * 2

    def test_dimension_without_events(self):
        ev = simulate(SimConfig(params=fx.excitation_1d(), link=LINK,
                                horizon_T=10.0, seed=1))
        two = EventData(dims_K=2, horizon_T=10.0, times=(ev.times[0], np.array([])))
        model = Model(graph_delta=np.ones((2, 2), dtype=np.int8), bins_J=(2, 2),
                      memory_A=fx.MEMORY_A)
        res = gibbs_sample(two, GibbsConfig(n_iter=30, burn_in=5, seed=0), LINK,
                           model, [GaussianPrior.isotropic(5, 5.0)] * 2)
        assert all(np.all(np.isfinite(s)) for s in res.samples)

    def test_chain_where_most_columns_draw_no_latent_point(self, monkeypatch):
        # a drive held near nu = 100 puts the latent rate at theta sigmoid(-18),
        # so nearly every segment column draws N_c = 0
        updates = []
        _spy(monkeypatch, "conjugate_update", updates)
        ev = simulate(SimConfig(params=fx.excitation_1d(), link=LINK,
                                horizon_T=10.0, seed=1))
        prior = GaussianPrior(mean=np.array([100.0, 0.0, 0.0, 0.0, 0.0]),
                              cov=1e-4 * np.eye(5))
        res = gibbs_sample(ev, GibbsConfig(n_iter=30, burn_in=5, seed=0), LINK,
                           _model(1, 4), [prior])
        assert np.all(np.isfinite(res.samples[0]))
        latent_columns = [np.count_nonzero(~is_event) for _, _, is_event, *_ in updates]
        assert len(latent_columns) == 30 and max(latent_columns) <= 1

    def test_drive_over_blocks_of_columns_is_the_drive_of_the_features(self):
        # a table wider than one block, ending in a partial one
        rng = np.random.default_rng(3)
        basis = HistogramBasis(fx.MEMORY_A, 4)
        counts = rng.integers(0, 6, size=(9, 2 * gibbs._BLOCK_COLUMNS + 17), dtype=np.uint8)
        f = rng.normal(size=9)
        np.testing.assert_allclose(gibbs._drive_at(basis, counts, f),
                                   basis.features(counts).T @ f, rtol=1e-13, atol=1e-12)

    def test_negative_drive_sign_handling(self):
        # strongly inhibitory parameters give negative tilts; the PG tilt
        # uses |lam~| and the chain must still be well-behaved
        basis = HistogramBasis(fx.MEMORY_A, 2)
        truth = HawkesParams.build([8.0], [[np.array([-0.3, -0.2])]], basis)
        ev = simulate(SimConfig(params=truth, link=LINK, horizon_T=20.0, seed=6))
        res = gibbs_sample(ev, GibbsConfig(n_iter=200, burn_in=50, seed=1),
                           LINK, _model(1, 2), [GaussianPrior.isotropic(3, 5.0)])
        assert np.all(np.isfinite(res.samples[0]))
        assert res.mean(0)[1] < 0.1  # inhibition recovered as non-positive
