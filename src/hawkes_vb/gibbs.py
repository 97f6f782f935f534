"""Gibbs sampler for the augmented sigmoid Hawkes posterior.

Serves as the MCMC oracle for validating variational output on small
problems.  Per sweep and per dimension k it alternates

  1. Polya-Gamma marks at the observed events,  w_i ~ PG(1, |lam~_{T_i}|);
  2. a latent Poisson process on [0, T] with rate theta_k sigmoid(-lam~_t),
     sampled exactly by thinning against the constant bound theta_k, with
     PG marks at the accepted points;
  3. a conjugate Gaussian draw of the parameter from

        Sigma_c = [ alpha^2 H D H' + Sigma^{-1} ]^{-1}
        mu_c    = Sigma_c ( H [alpha v + alpha^2 eta u] + Sigma^{-1} mu )

     where H stacks the features at events and latent points, D = diag(u),
     u holds all marks and v = 1/2 on events, -1/2 on latent points.

The recentred drive is lam~_t = alpha (H(t)' f - eta); its sign is
irrelevant to the PG tilt (the distribution is symmetric in c), so tilts
are passed as absolute values.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from hawkes_vb.core import SIGMOID, HistogramBasis, feature_matrix
from hawkes_vb.errors import ConfigError, UnsupportedLinkError
from hawkes_vb.pg import pg_sample_arr
from hawkes_vb.vi import _chol_with_jitter, _resolve_prior


@dataclass(frozen=True)
class GibbsConfig:
    n_iter: int = 3000
    burn_in: int = 500
    thin: int = 1
    seed: int = 0
    init: str = "mean"  # "mean": start at the prior mean; "prior": draw from it
    model: object = None   # may also be passed to gibbs_sample directly
    prior: object = None

    def __post_init__(self):
        if not self.n_iter > self.burn_in >= 0:
            raise ConfigError(f"need n_iter > burn_in >= 0, got n_iter={self.n_iter}, "
                              f"burn_in={self.burn_in}")
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")
        if self.init not in ("mean", "prior"):
            raise ConfigError("init must be 'mean' or 'prior'")


@dataclass(frozen=True)
class GibbsResult:
    """Kept draws per dimension, shape (n_kept, d_k)."""

    samples: tuple
    n_iter: int
    burn_in: int
    thin: int
    model: object = None

    def mean(self, k):
        return self.samples[k].mean(axis=0)

    def sd(self, k):
        return self.samples[k].std(axis=0, ddof=1)

    @property
    def n_kept(self):
        return self.samples[0].shape[0]

    def params_at(self, i):
        """Draw i of the chain assembled into a HawkesParams."""
        from hawkes_vb.core import HawkesParams, HistogramBasis

        k_dims = len(self.samples)
        delta = self.model.graph_delta
        nu = np.empty(k_dims)
        weights = [[None] * k_dims for _ in range(k_dims)]
        for k in range(k_dims):
            draw = self.samples[k][i]
            nu[k] = draw[0]
            j = int(self.model.bins_J[k])
            pos = 0
            for l in range(k_dims):
                if delta[l, k]:
                    weights[l][k] = draw[1 + pos * j: 1 + (pos + 1) * j].copy()
                    pos += 1
        basis = tuple(HistogramBasis(self.model.memory_A, int(j))
                      for j in self.model.bins_J)
        return HawkesParams.build(nu, weights, basis)


def conjugate_update(feats, marks, is_event, alpha, eta, prior):
    """Gaussian full-conditional of the parameter given the marks.

    ``feats`` is (d, n) with one column per observed or latent point,
    ``marks`` the PG draws, ``is_event`` flags observed events (+1/2 in v).
    Returns (mean, chol_of_precision).
    """
    prior_prec_chol = cho_factor(prior.cov, lower=True)
    prior_prec = cho_solve(prior_prec_chol, np.eye(prior.dim))
    prec = prior_prec + alpha**2 * (feats * marks) @ feats.T
    v = np.where(is_event, 0.5, -0.5)
    rhs = feats @ (alpha * v + alpha**2 * eta * marks) + prior_prec @ prior.mean
    cf = _chol_with_jitter(prec)
    return cho_solve(cf, rhs), cf


def _draw_gaussian(mean, prec_chol, rng):
    """Sample N(mean, P^{-1}) given the lower Cholesky factor of P."""
    z = rng.standard_normal(mean.size)
    return mean + solve_triangular(prec_chol[0], z, lower=True, trans="T")


def gibbs_sample(events, config, link, model=None, prior=None):
    """Run the sampler; returns one chain of parameter draws per dimension.

    ``model`` and ``prior`` may live on the config instead of being passed
    here.  ``prior`` is a per-dimension list of GaussianPrior or a callable
    ``prior(k, sources, J)``.  Reproducible for a fixed seed.
    """
    if link.kind != SIGMOID:
        raise UnsupportedLinkError("the Gibbs sampler requires the sigmoid link")
    model = model if model is not None else config.model
    prior = prior if prior is not None else config.prior
    if model is None or prior is None:
        raise ConfigError("a model and a prior are required")
    rng = np.random.default_rng(config.seed)
    k_dims = events.dims_K
    horizon = events.horizon_T
    alpha, eta, theta = link.alpha, link.eta, link.theta

    dims = []
    for k in range(k_dims):
        sources = [l for l in range(k_dims) if model.graph_delta[l, k]]
        basis = HistogramBasis(model.memory_A, int(model.bins_J[k]))
        own = events.times[k]
        own = own[own >= 0.0]
        feats_ev = feature_matrix(events, basis, sources, own)
        pk = _resolve_prior(prior, k, sources, basis.num_bins_J, feats_ev.shape[0])
        dims.append((sources, basis, feats_ev, pk))

    # A wide draw from the prior (sigma = 5) can start the chain inside the
    # saturated phase of the sigmoid, where the latent-point rate collapses
    # and the chain is effectively absorbed; starting at the prior mean keeps
    # the first sweep in the responsive region.
    state = []
    for sources, basis, feats_ev, pk in dims:
        if config.init == "mean":
            state.append(pk.mean.copy())
        else:
            cf = cho_factor(pk.cov, lower=True)
            state.append(pk.mean + cf[0] @ rng.standard_normal(pk.dim))

    kept = [[] for _ in range(k_dims)]
    for sweep in range(config.n_iter):
        for k in range(k_dims):
            sources, basis, feats_ev, pk = dims[k]
            f = state[k]

            tilt_ev = alpha * (feats_ev.T @ f - eta)
            marks_ev = pg_sample_arr(np.abs(tilt_ev), rng)

            # latent Poisson with rate theta * sigmoid(-lam~) by thinning
            n_cand = rng.poisson(theta * horizon)
            cand = np.sort(rng.random(n_cand) * horizon)
            feats_cand = feature_matrix(events, basis, sources, cand)
            tilt_cand = alpha * (feats_cand.T @ f - eta)
            accept = rng.random(n_cand) < _sigmoid_np(-tilt_cand)
            feats_lat = feats_cand[:, accept]
            marks_lat = pg_sample_arr(np.abs(tilt_cand[accept]), rng)

            feats = np.concatenate([feats_ev, feats_lat], axis=1)
            marks = np.concatenate([marks_ev, marks_lat])
            is_event = np.concatenate([np.ones(marks_ev.size, dtype=bool),
                                       np.zeros(marks_lat.size, dtype=bool)])
            mean, cf = conjugate_update(feats, marks, is_event, alpha, eta, pk)
            state[k] = _draw_gaussian(mean, cf, rng)

        if sweep >= config.burn_in and (sweep - config.burn_in) % config.thin == 0:
            for k in range(k_dims):
                kept[k].append(state[k].copy())

    return GibbsResult(samples=tuple(np.asarray(c) for c in kept),
                       n_iter=config.n_iter, burn_in=config.burn_in,
                       thin=config.thin, model=model)


def _sigmoid_np(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))
