"""Gibbs sampler for the augmented sigmoid Hawkes posterior.

Serves as the MCMC oracle for validating variational output on small
problems.  Per sweep and per dimension k it alternates

  1. Polya-Gamma marks at the observed events,  w_i ~ PG(1, |lam~_{T_i}|);
  2. a latent Poisson process on [0, T] with rate theta_k sigmoid(-lam~_t),
     sampled exactly by thinning against the constant bound theta_k, with
     PG marks at the accepted points;
  3. a draw of the parameter from its Gaussian full conditional,
     ``vi.conjugate_update`` with every point counted once (the same update
     that CAVI runs at expected marks; see ``hawkes_vb.vi``).

The recentred drive is lam~_t = alpha (H(t)' f - eta); its sign is
irrelevant to the PG tilt (the distribution is symmetric in c), so tilts
are passed as absolute values.
"""

from dataclasses import dataclass

import numpy as np

from hawkes_vb import _blas
from hawkes_vb.core import HistogramBasis, check_points, feature_matrix
from hawkes_vb.errors import ConfigError
from hawkes_vb.pg import pg_sample_arr
from hawkes_vb.vi import _checked_prior, check_link, conjugate_update


@dataclass(frozen=True)
class GibbsConfig:
    n_iter: int = 3000
    burn_in: int = 500
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        if not self.n_iter > self.burn_in >= 0:
            raise ConfigError(f"need n_iter > burn_in >= 0, got n_iter={self.n_iter}, "
                              f"burn_in={self.burn_in}")
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class GibbsResult:
    """Kept draws per dimension, shape (n_kept, d_k)."""

    samples: tuple
    n_iter: int
    burn_in: int
    thin: int

    def mean(self, k):
        return self.samples[k].mean(axis=0)

    def sd(self, k):
        return self.samples[k].std(axis=0, ddof=1)


def _draw_gaussian(mean, prec_chol, rng):
    """Sample N(mean, P^{-1}) given the lower Cholesky factor of P."""
    from scipy.linalg import solve_triangular

    z = rng.standard_normal(mean.size)
    return mean + solve_triangular(prec_chol[0], z, lower=True, trans="T")


def check_latent_candidates(link, horizon_T):
    """ConfigError if a sweep's expected latent candidates per dimension,
    theta T, are more than ``core.MAX_POINTS``."""
    check_points(link.theta * horizon_T, "theta * horizon_T", "latent candidates per sweep")


def gibbs_sample(events, config, link, model, prior):
    """Run the sampler; returns one chain of parameter draws per dimension.

    ``model.submodel(k)`` fixes the column and depth of dimension k, and
    ``prior[k]`` is its GaussianPrior.  Reproducible for a fixed seed.  BLAS
    runs on one thread meanwhile, as in the variational fits.  Too many
    latent candidates per sweep is a ConfigError (``check_latent_candidates``).
    """
    from scipy.special import expit

    check_link(link)
    rng = np.random.default_rng(config.seed)
    k_dims = events.dims_K
    horizon = events.horizon_T
    alpha, eta, theta = link.alpha, link.eta, link.theta
    check_latent_candidates(link, horizon)

    dims = []
    for k in range(k_dims):
        sm = model.submodel(k)
        pk = _checked_prior(prior[k], k, sm)
        basis = HistogramBasis(model.memory_A, sm.num_bins)
        own = events.times[k]
        own = own[own >= 0.0]
        feats_ev = basis.features(feature_matrix(events, basis, sm.active_sources, own))
        dims.append((sm.active_sources, basis, feats_ev, pk))

    # A wide draw from the prior (sigma = 5) can start the chain inside the
    # saturated phase of the sigmoid, where the latent-point rate collapses
    # and the chain is effectively absorbed; starting at the prior mean keeps
    # the first sweep in the responsive region.
    state = [pk.mean.copy() for _, _, _, pk in dims]

    kept = [[] for _ in range(k_dims)]
    with _blas.single_threaded():  # small products; see hawkes_vb._blas
        for sweep in range(config.n_iter):
            for k in range(k_dims):
                sources, basis, feats_ev, pk = dims[k]
                f = state[k]

                tilt_ev = alpha * (feats_ev.T @ f - eta)
                marks_ev = pg_sample_arr(np.abs(tilt_ev), rng)

                # latent Poisson with rate theta * sigmoid(-lam~) by thinning
                n_cand = rng.poisson(theta * horizon)
                cand = np.sort(rng.random(n_cand) * horizon)
                feats_cand = basis.features(feature_matrix(events, basis, sources, cand))
                tilt_cand = alpha * (feats_cand.T @ f - eta)
                accept = rng.random(n_cand) < expit(-tilt_cand)
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
                       thin=config.thin)
