"""Gibbs sampler for the augmented sigmoid Hawkes posterior.

Serves as the MCMC oracle for validating variational output on small
problems.  The full conditional of dimension k involves no other
dimension's parameter, so each dimension runs its own chain, and each sweep
of it alternates

  1. Polya-Gamma marks at the observed events,  w_i ~ PG(1, |lam~_{T_i}|);
  2. a latent Poisson process on [0, T] with rate theta_k sigmoid(-lam~_t),
     drawn exactly per distinct feature column.  The features are constant
     between the breakpoints T_i + jA/J of the sources
     (``core.segment_points``), so a column c of summed segment width w_c
     holds N_c ~ Poisson(theta_k sigmoid(-lam~_c) w_c) latent points, each
     with a PG(1, |lam~_c|) mark;
  3. a draw of the parameter from its Gaussian full conditional,
     ``vi.conjugate_update`` with the points of one column counted together:
     weight N_c at the mean of their marks (the same update that CAVI runs
     at expected marks; see ``hawkes_vb.vi``).

Features are counted once per chain, at the events and at the segment
midpoints, and reduced to distinct columns (``core.segment_table``); the
events enter step 1 as those columns with multiplicities.  Only the running
dimension's columns are held.

The recentred drive is lam~_t = alpha (H(t)' f - eta); its sign is
irrelevant to the PG tilt (the distribution is symmetric in c), so tilts
are passed as absolute values.
"""

from dataclasses import dataclass

import numpy as np

from hawkes_vb import _blas
from hawkes_vb.core import (HistogramBasis, check_points, feature_matrix, segment_points,
                            segment_table)
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
        if self.n_iter - self.burn_in <= self.thin:
            # the kept draws are sweeps burn_in, burn_in + thin, ... below n_iter;
            # one draw has no standard deviation
            raise ConfigError(f"need n_iter - burn_in > thin to keep at least two draws, "
                              f"got n_iter={self.n_iter}, burn_in={self.burn_in}, "
                              f"thin={self.thin}")
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
    return mean + solve_triangular(prec_chol, z, lower=True, trans="T")


def check_latent_candidates(link, horizon_T):
    """ConfigError if theta T, the bound on a sweep's expected latent points
    per dimension, is more than ``core.MAX_POINTS``."""
    check_points(link.theta * horizon_T, "theta * horizon_T", "latent points per sweep")


@dataclass(frozen=True)
class _Dimension:
    """One dimension's sampling inputs, counted once per chain.

    The events enter as their distinct feature columns ``feats_ev``, with
    multiplicities ``n_ev``.  ``counts_seg`` holds the distinct count columns
    of the segments between breakpoints, kept as integers, and ``widths``
    their summed widths.
    """

    basis: HistogramBasis
    prior: object
    feats_ev: np.ndarray
    n_ev: np.ndarray
    counts_seg: np.ndarray
    widths: np.ndarray


def _dimension(events, k, sm, memory_A, prior):
    """Count dimension k's features once, at its events and at the midpoints
    of its segments, and keep the distinct columns of each."""
    basis = HistogramBasis(memory_A, sm.num_bins)
    own = events.times[k]
    own = own[own >= 0.0]
    pts = segment_points(events, basis, sm.active_sources)
    times = np.concatenate([own, 0.5 * (pts[:-1] + pts[1:])])
    ev_cols, n_ev, seg_cols, widths = segment_table(
        feature_matrix(events, basis, sm.active_sources, times), own.size, pts)
    return _Dimension(basis, prior, basis.features(ev_cols), n_ev, seg_cols, widths)


# Segment columns turned into float64 features at once by ``_drive_at``.
_BLOCK_COLUMNS = 1024


def _drive_at(basis, counts, f):
    """H' f at every column of a count table, one block of columns at a time,
    so that only the integer table (an eighth of the features) is held."""
    out = np.empty(counts.shape[1])
    for lo in range(0, out.size, _BLOCK_COLUMNS):
        out[lo:lo + _BLOCK_COLUMNS] = basis.features(counts[:, lo:lo + _BLOCK_COLUMNS]).T @ f
    return out


def _sweep(dim, f, link, rng):
    """One Gibbs sweep of one dimension from its state f; returns the new state.

    Segment column c holds N_c ~ Poisson(theta sigmoid(-lam~_c) w_c) latent
    points; the columns with N_c = 0 are dropped before any division.
    """
    from scipy.special import expit

    alpha, eta = link.alpha, link.eta
    tilts_seg = alpha * (_drive_at(dim.basis, dim.counts_seg, f) - eta)
    n_lat = rng.poisson(link.theta * expit(-tilts_seg) * dim.widths)
    drawn = n_lat > 0
    feats = np.concatenate([dim.feats_ev, dim.basis.features(dim.counts_seg[:, drawn])],
                           axis=1)
    tilts = np.concatenate([alpha * (dim.feats_ev.T @ f - eta), tilts_seg[drawn]])
    reps = np.concatenate([dim.n_ev, n_lat[drawn]])
    # one PG(1, |lam~|) mark per point: reps[i] at column i's tilt, summed per column
    marks = pg_sample_arr(np.abs(tilts), rng, reps)
    sums = np.add.reduceat(marks, np.cumsum(reps) - reps) if marks.size else marks
    is_event = np.arange(reps.size) < dim.n_ev.size
    mean, low = conjugate_update(feats, sums / reps, is_event, alpha, eta, dim.prior, reps)
    return _draw_gaussian(mean, low, rng)


def _chain(dim, config, link, rng):
    """The kept draws of one dimension's chain, shape (n_kept, d)."""
    # A wide draw from the prior (sigma = 5) can start the chain inside the
    # saturated phase of the sigmoid, where the latent-point rate collapses
    # and the chain is effectively absorbed; starting at the prior mean keeps
    # the first sweep in the responsive region.
    f = dim.prior.mean.copy()
    kept = []
    for sweep in range(config.n_iter):
        f = _sweep(dim, f, link, rng)
        if sweep >= config.burn_in and (sweep - config.burn_in) % config.thin == 0:
            kept.append(f)
    return np.asarray(kept)


def gibbs_sample(events, config, link, model, prior):
    """Run the sampler; returns one chain of parameter draws per dimension.

    ``model.submodel(k)`` fixes the column and depth of dimension k, and
    ``prior[k]`` is its GaussianPrior.  Reproducible for a fixed seed.  BLAS
    runs on one thread meanwhile, as in the variational fits.  A bound on the
    latent points per sweep, theta T, past ``core.MAX_POINTS`` is a
    ConfigError (``check_latent_candidates``).
    """
    check_link(link)
    check_latent_candidates(link, events.horizon_T)
    subs = [model.submodel(k) for k in range(events.dims_K)]
    priors = [_checked_prior(prior[k], k, sm) for k, sm in enumerate(subs)]
    rng = np.random.default_rng(config.seed)

    with _blas.single_threaded():  # small products; see hawkes_vb._blas
        kept = tuple(_chain(_dimension(events, k, sm, model.memory_A, priors[k]),
                            config, link, rng)
                     for k, sm in enumerate(subs))

    return GibbsResult(samples=kept,
                       n_iter=config.n_iter, burn_in=config.burn_in,
                       thin=config.thin)
