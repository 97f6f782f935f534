"""Fixed-model mean-field variational inference for sigmoid Hawkes processes.

Within a model (graph column + histogram resolution per dimension) the
augmented posterior factorises over dimensions, and each factor over
(parameter, latent variables).  With phi(x) = theta sigmoid(alpha (x - eta))
and recentred drive lam~_t = alpha (H(t)' f - eta), the optimal
parameter factor is Gaussian with closed-form updates

    Sigma~^{-1} = alpha^2 [ sum_i E[w_i] H_i H_i' + int E[w] H H' Lam dt ] + Sigma^{-1}
    mu~ = Sigma~ / 2 * [ alpha sum_i (2 E[w_i] alpha eta + 1) H_i
                         + alpha int (2 E[w] alpha eta - 1) H Lam dt + 2 Sigma^{-1} mu ]

where E[w] at tilt c = sqrt(E[lam~^2]) is the tilted Polya-Gamma mean and
Lam(t) = theta exp(-E[lam~_t]/2) / (2 cosh(c_t/2)) is the latent-event rate.
The time integrals are evaluated on a fixed quadrature grid.  Iterating the
two factor updates is coordinate ascent on the evidence lower bound, whose
collapsed closed form (latent factor at its optimum) is

    ELBO = d/2 + log|Sigma~|/2 - tr(Sigma^{-1} Sigma~)/2
           - (mu~ - mu)' Sigma^{-1} (mu~ - mu)/2 - log|Sigma|/2
           + sum_i [ log theta - log 2 + E[lam~_{T_i}]/2 - log cosh(c_{T_i}/2) ]
           + int Lam(t) dt - theta T,

up to a constant that does not depend on the model, so the same convention
serves model comparison.
"""

import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from hawkes_vb import _blas
from hawkes_vb.core import SIGMOID, HistogramBasis, feature_matrix
from hawkes_vb.errors import ConfigError, NumericalError, UnsupportedLinkError
from hawkes_vb.pg import pg_mean

_JITTER = 1e-8
_PANEL_ORDER = 10  # Gauss-Legendre order of one panel of the composite rule


def _chol_with_jitter(a):
    """Cholesky factor of a, retrying once with a diagonal jitter."""
    try:
        return cho_factor(a, lower=True)
    except np.linalg.LinAlgError:
        pass
    bump = _JITTER * float(np.mean(np.diag(a)))
    try:
        return cho_factor(a + bump * np.eye(a.shape[0]), lower=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("update matrix not positive definite after jitter") from exc


def _logdet_from_chol(cf):
    return 2.0 * float(np.sum(np.log(np.diag(cf[0]))))


@dataclass(frozen=True)
class GaussianPrior:
    """Gaussian prior on the stacked per-dimension parameter (nu first).

    The covariance is factorised once, at construction, so a non-finite mean
    or covariance (ConfigError) or one that is not positive definite
    (NumericalError) fails here, before any fit starts.
    """

    mean: np.ndarray
    cov: np.ndarray
    _factors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=np.float64)
        c = np.asarray(self.cov, dtype=np.float64)
        if c.shape != (m.size, m.size):
            raise ConfigError("prior covariance shape must match the mean")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(c))):
            raise ConfigError("prior mean and covariance must be finite")
        cf = _chol_with_jitter(c)
        prec = cho_solve(cf, np.eye(m.size))
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", c)
        object.__setattr__(self, "_factors", (prec, prec @ m, _logdet_from_chol(cf)))

    @property
    def dim(self):
        return self.mean.size

    def factors(self):
        """(precision, precision @ mean, log|cov|)."""
        return self._factors

    @classmethod
    def isotropic(cls, dim, sigma=5.0, mean=0.0):
        # a product, not a power: past the float range it gives inf, which
        # __post_init__ rejects, where ** raises OverflowError
        return cls(mean=np.full(dim, float(mean)),
                   cov=np.diag(np.full(dim, float(sigma) * float(sigma))))


@dataclass(frozen=True)
class GaussianPosterior:
    """Converged variational factor of one dimension."""

    mean: np.ndarray
    cov: np.ndarray
    elbo: float
    iterations: int
    converged: bool
    elbo_trace: tuple = ()


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights integrating over [0, T]; weights sum to T."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def n_gq(self):
        return self.points.size

    @classmethod
    def build(cls, horizon_T, n_gq):
        """Composite Gauss-Legendre rule on [0, T]: ceil(n_gq / 10) equal panels
        of ``_PANEL_ORDER`` (10) nodes each; empty when T or n_gq is not positive."""
        if horizon_T <= 0 or n_gq <= 0:
            return cls(points=np.empty(0), weights=np.empty(0))
        n_panels = int(math.ceil(n_gq / _PANEL_ORDER))
        x, w = np.polynomial.legendre.leggauss(_PANEL_ORDER)
        width = horizon_T / n_panels
        starts = np.arange(n_panels) * width
        pts = (starts[:, None] + (x[None, :] + 1.0) * (width / 2.0)).ravel()
        wts = np.tile(w * (width / 2.0), n_panels)
        return cls(points=pts, weights=wts)

    @classmethod
    def default(cls, horizon_T, memory_A):
        """Default resolution: about five nodes per memory length."""
        return cls.build(horizon_T, max(100, int(math.ceil(5.0 * horizon_T / memory_A))))


@dataclass(frozen=True)
class VIConfig:
    max_iter: int = 100
    tol: float = 1e-3
    threads: int = None


class _DimensionProblem:
    """Per-dimension sufficient statistics shared by the CAVI iterations."""

    def __init__(self, feats_events, feats_quad, quad_weights, link, prior, horizon_T):
        self.e = feats_events          # (d, N_k) features at own events
        self.q = feats_quad            # (d, n_q) features at quadrature nodes
        self.v = quad_weights          # (n_q,)
        self.link = link
        self.prior = prior
        self.horizon_T = horizon_T
        self.prior_prec, self.prior_prec_mean, self.prior_logdet = prior.factors()

    def second_moment_stats(self, mean, cov, feats):
        """(c, m) with c = sqrt(E[lam~^2]) and m = E[lam~] at the columns."""
        alpha, eta = self.link.alpha, self.link.eta
        proj = feats.T @ mean
        quad = np.einsum("ij,ij->j", feats, cov @ feats)
        quad = np.maximum(quad, 0.0)
        m = alpha * (proj - eta)
        c = alpha * np.sqrt(quad + (proj - eta) ** 2)
        return c, m

    def latent_rate(self, c, m):
        """Lam(t) = theta exp(-m/2) / (2 cosh(c/2)), overflow-safe."""
        # log(2 cosh(x)) = |x| + log1p(exp(-2|x|)); c >= |m| keeps exponents <= 0
        log_rate = math.log(self.link.theta) - 0.5 * m - (0.5 * c + np.log1p(np.exp(-c)))
        return np.exp(log_rate)

    def moments(self, mean, cov):
        """(c, m) at the events and at the quadrature nodes, in that order."""
        return (self.second_moment_stats(mean, cov, self.e),
                self.second_moment_stats(mean, cov, self.q))

    def update(self, mom):
        """Next (mean, cov) from the moments of the current factor."""
        alpha, eta = self.link.alpha, self.link.eta
        (c_e, _), (c_q, m_q) = mom
        w_e = pg_mean(c_e)
        w_q = pg_mean(c_q)
        rate_q = self.latent_rate(c_q, m_q)

        prec = self.prior_prec.copy()
        prec += alpha**2 * (self.e * w_e) @ self.e.T
        prec += alpha**2 * (self.q * (self.v * w_q * rate_q)) @ self.q.T
        rhs = 2.0 * self.prior_prec_mean
        rhs += alpha * self.e @ (2.0 * w_e * alpha * eta + 1.0)
        rhs += alpha * self.q @ (self.v * (2.0 * w_q * alpha * eta - 1.0) * rate_q)

        cf = _chol_with_jitter(prec)
        new_cov = cho_solve(cf, np.eye(prec.shape[0]))
        new_cov = 0.5 * (new_cov + new_cov.T)
        new_mean = 0.5 * cho_solve(cf, rhs)
        return new_mean, new_cov

    def elbo(self, mean, cov, mom):
        """Collapsed evidence lower bound at the factor (mean, cov) with moments mom."""
        link = self.link
        d = self.prior.dim
        cf = _chol_with_jitter(cov)
        logdet_cov = _logdet_from_chol(cf)
        diff = mean - self.prior.mean
        val = 0.5 * d + 0.5 * logdet_cov - 0.5 * float(np.sum(self.prior_prec * cov))
        val -= 0.5 * float(diff @ self.prior_prec @ diff)
        val -= 0.5 * self.prior_logdet
        (c_e, m_e), (c_q, m_q) = mom
        # log theta - log 2 + m/2 - log cosh(c/2), with the stable
        # log(2 cosh(c/2)) = c/2 + log1p(exp(-c))
        val += float(np.sum(math.log(link.theta) + 0.5 * m_e
                            - (0.5 * c_e + np.log1p(np.exp(-c_e)))))
        val += float(self.v @ self.latent_rate(c_q, m_q))
        val -= link.theta * self.horizon_T
        return val


# Starting from the full prior covariance stalls: a wide factor inflates the
# tilts c, the Polya-Gamma means collapse towards 1/(2c), and the iteration
# crawls along a near-flat ridge for thousands of steps before recovering.
# A small initial covariance keeps the tilts at their point-mass scale and
# the ascent converges in a handful of iterations.
_INIT_COV_SCALE = 1e-4


def _split_mean(mean):
    """A sub-model's parameter written on the bins of the next depth.

    Each bin is the union of its two children and a child's basis function is
    twice as tall, so halving every weight onto both children gives the same
    kernel, and the same drive; nu is copied.
    """
    return np.concatenate([mean[:1], np.repeat(0.5 * mean[1:], 2)])


def _fit_dimension(problem, max_iter, tol, start=None):
    """CAVI from the mean ``start`` (default: the prior mean) and a small covariance."""
    mean = problem.prior.mean.copy() if start is None else start
    cov = problem.prior.cov * _INIT_COV_SCALE
    mom = problem.moments(mean, cov)
    trace = [problem.elbo(mean, cov, mom)]
    converged = False
    iterations = 0
    for _ in range(max_iter):
        mean, cov = problem.update(mom)
        mom = problem.moments(mean, cov)
        iterations += 1
        trace.append(problem.elbo(mean, cov, mom))
        if abs(trace[-1] - trace[-2]) < tol * max(1.0, abs(trace[-2])):
            converged = True
            break
    return GaussianPosterior(mean=mean, cov=cov, elbo=trace[-1],
                             iterations=iterations, converged=converged,
                             elbo_trace=tuple(trace))


class FeatureCache:
    """Histogram features of the data, shared across models and dimensions.

    Quadrature features depend on (source, J) only; event features also on
    the receiving dimension whose event times are the evaluation points.
    Each block is built once, also when pool workers ask for it together.
    """

    def __init__(self, events, quad):
        self.events = events
        self.quad = quad
        self._lock = threading.Lock()
        self._blocks = {}  # (source, J) or (source, J, k) -> Future of the rows

    def _rows(self, key, basis, source, times):
        """Rows of ``source``; the first asker builds them, later ones wait."""
        with self._lock:
            block = self._blocks.get(key)
            first = block is None
            if first:
                block = self._blocks[key] = Future()
        if first:
            try:
                block.set_result(feature_matrix(self.events, basis, [source], times)[1:])
            except Exception as exc:
                block.set_exception(exc)
        return block.result()

    def stack(self, submodel, memory_A, k):
        """(events_matrix, quad_matrix) of ``submodel`` for receiving dimension k."""
        own = self.events.times[k]
        own = own[own >= 0.0]
        d = submodel.param_dim
        e = np.empty((d, own.size))
        q = np.empty((d, self.quad.points.size))
        e[0] = 1.0
        q[0] = 1.0
        j = submodel.num_bins
        basis = HistogramBasis(memory_A, j)
        for l in submodel.active_sources:
            rows = submodel.block(l)
            e[rows] = self._rows((l, j, k), basis, l, own)
            q[rows] = self._rows((l, j), basis, l, self.quad.points)
        return e, q


def _checked_prior(prior, k, submodel):
    """``prior`` if its dimension is the sub-model's parameter count, else ConfigError."""
    if prior.dim != submodel.param_dim:
        raise ConfigError(f"prior dimension {prior.dim} of dimension {k} does not "
                          f"match the model's {submodel.param_dim} parameters")
    return prior


def usable_cores():
    """Number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _ladders(tasks):
    """Split ``tasks`` into depth ladders, keeping their order.

    A ladder is a run of consecutive tasks of one receiving dimension and one
    non-empty column whose depths rise by one; every other task is a ladder
    of its own.
    """
    ladders = []
    for task in tasks:
        k, submodel, _ = task
        if ladders:
            last_k, last, _ = ladders[-1][-1]
            if (k == last_k and submodel.column == last.column and any(submodel.column)
                    and submodel.depth == last.depth + 1):
                ladders[-1].append(task)
                continue
        ladders.append([task])
    return ladders


def fit_candidates(tasks, cache, link, memory_A, max_iter, tol, threads=None):
    """Fit every task ``(k, submodel, prior)``; posteriors come back in task order.

    Each depth ladder (see ``_ladders``) is one chain: its first fit starts at
    the prior mean, and each later fit at the previous fit's mean split onto
    the finer bins, which has the same kernel.  Chains are independent and
    run in a pool of ``threads`` workers (default: the usable cores), never
    more than there are chains.  BLAS runs on one thread meanwhile, so
    ``threads`` is the whole core budget, and each chain is the same
    computation either way: results do not depend on any thread count.
    """
    def problem(k, submodel, prior):
        prior = _checked_prior(prior, k, submodel)
        e, q = cache.stack(submodel, memory_A, k)
        return _DimensionProblem(e, q, cache.quad.weights, link, prior,
                                 cache.events.horizon_T)

    def solve(ladder):
        posts = []
        for task in ladder:
            start = _split_mean(posts[-1].mean) if posts else None
            # no reference outlives the fit, so its stacked features are freed
            # before the next rung stacks its own
            posts.append(_fit_dimension(problem(*task), max_iter, tol, start))
        return posts

    if threads is None:
        threads = usable_cores()
    elif threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    if link.kind != SIGMOID:
        raise UnsupportedLinkError("variational inference requires the sigmoid link")
    if not math.isfinite(link.alpha * link.alpha):
        raise ConfigError(f"link alpha {link.alpha:g} is too large: its square overflows")
    ladders = _ladders(tasks)
    workers = min(threads, len(ladders))
    with _blas.single_threaded():
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                chains = list(pool.map(solve, ladders))
        else:
            chains = [solve(ladder) for ladder in ladders]
    return [post for chain in chains for post in chain]


def cavi_fixed_model(events, model, link, prior, quad, max_iter=100, tol=1e-3,
                     dims=None, threads=None):
    """Coordinate-ascent VI in a fixed model; returns one posterior per dim.

    ``prior[k]`` is the GaussianPrior of dimension k.  Dimensions are
    independent and run as parallel tasks; the result order is deterministic.
    """
    if dims is None:
        dims = range(events.dims_K)
    tasks = [(k, model.submodel(k), prior[k]) for k in dims]
    return fit_candidates(tasks, FeatureCache(events, quad), link, model.memory_A,
                          max_iter, tol, threads)
