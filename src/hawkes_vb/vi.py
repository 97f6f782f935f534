"""Fixed-model mean-field variational inference for sigmoid Hawkes processes.

Within a model (graph column + histogram resolution per dimension) the
augmented posterior factorises over dimensions, and each factor over
(parameter, latent variables).  With phi_k(x) = theta_k sigmoid(alpha (x -
eta)) and recentred drive lam~_t = alpha (H(t)' f - eta), the optimal
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from hawkes_vb.core import SIGMOID, HistogramBasis, feature_matrix
from hawkes_vb.errors import ConfigError, NumericalError, UnsupportedLinkError
from hawkes_vb.pg import pg_mean

_JITTER = 1e-8


@dataclass(frozen=True)
class GaussianPrior:
    """Gaussian prior on the stacked per-dimension parameter (nu first)."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=np.float64)
        c = np.asarray(self.cov, dtype=np.float64)
        if c.shape != (m.size, m.size):
            raise ConfigError("prior covariance shape must match the mean")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", c)

    @property
    def dim(self):
        return self.mean.size

    @classmethod
    def isotropic(cls, dim, sigma=5.0, mean=0.0):
        return cls(mean=np.full(dim, float(mean)),
                   cov=np.eye(dim) * float(sigma) ** 2)


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
    def build(cls, horizon_T, n_gq, panel_order=10):
        """Gauss-Legendre nodes on [0, T].

        Above ``panel_order`` the rule is composite (equal panels of that
        order), which keeps node generation cheap for the large grids the
        default rule requests.
        """
        if horizon_T <= 0 or n_gq <= 0:
            return cls(points=np.empty(0), weights=np.empty(0))
        if n_gq <= panel_order:
            x, w = np.polynomial.legendre.leggauss(n_gq)
            return cls(points=(x + 1.0) * (horizon_T / 2.0),
                       weights=w * (horizon_T / 2.0))
        n_panels = int(math.ceil(n_gq / panel_order))
        x, w = np.polynomial.legendre.leggauss(panel_order)
        width = horizon_T / n_panels
        starts = np.arange(n_panels) * width
        pts = (starts[:, None] + (x[None, :] + 1.0) * (width / 2.0)).ravel()
        wts = np.tile(w * (width / 2.0), n_panels)
        return cls(points=pts, weights=wts)

    @classmethod
    def default(cls, horizon_T, memory_A, n_gq=None):
        """Default resolution: about five nodes per memory length."""
        if n_gq is None:
            n_gq = max(100, int(math.ceil(5.0 * horizon_T / memory_A)))
        return cls.build(horizon_T, n_gq)


@dataclass(frozen=True)
class VIConfig:
    max_iter: int = 100
    tol: float = 1e-3
    n_quad: int = None
    threads: int = None


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


class _DimensionProblem:
    """Per-dimension sufficient statistics shared by the CAVI iterations."""

    def __init__(self, feats_events, feats_quad, quad_weights, link, prior, horizon_T):
        self.e = feats_events          # (d, N_k) features at own events
        self.q = feats_quad            # (d, n_q) features at quadrature nodes
        self.v = quad_weights          # (n_q,)
        self.link = link
        self.prior = prior
        self.horizon_T = horizon_T
        cf = _chol_with_jitter(prior.cov)
        eye = np.eye(prior.dim)
        self.prior_prec = cho_solve(cf, eye)
        self.prior_logdet = _logdet_from_chol(cf)
        self.prior_prec_mean = self.prior_prec @ prior.mean

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
        if self.e.shape[1]:
            prec += alpha**2 * (self.e * w_e) @ self.e.T
        if self.q.shape[1]:
            prec += alpha**2 * (self.q * (self.v * w_q * rate_q)) @ self.q.T
        rhs = 2.0 * self.prior_prec_mean
        if self.e.shape[1]:
            rhs += alpha * self.e @ (2.0 * w_e * alpha * eta + 1.0)
        if self.q.shape[1]:
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
        if self.e.shape[1]:
            # log theta - log 2 + m/2 - log cosh(c/2), with the stable
            # log(2 cosh(c/2)) = c/2 + log1p(exp(-c))
            val += float(np.sum(math.log(link.theta) + 0.5 * m_e
                                - (0.5 * c_e + np.log1p(np.exp(-c_e)))))
        if self.q.shape[1]:
            val += float(self.v @ self.latent_rate(c_q, m_q))
        val -= link.theta * self.horizon_T
        return val


# Starting from the full prior covariance stalls: a wide factor inflates the
# tilts c, the Polya-Gamma means collapse towards 1/(2c), and the iteration
# crawls along a near-flat ridge for thousands of steps before recovering.
# A small initial covariance keeps the tilts at their point-mass scale and
# the ascent converges in a handful of iterations.
_INIT_COV_SCALE = 1e-4


def _fit_dimension(problem, max_iter, tol):
    mean = problem.prior.mean.copy()
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
    """

    def __init__(self, events, quad):
        self.events = events
        self.quad = quad
        self._quad = {}
        self._ev = {}

    def _rows(self, cache, key, basis, source, times):
        if key not in cache:
            mat = feature_matrix(self.events, basis, [source], times)
            cache[key] = mat[1:]
        return cache[key]

    def stack(self, basis, sources, k):
        """(events_matrix, quad_matrix) for receiving dimension k."""
        own = self.events.times[k]
        own = own[own >= 0.0]
        d = 1 + len(sources) * basis.num_bins_J
        e = np.empty((d, own.size))
        q = np.empty((d, self.quad.points.size))
        e[0] = 1.0
        q[0] = 1.0
        j = basis.num_bins_J
        for pos, l in enumerate(sources):
            rows = slice(1 + pos * j, 1 + (pos + 1) * j)
            e[rows] = self._rows(self._ev, (l, j, k), basis, l, own)
            q[rows] = self._rows(self._quad, (l, j), basis, l, self.quad.points)
        return e, q


def _resolve_prior(prior, k, sources, j_bins, dim):
    """Prior of dimension k: ``prior[k]`` from a list, or ``prior(k, sources, J)``."""
    pk = prior(k, sources, j_bins) if callable(prior) else prior[k]
    if pk.dim != dim:
        raise ConfigError(f"prior dimension {pk.dim} of dimension {k} does not "
                          f"match the model's {dim} parameters")
    return pk


def _build_problem(cache, link, prior, memory_A, k, sources, j_bins):
    """The CAVI problem of receiving dimension k with the given column and J."""
    if link.kind != SIGMOID:
        raise UnsupportedLinkError("variational inference requires the sigmoid link")
    e, q = cache.stack(HistogramBasis(memory_A, j_bins), sources, k)
    pk = _resolve_prior(prior, k, sources, j_bins, e.shape[0])
    return _DimensionProblem(e, q, cache.quad.weights, link, pk,
                             cache.events.horizon_T)


def fit_candidates(tasks, cache, link, prior, memory_A, max_iter, tol, threads=None):
    """Fit every task ``(k, sources, J)``; posteriors come back in task order.

    ``prior`` is a list of per-dimension GaussianPrior or a callable
    ``prior(k, sources, J) -> GaussianPrior``.  The tasks are independent,
    so with ``threads > 1`` they run in a thread pool; each fit is the same
    computation either way, so results do not depend on the thread count.
    """
    def solve(task):
        problem = _build_problem(cache, link, prior, memory_A, *task)
        return _fit_dimension(problem, max_iter, tol)

    if threads is not None and threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(solve, tasks))
    return [solve(task) for task in tasks]


def _model_tasks(model, dims):
    """One task ``(k, sources, J)`` per receiving dimension k of a fixed model."""
    return [(k, [l for l in range(model.graph_delta.shape[0]) if model.graph_delta[l, k]],
             int(model.bins_J[k])) for k in dims]


def cavi_fixed_model(events, model, link, prior, quad, max_iter=100, tol=1e-3,
                     cache=None, dims=None, threads=None):
    """Coordinate-ascent VI in a fixed model; returns one posterior per dim.

    ``prior`` is either a list of per-dimension GaussianPrior or a callable
    ``prior(k, sources, J) -> GaussianPrior``.  Dimensions are independent
    and run as parallel tasks; the result order is deterministic.
    """
    if cache is None:
        cache = FeatureCache(events, quad)
    if dims is None:
        dims = range(events.dims_K)
    return fit_candidates(_model_tasks(model, dims), cache, link, prior,
                          model.memory_A, max_iter, tol, threads)


def elbo(events, model, link, prior, posterior, quad, dims=None):
    """Evidence lower bound of a per-dimension Gaussian factor list (summed)."""
    cache = FeatureCache(events, quad)
    if dims is None:
        dims = range(events.dims_K)
    total = 0.0
    for task, post in zip(_model_tasks(model, dims), posterior):
        problem = _build_problem(cache, link, prior, model.memory_A, *task)
        total += problem.elbo(post.mean, post.cov, problem.moments(post.mean, post.cov))
    return total
