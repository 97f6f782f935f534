"""Fixed-model mean-field variational inference for sigmoid Hawkes processes.

Within a model (graph column + histogram resolution per dimension) the
augmented posterior factorises over dimensions, and each factor over
(parameter, latent variables).  With phi(x) = theta sigmoid(alpha (x - eta))
and recentred drive lam~_t = alpha (H(t)' f - eta), the optimal parameter
factor is the Gibbs full conditional of the parameter (``conjugate_update``)
at expected marks: each Polya-Gamma mark becomes its mean, and the latent
Poisson points become their rate on the compensator columns,

    Sigma~^{-1} = Sigma^{-1} + alpha^2 H diag(rho u) H'
    mu~ = Sigma~ ( H [rho (alpha s + alpha^2 eta u)] + Sigma^{-1} mu ).

H stacks the features at the dimension's event columns, then at its
compensator columns; u = E[w] is the tilted Polya-Gamma mean at tilt
c = sqrt(E[lam~^2]); s is +1/2 at events and -1/2 elsewhere; and rho is the
multiplicity m of an event column and w Lam at a compensator column of
weight w, where Lam = theta exp(-E[lam~]/2) / (2 cosh(c/2)) is the
latent-event rate.  Iterating the two factor updates is coordinate ascent on
the evidence lower bound, whose collapsed closed form (latent factor at its
optimum) is

    ELBO = d/2 + log|Sigma~|/2 - tr(Sigma^{-1} Sigma~)/2
           - (mu~ - mu)' Sigma^{-1} (mu~ - mu)/2 - log|Sigma|/2
           + sum_i [ log theta - log 2 + E[lam~_{T_i}]/2 - log cosh(c_{T_i}/2) ]
           + int Lam(t) dt - theta T,

up to a constant that does not depend on the model, so the same convention
serves model comparison.

The features are constant between the breakpoints T_i + jA/J of the
sub-model's sources, so the event sum runs over the distinct event columns,
each m times, and the integral is exactly a sum over the distinct segment
columns, each weighted by its summed width w_c.  A sub-model integrates so
when its distinct segment columns are fewer than the quadrature nodes
(``QuadratureGrid.default``: about 2.5 per memory length A); else the
compensator columns are the nodes t_j, of weights v_j, and each own event is
a column of its own.  A fit counts each column once, at its receivers' events
and then its segments or the nodes, and every depth sums that table's bins
(``_task_tables``).
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from hawkes_vb import _blas
from hawkes_vb.core import (SIGMOID, HistogramBasis, check_points, distinct_columns,
                            feature_matrix, segment_points, segment_widths, summed_bins)
from hawkes_vb.errors import ConfigError, NumericalError, UnsupportedLinkError
from hawkes_vb.pg import pg_mean

_JITTER = 1e-8
_PANEL_ORDER = 10  # Gauss-Legendre order of one panel of the composite rule


def _chol_with_jitter(a):
    """Cholesky factor of a, retrying once with a diagonal jitter."""
    from scipy.linalg import cho_factor

    try:
        return cho_factor(a, lower=True)
    except np.linalg.LinAlgError:  # a ValueError too, so caught first
        pass
    except ValueError as exc:  # cho_factor's check for NaN and infinity
        raise NumericalError("matrix to factorise is not finite") from exc
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
    or covariance or one too small for a finite precision (ConfigError), or
    one that is not positive definite (NumericalError), fails here, before
    any fit starts.
    """

    mean: np.ndarray
    cov: np.ndarray
    _factors: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a fit's first scipy.linalg import: every prior is made in the
        # calling thread before fit_candidates starts its pool
        from scipy.linalg import cho_solve

        m = np.asarray(self.mean, dtype=np.float64)
        c = np.asarray(self.cov, dtype=np.float64)
        if c.shape != (m.size, m.size):
            raise ConfigError("prior covariance shape must match the mean")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(c))):
            raise ConfigError("prior mean and covariance must be finite")
        cf = _chol_with_jitter(c)
        prec = cho_solve(cf, np.eye(m.size))
        if not (np.all(np.isfinite(prec)) and np.all(np.isfinite(prec @ m))):
            raise ConfigError("prior precision (or precision times mean) is not finite: "
                              "the prior covariance is too small")
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
        """N(mean, sigma^2 I) in ``dim`` dimensions; a covariance of more than
        ``MAX_POINTS`` entries is a ConfigError, raised before it is allocated."""
        check_points(dim * dim, f"{dim}^2", "prior covariance entries")
        # a product, not a power: past the float range it gives inf, which
        # __post_init__ rejects, where ** raises OverflowError
        var = float(sigma) * float(sigma)
        if sigma and not var:
            raise ConfigError(f"prior sigma {sigma:g} is too small: its square is 0")
        return cls(mean=np.full(dim, float(mean)), cov=np.diag(np.full(dim, var)))


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
        of ``_PANEL_ORDER`` (10) nodes each; empty when T or n_gq is not positive.
        More than ``MAX_POINTS`` nodes is a ConfigError."""
        check_points(n_gq, "n_gq", "quadrature nodes")
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
        """Default resolution: about 2.5 nodes per memory length, at least 100.

        The integrand is constant between the breakpoints T_i + jA/J, so a
        wider panel loses no polynomial order; on the K = 10 recovery sweep,
        2.5 nodes per memory length kept the exact-graph counts and the depth
        accuracy of 5."""
        nodes = 2.5 * horizon_T / memory_A
        check_points(nodes, "2.5 horizon_T / memory_A", "quadrature nodes")  # before ceil
        return cls.build(horizon_T, max(100, int(math.ceil(nodes))))


@dataclass(frozen=True)
class VIConfig:
    max_iter: int = 100
    tol: float = 1e-3
    threads: int = None


def conjugate_update(feats, marks, is_event, alpha, eta, prior, weights=1.0):
    """Gaussian full conditional of the parameter given Polya-Gamma marks.

    ``feats`` is (d, n) with one column per point, ``marks`` holds the marks u
    (draws in the Gibbs sampler, means in CAVI) and ``is_event`` flags the
    observed events (s = +1/2; -1/2 elsewhere).  A point counts ``weights``
    times: 1 at an event or a latent point, v_j Lam(t_j) at a quadrature node.
    With rho = weights, returns the mean and the lower Cholesky factor of

        P = Sigma^{-1} + alpha^2 H diag(rho u) H',
        mean = P^{-1} ( H [rho (alpha s + alpha^2 eta u)] + Sigma^{-1} mu ).

    The Gram is formed as S S' with S = H diag(sqrt(rho u)), a symmetric
    product that takes half the flops.  A right-hand side that is not finite
    is a NumericalError.
    """
    from scipy.linalg import cho_solve

    prior_prec, prior_prec_mean, _ = prior.factors()
    scaled = feats * np.sqrt(weights * marks)
    prec = prior_prec + alpha**2 * (scaled @ scaled.T)
    s = np.where(is_event, 0.5, -0.5)
    rhs = feats @ (weights * (alpha * s + alpha**2 * eta * marks)) + prior_prec_mean
    if not np.all(np.isfinite(rhs)):
        raise NumericalError("right-hand side of the update is not finite")
    cf = _chol_with_jitter(prec)
    return cho_solve(cf, rhs), cf


class _DimensionProblem:
    """One dimension's CAVI problem: feature columns with per-column weights.

    The first ``n_events`` columns of ``feats`` are events, each counted
    ``mult`` times: once at an own event, its multiplicity at a distinct
    event column.  The rest are compensator columns of weights ``weights``:
    the quadrature weights v_j at the nodes, or the summed widths w_c of the
    distinct segment columns.
    """

    def __init__(self, feats, n_events, weights, link, prior, horizon_T, mult=1.0):
        self.feats = feats              # (d, events + compensator columns)
        self.n_events = n_events
        self.mult = np.broadcast_to(np.asarray(mult, dtype=np.float64), (n_events,))
        self.is_event = np.arange(feats.shape[1]) < self.n_events
        self.weights = weights
        self.link = link
        self.prior = prior
        self.horizon_T = horizon_T
        self.prior_prec, _, self.prior_logdet = prior.factors()

    def latent_rate(self, c, m):
        """Lam(t) = theta exp(-m/2) / (2 cosh(c/2)), overflow-safe."""
        # log(2 cosh(x)) = |x| + log1p(exp(-2|x|)); c >= |m| keeps exponents <= 0
        log_rate = math.log(self.link.theta) - 0.5 * m - (0.5 * c + np.log1p(np.exp(-c)))
        return np.exp(log_rate)

    def moments(self, mean, cov):
        """(c, m, rate): c = sqrt(E[lam~^2]) and m = E[lam~] at every column,
        and the latent rate Lam at the compensator columns."""
        alpha, eta = self.link.alpha, self.link.eta
        proj = self.feats.T @ mean - eta
        quad = np.einsum("ij,ij->j", self.feats, cov @ self.feats)
        quad = np.maximum(quad, 0.0)
        c, m = alpha * np.sqrt(quad + proj ** 2), alpha * proj
        n = self.n_events
        return c, m, self.latent_rate(c[n:], m[n:])

    def update(self, mom):
        """Next (mean, cov) from the moments of the current factor."""
        from scipy.linalg import cho_solve

        c, _, rate = mom
        weights = np.concatenate([self.mult, self.weights * rate])
        new_mean, cf = conjugate_update(self.feats, pg_mean(c), self.is_event,
                                        self.link.alpha, self.link.eta, self.prior,
                                        weights)
        new_cov = cho_solve(cf, np.eye(new_mean.size))
        return new_mean, 0.5 * (new_cov + new_cov.T)

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
        c, m, rate = mom
        n = self.n_events
        c_e, m_e = c[:n], m[:n]
        # log theta - log 2 + m/2 - log cosh(c/2), with the stable
        # log(2 cosh(c/2)) = c/2 + log1p(exp(-c))
        val += float(self.mult @ (math.log(link.theta) + 0.5 * m_e
                                  - (0.5 * c_e + np.log1p(np.exp(-c_e)))))
        val += float(self.weights @ rate)
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


def _finite(elbo, iterations):
    """``elbo``, or NumericalError if it is not finite."""
    if not math.isfinite(elbo):
        raise NumericalError(f"ELBO is {elbo} after {iterations} CAVI iterations")
    return elbo


def _fit_dimension(problem, max_iter, tol, start=None):
    """CAVI from the mean ``start`` (default: the prior mean) and a small covariance.

    Stops with NumericalError at the first ELBO that is not finite.
    """
    mean = problem.prior.mean.copy() if start is None else start
    cov = problem.prior.cov * _INIT_COV_SCALE
    mom = problem.moments(mean, cov)
    trace = [_finite(problem.elbo(mean, cov, mom), 0)]
    converged = False
    iterations = 0
    for _ in range(max_iter):
        mean, cov = problem.update(mom)
        mom = problem.moments(mean, cov)
        iterations += 1
        trace.append(_finite(problem.elbo(mean, cov, mom), iterations))
        if abs(trace[-1] - trace[-2]) < tol * max(1.0, abs(trace[-2])):
            converged = True
            break
    return GaussianPosterior(mean=mean, cov=cov, elbo=trace[-1],
                             iterations=iterations, converged=converged,
                             elbo_trace=tuple(trace))


def _task_tables(tasks, events, quad, memory_A):
    """The count table of every task ``(k, submodel, prior)``.

    Returns ``{(k, submodel): (event_counts, multiplicities,
    compensator_counts, weights)}``.  Each column is counted once
    (``feature_matrix``), at its finest depth: at the own events of every
    dimension that receives it, in dimension order, then at the midpoints of
    its segments, or at the quadrature nodes.  A depth integrates on its
    distinct segment columns, of summed widths (``core.segment_widths``),
    when they are fewer than the nodes; its counts, event columns with their
    multiplicities and segment columns, sum the bins of that table
    (``core.summed_bins``), which is exact because every size is a power of
    two.  Otherwise the task gets the table's counts at its own events, each
    of multiplicity 1, and at the nodes, of weights ``quad.weights``, and
    ``_problem`` sums them to its depth.  Depth 0 decides first: each of its
    segments splits into finer ones, so no finer depth has fewer distinct
    columns, and a column not exact at depth 0 is counted on the nodes.
    Depth 0 is counted for that decision only when it has no fewer segments
    than there are nodes.  A column exact at depth 0 but not at a finer depth
    counts its nodes once, for the finer depths.  The counts are read-only,
    so workers share them without a lock.
    """
    n_nodes = quad.n_gq
    wanted = {}
    for k, submodel, _ in tasks:
        wanted.setdefault(submodel.column, set()).add((k, submodel))
    tables = {}
    for column, pairs in wanted.items():
        sources = [l for l, flag in enumerate(column) if flag]
        depths = {sm.depth for _, sm in pairs}
        finest = max(depths)
        basis = HistogramBasis(memory_A, 2 ** finest)
        exact = True
        if finest > 0:
            coarse = HistogramBasis(memory_A, 1)
            pts = segment_points(events, coarse, sources)
            exact = pts.size - 1 < n_nodes or distinct_columns(feature_matrix(
                events, coarse, sources, 0.5 * (pts[:-1] + pts[1:])))[0].shape[1] < n_nodes
        points = quad.points
        if exact:
            pts = segment_points(events, basis, sources)
            points = 0.5 * (pts[:-1] + pts[1:])
        receivers = sorted({k for k, _ in pairs})
        own = [events.times[k][events.times[k] >= 0.0] for k in receivers]
        bounds = np.cumsum([0] + [t.size for t in own])
        table = feature_matrix(events, basis, sources, np.concatenate(own + [points]))
        table.setflags(write=False)
        compensator = table[:, bounds[-1]:]  # at the midpoints or at the nodes
        segments = {}  # depth: (distinct segment columns, widths), if fewer than the nodes
        if exact:
            cols, inverse = distinct_columns(compensator)
            for depth in depths:
                seg, to_seg = distinct_columns(summed_bins(cols[1:], 2 ** (finest - depth)))
                if seg.shape[1] < n_nodes:
                    seg.setflags(write=False)
                    segments[depth] = seg, segment_widths(to_seg[inverse], pts, seg.shape[1])
            if len(segments) < len(depths):
                compensator = feature_matrix(events, basis, sources, quad.points)
                compensator.setflags(write=False)
        for k, submodel in pairs:
            i = receivers.index(k)
            counts = table[:, bounds[i]:bounds[i + 1]]
            if submodel.depth not in segments:
                tables[(k, submodel)] = counts, 1.0, compensator, quad.weights
                continue
            counts, to_event = distinct_columns(
                summed_bins(counts[1:], 2 ** (finest - submodel.depth)))
            counts.setflags(write=False)
            mult = np.bincount(to_event, minlength=counts.shape[1])
            tables[(k, submodel)] = (counts, mult) + segments[submodel.depth]
    return tables


def _problem(task, table, memory_A, link, horizon_T):
    """The ``_DimensionProblem`` of ``task`` on its ``table`` from ``_task_tables``:
    the features of its event columns, then of its compensator columns."""
    _, submodel, prior = task
    events, mult, compensator, weights = table
    counts = np.concatenate([events, compensator], axis=1)
    if counts.shape[0] > submodel.param_dim:  # on the nodes, at a finer depth: sum its bins
        counts = summed_bins(counts[1:], (counts.shape[0] - 1) // (submodel.param_dim - 1))
    feats = HistogramBasis(memory_A, submodel.num_bins).features(counts)
    return _DimensionProblem(feats, events.shape[1], weights, link, prior, horizon_T, mult)


def _checked_prior(prior, k, submodel):
    """``prior`` if its dimension is the sub-model's parameter count, else ConfigError."""
    if prior.dim != submodel.param_dim:
        raise ConfigError(f"prior dimension {prior.dim} of dimension {k} does not "
                          f"match the model's {submodel.param_dim} parameters")
    return prior


def check_link(link):
    """UnsupportedLinkError unless ``link`` is the sigmoid, and ConfigError if
    alpha^2, which every conjugate update multiplies by, overflows."""
    if link.kind != SIGMOID:
        raise UnsupportedLinkError("the conjugate fits require the sigmoid link")
    if not math.isfinite(link.alpha * link.alpha):
        raise ConfigError(f"link alpha {link.alpha:g} is too large: its square overflows")


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


def fit_candidates(tasks, events, quad, memory_A, link, max_iter, tol, threads=None):
    """Fit every task ``(k, submodel, prior)``; posteriors come back in task order.

    The calling thread checks the thread count, the link (``check_link``)
    and every prior, and counts the tables of the ``events`` at memory length
    ``memory_A``, on the quadrature ``quad`` where a sub-model does not
    integrate exactly (``_task_tables``), before any fit starts; the workers
    only turn them into float features (``_problem``) and fit.  Each depth
    ladder (see ``_ladders``) is one chain: its first fit starts at the prior
    mean, and each later fit at the previous fit's mean split onto the finer
    bins, which has the same kernel.  Every chain runs in one pool of
    ``threads`` workers (default: the usable cores), at least one and never
    more than there are chains.  BLAS runs on one thread meanwhile, so
    ``threads`` is the whole core budget, and each chain is the same
    computation either way: results do not depend on any thread count.
    """
    def solve(ladder):
        posts = []
        for task in ladder:
            start = _split_mean(posts[-1].mean) if posts else None
            # no reference outlives the fit, so its features are freed before
            # the next rung makes its own
            posts.append(_fit_dimension(_problem(task, tables[task[:2]], memory_A, link,
                                                 events.horizon_T), max_iter, tol, start))
        return posts

    if threads is None:
        threads = usable_cores()
    elif threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    check_link(link)
    for k, submodel, prior in tasks:
        _checked_prior(prior, k, submodel)
    tables = _task_tables(tasks, events, quad, memory_A)
    ladders = _ladders(tasks)
    workers = max(1, min(threads, len(ladders)))
    with _blas.single_threaded(), ThreadPoolExecutor(max_workers=workers) as pool:
        chains = list(pool.map(solve, ladders))
    return [post for chain in chains for post in chain]


def cavi_fixed_model(events, model, link, prior, quad, max_iter=100, tol=1e-3,
                     threads=None):
    """Coordinate-ascent VI in a fixed model; returns one posterior per dim.

    ``prior[k]`` is the GaussianPrior of dimension k.  Dimensions are
    independent and run as parallel tasks; the result order is deterministic.
    The link and every prior are checked before the features are counted.
    """
    tasks = [(k, model.submodel(k), prior[k]) for k in range(events.dims_K)]
    return fit_candidates(tasks, events, quad, model.memory_A, link, max_iter, tol, threads)
