"""Adaptive model selection, model weights, and two-step graph estimation.

A model fixes the connectivity column and histogram depth of every
dimension; since the posterior factorises over receiving dimensions, the
candidate grid is enumerated per dimension as all pairs (column in {0,1}^K,
depth D in 0..D_max), with the empty column listed once.  Each sub-model is
fitted by coordinate-ascent VI and scored by its evidence lower bound; model
weights are softmax(log prior + ELBO) per dimension under a uniform prior over
the candidates and are reported, while the fit goes on with the selected
(highest-bound) candidate.

The two-step procedure avoids the exponential column enumeration: step one
fits depth-adaptive models under the complete graph, thresholds the
posterior-mean L1 norms of the kernels at the largest gap in their sorted
values to estimate the graph, and step two refits with columns frozen at the
estimate.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from hawkes_vb.core import check_points
from hawkes_vb.errors import DomainError, NoGapError
from hawkes_vb.vi import QuadratureGrid, VIConfig, check_link, fit_candidates


@dataclass(frozen=True)
class Model:
    """Global model: connectivity graph, per-dimension resolution, memory."""

    graph_delta: np.ndarray
    bins_J: tuple
    memory_A: float

    def __post_init__(self):
        g = np.asarray(self.graph_delta, dtype=np.int8)
        g.setflags(write=False)
        object.__setattr__(self, "graph_delta", g)
        object.__setattr__(self, "bins_J", tuple(int(j) for j in self.bins_J))
        for j in self.bins_J:
            if j < 1 or (j & (j - 1)):
                raise DomainError("bins_J entries must be powers of two")

    def submodel(self, k):
        """Sub-model of receiving dimension k: column delta[:, k], depth log2 J_k."""
        return SubModel(column=tuple(int(c) for c in self.graph_delta[:, k]),
                        depth=self.bins_J[k].bit_length() - 1)


@dataclass(frozen=True)
class SubModel:
    """Per-dimension candidate: incoming column and histogram depth.

    Owns the layout of the stacked parameter [nu, w_{l_1}, w_{l_2}, ...] of
    its dimension: ``param_dim`` entries, source l at rows ``block(l)``.
    """

    column: tuple
    depth: int

    @property
    def num_bins(self):
        return 2 ** self.depth

    @property
    def active_sources(self):
        return tuple(l for l, f in enumerate(self.column) if f)

    @property
    def param_dim(self):
        return 1 + len(self.active_sources) * self.num_bins

    def block(self, l):
        """Row slice of source l inside the stacked parameter vector."""
        pos = self.active_sources.index(l)
        j = self.num_bins
        return slice(1 + pos * j, 1 + (pos + 1) * j)


def enumerate_submodels(dims_K, max_depth, column=None):
    """Per-dimension candidate list.

    With ``column`` fixed, depths 0..max_depth are enumerated (a single
    entry when the column is empty, since the resolution is then inert);
    otherwise all 2^K columns are crossed with the depths, and more than
    ``MAX_POINTS`` candidates in all, K 2^K (max_depth + 1), is a ConfigError.
    """
    if column is not None:
        columns = [tuple(int(c) for c in column)]
    else:
        check_points(dims_K * ((max_depth + 1) << dims_K),
                     f"{dims_K} dimensions x 2^{dims_K} columns x {max_depth + 1} depths",
                     "candidates")
        columns = [c for c in itertools.product((0, 1), repeat=dims_K)]
    out = []
    for col in columns:
        if not any(col):
            out.append(SubModel(column=col, depth=0))
        else:
            out.extend(SubModel(column=col, depth=d) for d in range(max_depth + 1))
    return out


@dataclass(frozen=True)
class DimensionWeights:
    """Scored candidates of one dimension (ModelWeights entry)."""

    submodels: tuple
    elbos: np.ndarray
    weights: np.ndarray
    selected: int


@dataclass(frozen=True)
class AdaptiveResult:
    """Per-model posteriors, scores and weights for every dimension."""

    per_dim: tuple          # DimensionWeights per dimension
    posteriors: tuple       # tuple per dim of GaussianPosterior per candidate
    memory_A: float

    def selected_submodel(self, k):
        return self.per_dim[k].submodels[self.per_dim[k].selected]

    def selected_posterior(self, k):
        return self.posteriors[k][self.per_dim[k].selected]

    def selected_model(self):
        k_dims = len(self.per_dim)
        delta = np.zeros((k_dims, k_dims), dtype=np.int8)
        bins = []
        for k in range(k_dims):
            sm = self.selected_submodel(k)
            delta[:, k] = sm.column
            bins.append(sm.num_bins)
        return Model(graph_delta=delta, bins_J=tuple(bins), memory_A=self.memory_A)


@dataclass(frozen=True)
class GraphEstimate:
    s_hat: np.ndarray
    threshold: float
    delta_hat: np.ndarray


@dataclass(frozen=True)
class TwoStepResult:
    step1: AdaptiveResult
    graph: GraphEstimate
    step2: AdaptiveResult


def expected_l1_norm(mean, cov):
    """E sum_j |w_j| for w ~ N(mean, cov), using the folded-normal mean.

    Only the diagonal of ``cov`` enters; expectation of a sum needs only
    marginals.  Raises on negative variances.
    """
    mean = np.asarray(mean, dtype=np.float64)
    var = np.diag(np.asarray(cov, dtype=np.float64)) if np.ndim(cov) == 2 \
        else np.asarray(cov, dtype=np.float64)
    if np.any(var < 0.0):
        raise DomainError("covariance diagonal must be nonnegative")
    return float(np.sum(folded_normal_mean(mean, np.sqrt(var))))


def folded_normal_mean(mu, sigma):
    """E|X| for X ~ N(mu, sigma^2), elementwise; sigma = 0 degenerates to |mu|."""
    from scipy.special import ndtr

    scalar = np.ndim(mu) == 0 and np.ndim(sigma) == 0
    mu, sigma = np.broadcast_arrays(np.atleast_1d(np.asarray(mu, dtype=np.float64)),
                                    np.atleast_1d(np.asarray(sigma, dtype=np.float64)))
    out = np.abs(mu).astype(np.float64)
    pos = sigma > 0.0
    m, s = mu[pos], sigma[pos]
    out[pos] = (s * math.sqrt(2.0 / math.pi) * np.exp(-0.5 * (m / s) ** 2)
                + m * (1.0 - 2.0 * ndtr(-m / s)))
    return float(out[0]) if scalar else out


def _select_index(elbos, submodels):
    """Argmax ELBO; ties broken by parameter count, then column order."""
    order = sorted(range(len(submodels)),
                   key=lambda i: (-elbos[i], submodels[i].param_dim, submodels[i].column))
    return order[0]


def _log_sum_exp_weights(scores):
    m = float(np.max(scores))
    w = np.exp(scores - m)
    return w / w.sum()


def fully_adaptive(events, model_set, link, prior, vi_config=VIConfig(), *,
                   memory_A, quad=None):
    """Fit every candidate sub-model of every dimension and score by ELBO.

    ``model_set[k]`` is the candidate list of dimension k, and ``prior(d)``
    is the Gaussian prior of every fit of d parameters, built once per d.
    ``quad`` is the quadrature of the sub-models that do not integrate
    exactly (default: ``QuadratureGrid.default``).  ``vi.fit_candidates``
    counts every candidate's table, and runs the depths of one column as one
    warm-started chain; chains run as independent tasks, and the reduction is
    ordered, so results are reproducible.
    """
    k_dims = events.dims_K
    if len(model_set) != k_dims or any(len(s) == 0 for s in model_set):
        raise DomainError("need one non-empty candidate list per dimension")

    priors = {d: prior(d) for d in {sm.param_dim for subs in model_set for sm in subs}}
    tasks = [(k, sm, priors[sm.param_dim]) for k in range(k_dims) for sm in model_set[k]]
    check_link(link)  # before the quadrature is sized
    quad = QuadratureGrid.default(events.horizon_T, memory_A) if quad is None else quad
    fits = iter(fit_candidates(tasks, events, quad, memory_A, link, vi_config.max_iter,
                               vi_config.tol, vi_config.threads))

    dim_results = []
    dim_posteriors = []
    for k in range(k_dims):
        subs = tuple(model_set[k])
        posts = tuple(next(fits) for _ in subs)
        elbos = np.array([p.elbo for p in posts])
        log_prior = np.full(len(subs), -math.log(len(subs)))  # uniform
        weights = _log_sum_exp_weights(elbos + log_prior)
        sel = _select_index(elbos, subs)
        dim_results.append(DimensionWeights(submodels=subs, elbos=elbos,
                                            weights=weights, selected=sel))
        dim_posteriors.append(posts)
    return AdaptiveResult(per_dim=tuple(dim_results),
                          posteriors=tuple(dim_posteriors), memory_A=memory_A)


def detect_gap_threshold(s_values):
    """Threshold from the largest gap of the sorted norm estimates.

    At the widest gap between consecutive sorted values vals[i] < vals[i+1]
    the threshold satisfies ``vals[i] <= thr < vals[i+1]``, so ``s > thr``
    keeps exactly the values above the gap.  It is the midpoint, or the
    largest double below vals[i+1] when the midpoint rounds up to it.
    All-equal values have no gap and raise NoGapError.
    """
    vals = np.sort(np.asarray(s_values, dtype=np.float64).ravel())
    if vals.size < 2:
        raise DomainError("need at least two values to detect a gap")
    gaps = np.diff(vals)
    i = int(np.argmax(gaps))
    if gaps[i] <= 0.0:
        raise NoGapError("all norm estimates are equal; supply a threshold")
    return float(min(0.5 * vals[i] + 0.5 * vals[i + 1],
                     np.nextafter(vals[i + 1], -np.inf)))


def norm_matrix(result):
    """S_hat[l, k]: posterior-mean L1 norm of kernel l -> k from selected fits."""
    k_dims = len(result.per_dim)
    s = np.zeros((k_dims, k_dims))
    for k in range(k_dims):
        sm = result.selected_submodel(k)
        post = result.selected_posterior(k)
        for l in sm.active_sources:
            rows = sm.block(l)
            s[l, k] = expected_l1_norm(post.mean[rows],
                                       np.diag(post.cov)[rows])
    return s


def two_step(events, link, max_depth, prior, vi_config=VIConfig(), *,
             memory_A, threshold="auto", quad=None):
    """Complete-graph VI, norm thresholding, then graph-restricted VI.

    ``prior(d)`` is the prior of a sub-model of d parameters in both steps.
    ``threshold`` is a number, or "auto" for the largest-gap rule.  ``quad``
    is the quadrature of both steps (default: ``QuadratureGrid.default``).
    Each step counts its own tables (``vi.fit_candidates``).
    """
    k_dims = events.dims_K
    check_link(link)  # before the quadrature is sized
    if quad is None:
        quad = QuadratureGrid.default(events.horizon_T, memory_A)

    complete = [enumerate_submodels(k_dims, max_depth, column=(1,) * k_dims)] * k_dims
    step1 = fully_adaptive(events, complete, link, prior, vi_config,
                           memory_A=memory_A, quad=quad)
    s_hat = norm_matrix(step1)
    if threshold == "auto":
        values = s_hat.ravel()
        if values.size == 1:
            # single kernel: the only meaningful gap is against zero
            values = np.concatenate([[0.0], values])
        threshold = detect_gap_threshold(values)
    delta_hat = (s_hat > threshold).astype(np.int8)
    graph = GraphEstimate(s_hat=s_hat, threshold=float(threshold), delta_hat=delta_hat)

    restricted = [enumerate_submodels(k_dims, max_depth,
                                      column=tuple(delta_hat[:, k]))
                  for k in range(k_dims)]
    step2 = fully_adaptive(events, restricted, link, prior, vi_config,
                           memory_A=memory_A, quad=quad)
    return TwoStepResult(step1=step1, graph=graph, step2=step2)
