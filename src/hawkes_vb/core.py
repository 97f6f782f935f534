"""Domain types and intensity machinery for nonlinear multivariate Hawkes processes.

A K-dimensional process is parametrised by background rates nu_k and
interaction kernels h_lk supported on (0, A], expanded over a histogram basis

    e_j(x) = (J/A) * 1{ (j-1)A/J < x <= jA/J },    j = 1..J,

so each kernel is piecewise constant and ||e_j||_1 = 1.  The conditional
intensity of dimension k is

    lambda_t^k = phi_k( nu_k + sum_l sum_{T_i^l in [t-A, t)} h_lk(t - T_i^l) )

with a monotone nonnegative link phi_k.  An event influences only times
strictly after itself (kernel support open at 0, closed at A).

Everything here is immutable after construction and safe to share across
threads.
"""

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from hawkes_vb.errors import DataError, DomainError

SIGMOID = "sigmoid"
RELU = "relu"
SOFTPLUS = "softplus"
_LINK_KINDS = (SIGMOID, RELU, SOFTPLUS)


@dataclass(frozen=True)
class LinkFunction:
    """Monotone nonnegative link mapping the linear drive to an intensity.

    sigmoid:  phi(x) = theta / (1 + exp(-alpha (x - eta))), bounded by theta
    relu:     phi(x) = theta_base + max(alpha (x - eta), 0)
    softplus: phi(x) = theta * log(1 + exp(alpha (x - eta)))
    """

    kind: str = SIGMOID
    theta: float = 20.0
    alpha: float = 0.1
    eta: float = 10.0
    theta_base: float = 0.001

    def __post_init__(self):
        if self.kind not in _LINK_KINDS:
            raise DomainError(f"unknown link kind {self.kind!r}")
        if self.theta <= 0 or self.alpha <= 0:
            raise DomainError("link scale theta and slope alpha must be positive")
        if self.theta_base < 0:
            raise DomainError("theta_base must be nonnegative")

    @property
    def is_bounded(self):
        return self.kind == SIGMOID

    def bound(self):
        """Least upper bound of phi, +inf for unbounded kinds."""
        return self.theta if self.kind == SIGMOID else math.inf

    def __call__(self, x):
        z = self.alpha * (np.asarray(x, dtype=np.float64) - self.eta)
        if self.kind == SIGMOID:
            out = self.theta * _sigmoid(z)
        elif self.kind == RELU:
            out = self.theta_base + np.maximum(z, 0.0)
        else:
            out = self.theta * np.logaddexp(0.0, z)
        if np.ndim(x) == 0:
            return float(out)
        return out


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass(frozen=True)
class HistogramBasis:
    """Regular histogram dictionary on (0, memory_A] with num_bins_J pieces."""

    memory_A: float
    num_bins_J: int

    def __post_init__(self):
        if self.memory_A <= 0:
            raise DomainError("memory_A must be positive")
        if self.num_bins_J < 1 or self.num_bins_J != int(self.num_bins_J):
            raise DomainError("num_bins_J must be a positive integer")

    @property
    def bin_width(self):
        return self.memory_A / self.num_bins_J

    @property
    def height(self):
        """Value of e_j on its support: J/A (each e_j has unit L1 norm)."""
        return self.num_bins_J / self.memory_A

    def bin_of_lag(self, lag):
        """1-based bin index for a lag in (0, A]; 0 if outside the support."""
        if lag <= 0.0 or lag > self.memory_A:
            return 0
        j = math.ceil(lag * self.num_bins_J / self.memory_A)
        return min(max(j, 1), self.num_bins_J)


@dataclass(frozen=True)
class HawkesParams:
    """Full parameter (nu, h): background rates plus kernel weights.

    ``weights[l][k]`` holds the J_k basis weights of h_lk, or None when
    h_lk is identically zero.  ``basis[k]`` fixes the dictionary used by the
    kernels *received* by dimension k; all dimensions share one memory A.
    """

    dims_K: int
    nu: np.ndarray
    weights: tuple
    basis: tuple

    def __post_init__(self):
        k = self.dims_K
        nu = np.asarray(self.nu, dtype=np.float64)
        object.__setattr__(self, "nu", nu)
        if nu.shape != (k,):
            raise DataError("nu must have one entry per dimension")
        if len(self.basis) != k:
            raise DataError("basis must have one entry per dimension")
        a0 = self.basis[0].memory_A
        if any(abs(b.memory_A - a0) > 0 for b in self.basis):
            raise DataError("all dimensions must share one memory parameter A")
        if len(self.weights) != k or any(len(row) != k for row in self.weights):
            raise DataError("weights must be a K x K table")
        rows = []
        for l in range(k):
            row = []
            for kk in range(k):
                w = self.weights[l][kk]
                if w is None:
                    row.append(None)
                    continue
                w = np.asarray(w, dtype=np.float64)
                if w.shape != (self.basis[kk].num_bins_J,):
                    raise DataError(
                        f"weights[{l}][{kk}] must have length J_{kk}"
                        f"={self.basis[kk].num_bins_J}"
                    )
                row.append(w)
            rows.append(tuple(row))
        object.__setattr__(self, "weights", tuple(rows))

    @classmethod
    def build(cls, nu, weights, basis):
        """Convenience constructor accepting lists; basis may be shared."""
        nu = np.asarray(nu, dtype=np.float64)
        k = nu.shape[0]
        if isinstance(basis, HistogramBasis):
            basis = (basis,) * k
        return cls(dims_K=k, nu=nu, weights=tuple(tuple(r) for r in weights),
                   basis=tuple(basis))

    @property
    def memory_A(self):
        return self.basis[0].memory_A

    def graph(self):
        """Implied connectivity: delta_lk = 1 iff weights[l][k] is nonzero."""
        d = np.zeros((self.dims_K, self.dims_K), dtype=np.int8)
        for l in range(self.dims_K):
            for k in range(self.dims_K):
                w = self.weights[l][k]
                if w is not None and np.any(w != 0.0):
                    d[l, k] = 1
        return d


@dataclass(frozen=True)
class EventData:
    """Per-dimension sorted event times on [start, horizon_T].

    Times before 0 form the initial condition; inference uses [0, T].
    Each list is strictly increasing and simultaneous events across
    dimensions are rejected.
    """

    dims_K: int
    horizon_T: float
    times: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.horizon_T < 0:
            raise DataError("horizon_T must be nonnegative")
        if len(self.times) != self.dims_K:
            raise DataError("times must have one array per dimension")
        arrays = []
        for k, t in enumerate(self.times):
            a = np.asarray(t, dtype=np.float64)
            if a.ndim != 1:
                raise DataError("event arrays must be one-dimensional")
            if not np.all(np.isfinite(a)):
                raise DataError(f"event times of dimension {k} must be finite")
            if a.size and np.any(np.diff(a) <= 0):
                raise DataError(f"event times of dimension {k} must be strictly increasing")
            if a.size and a[-1] > self.horizon_T:
                raise DataError("event times must not exceed horizon_T")
            a.setflags(write=False)
            arrays.append(a)
        pooled = np.concatenate(arrays) if arrays else np.empty(0)
        if pooled.size != np.unique(pooled).size:
            raise DataError("simultaneous events across dimensions are not allowed")
        object.__setattr__(self, "times", tuple(arrays))

    def counts(self, t_min=0.0):
        """Number of events per dimension at times >= t_min."""
        return np.array([int(a.size - np.searchsorted(a, t_min, side="left"))
                         for a in self.times])

    def total(self, t_min=0.0):
        return int(self.counts(t_min).sum())

    def pooled(self):
        """All event times merged and sorted."""
        if not self.times:
            return np.empty(0)
        return np.sort(np.concatenate(self.times))


def linear_drive(params, events, k, t):
    """Linear drive nu_k + sum_l sum_{T_i^l in [t-A, t)} h_lk(t - T_i^l).

    Right-continuous piecewise constant in t; breakpoints only at event
    times shifted by bin edges.  Raises DomainError for t outside [0, T].
    """
    if t < 0.0 or t > events.horizon_T:
        raise DomainError(f"t={t} outside the observation window [0, {events.horizon_T}]")
    basis = params.basis[k]
    a = basis.memory_A
    total = float(params.nu[k])
    for l in range(params.dims_K):
        w = params.weights[l][k]
        if w is None:
            continue
        src = events.times[l]
        lo = bisect.bisect_left(src, t - a)
        hi = bisect.bisect_left(src, t)
        for i in range(lo, hi):
            j = basis.bin_of_lag(t - src[i])
            if j:
                total += w[j - 1] * basis.height
    return total


def intensity(params, events, link, k, t):
    """Nonlinear intensity phi_k(linear drive) at time t."""
    return link(linear_drive(params, events, k, t))


def basis_features(events, basis, l, t):
    """Histogram feature vector of source dimension l at time t.

    H_j^l(t) = (J/A) * #{ events of dim l with lag t - s in ((j-1)A/J, jA/J] }.
    """
    src = events.times[l]
    j_bins = basis.num_bins_J
    a = basis.memory_A
    edges = t - np.arange(j_bins + 1) * (a / j_bins)  # t, t-A/J, ..., t-A
    idx = np.searchsorted(src, edges, side="left")
    counts = idx[:-1] - idx[1:]
    return counts.astype(np.float64) * basis.height


def feature_matrix(events, basis, sources, times):
    """Stacked features [1, H^{l_1}(t), H^{l_2}(t), ...] at many times.

    Returns an array of shape (1 + len(sources) * J, len(times)); row 0 is
    the constant regressor attached to nu.
    """
    times = np.asarray(times, dtype=np.float64)
    j_bins = basis.num_bins_J
    a = basis.memory_A
    d = 1 + len(sources) * j_bins
    out = np.empty((d, times.size))
    out[0] = 1.0
    offsets = np.arange(j_bins + 1) * (a / j_bins)
    for pos, l in enumerate(sources):
        src = events.times[l]
        idx = np.searchsorted(src, times[None, :] - offsets[:, None], side="left")
        counts = idx[:-1] - idx[1:]
        out[1 + pos * j_bins: 1 + (pos + 1) * j_bins] = counts * basis.height
    return out


def drive_breakpoints(params, events, k):
    """Sorted breakpoints of the drive of dimension k within [0, T].

    The drive is constant between consecutive breakpoints: each event of an
    influencing source contributes shifts {T_i + j A/J, j=0..J}.
    """
    basis = params.basis[k]
    pieces = [np.array([0.0, events.horizon_T])]
    offsets = np.arange(basis.num_bins_J + 1) * basis.bin_width
    for l in range(params.dims_K):
        if params.weights[l][k] is None:
            continue
        src = events.times[l]
        if src.size:
            pieces.append((src[:, None] + offsets[None, :]).ravel())
    pts = np.unique(np.concatenate(pieces))
    return pts[(pts >= 0.0) & (pts <= events.horizon_T)]


def log_likelihood(params, events, link, method="exact", grid_step=None):
    """Log-likelihood sum_k [ sum_i log lambda^k_{T_i^k} - int_0^T lambda^k dt ].

    ``method`` selects the compensator integral: "exact" enumerates the
    breakpoints of the piecewise-constant drive (exact for every link since
    phi(constant) is constant), "riemann" uses a left-endpoint grid with step
    ``grid_step`` (default A/1e4).  Returns -inf when some event has zero
    intensity.
    """
    links = _per_dim_links(link, params.dims_K)
    total = 0.0
    for k in range(params.dims_K):
        lam_at_events = [intensity(params, events, links[k], k, float(t))
                         for t in events.times[k] if t >= 0.0]
        if any(v <= 0.0 for v in lam_at_events):
            return -math.inf
        total += sum(math.log(v) for v in lam_at_events)
        if method == "exact":
            pts = drive_breakpoints(params, events, k)
            for left, right in zip(pts[:-1], pts[1:]):
                # drive constant on the open segment; midpoint avoids the
                # closed-right endpoint convention of the kernel support
                lam = intensity(params, events, links[k], k, float(0.5 * (left + right)))
                total -= lam * (right - left)
        elif method == "riemann":
            step = grid_step if grid_step is not None else params.memory_A / 1e4
            n = max(1, int(math.ceil(events.horizon_T / step)))
            grid = np.linspace(0.0, events.horizon_T, n, endpoint=False)
            h = events.horizon_T / n
            total -= h * sum(intensity(params, events, links[k], k, float(t))
                             for t in grid)
        else:
            raise DomainError(f"unknown integration method {method!r}")
    return total


def _per_dim_links(link, dims_K):
    if isinstance(link, LinkFunction):
        return (link,) * dims_K
    links = tuple(link)
    if len(links) != dims_K:
        raise DataError("need one link per dimension")
    return links
