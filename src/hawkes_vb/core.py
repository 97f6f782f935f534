"""Domain types and intensity machinery for nonlinear multivariate Hawkes processes.

A K-dimensional process is parametrised by background rates nu_k and
interaction kernels h_lk supported on (0, A], expanded over a histogram basis

    e_j(x) = (J/A) * 1{ (j-1)A/J < x <= jA/J },    j = 1..J,

so each kernel is piecewise constant and ||e_j||_1 = 1.  The conditional
intensity of dimension k is

    lambda_t^k = phi( nu_k + sum_l sum_{T_i^l in [t-A, t)} h_lk(t - T_i^l) )

with one monotone nonnegative link phi shared by all dimensions.  An event
influences only times strictly after itself (kernel support open at 0,
closed at A).  The drive is the stacked parameter [nu_k, w_{l_1 k}, ...]
dotted with the features ``basis.features(feature_matrix(...))``.

Everything here is immutable after construction and safe to share across
threads.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from hawkes_vb.errors import ConfigError, DataError, DomainError

# The most points a run may draw or use: quadrature nodes, the bound theta T
# on the Gibbs latent points per sweep and dimension, expected thinning
# candidates of a simulation, entries of a prior covariance and candidates of
# an adaptive fit.  A run past it is a ConfigError (``check_points``), raised
# before anything of that size is allocated or drawn.
MAX_POINTS = 10_000_000


def check_points(count, what, unit):
    """ConfigError if ``what`` = ``count`` ``unit`` is more than ``MAX_POINTS``."""
    if count > MAX_POINTS:
        # 8 digits tell 10000001 from 1e+07; g overflows on an int past the floats
        shown = f"{count:.8g}" if count < 1e300 else "more than 1e300"
        raise ConfigError(f"{what} = {shown} is more than the {MAX_POINTS:.0e} "
                          f"{unit} allowed")


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
        if not all(map(math.isfinite, (self.theta, self.alpha, self.eta, self.theta_base))):
            raise DomainError("link parameters must be finite")
        if self.theta <= 0 or self.alpha <= 0:
            raise DomainError("link scale theta and slope alpha must be positive")
        if self.theta_base < 0:
            raise DomainError("theta_base must be nonnegative")

    @property
    def is_bounded(self):
        return self.kind == SIGMOID

    def __call__(self, x):
        """phi(x) for one scalar drive x; no exp overflows for any finite x."""
        z = self.alpha * (x - self.eta)
        if self.kind == SIGMOID:
            if z >= 0.0:
                return self.theta / (1.0 + math.exp(-z))
            ez = math.exp(z)
            return self.theta * ez / (1.0 + ez)
        if self.kind == RELU:
            return self.theta_base + (z if z > 0.0 else 0.0)
        if z > 35.0:  # log1p(exp(z)) == z to double precision
            return self.theta * z
        return self.theta * math.log1p(math.exp(z))


@dataclass(frozen=True)
class HistogramBasis:
    """Regular histogram dictionary on (0, memory_A] with num_bins_J pieces."""

    memory_A: float
    num_bins_J: int

    def __post_init__(self):
        if not 0 < self.memory_A < math.inf:
            raise DomainError("memory_A must be positive and finite")
        if self.num_bins_J < 1 or self.num_bins_J != int(self.num_bins_J):
            raise DomainError("num_bins_J must be a positive integer")

    @property
    def bin_width(self):
        return self.memory_A / self.num_bins_J

    @property
    def height(self):
        """Value of e_j on its support: J/A (each e_j has unit L1 norm)."""
        return self.num_bins_J / self.memory_A

    def features(self, counts, out=None):
        """Stacked features of the event counts of ``feature_matrix``.

        Every count is multiplied by the height J/A, into ``out`` if given, and
        row 0, the regressor attached to nu, is set to 1.0.
        """
        out = np.multiply(counts, self.height, out=out)
        out[0] = 1.0
        return out


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
        if not np.all(np.isfinite(nu)):
            raise DataError("nu must be finite")
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
                if not np.all(np.isfinite(w)):
                    raise DataError(f"weights[{l}][{kk}] must be finite")
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
        if not 0 <= self.horizon_T < math.inf:
            raise DataError("horizon_T must be nonnegative and finite")
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


def feature_matrix(events, basis, sources, times):
    """Event counts behind the stacked features [1, H^{l_1}(t), ...] at many times.

    Row 1 + pos J + j - 1 counts the events of dimension sources[pos] with lag
    t - s in ((j-1)A/J, jA/J], so H_j^l(t) is that count times J/A
    (``basis.features``).  Row 0 is all ones, for nu.  Returns an array of
    shape (1 + len(sources) * J, len(times)) of the narrowest unsigned integer
    type that holds the largest count: uint8 unless a bin holds more than 255
    events.  Sources are counted one bin at a time, so no table of all sources
    is ever held wider than the result.

    The times are sorted once.  The events before t - x, at a bin edge x, are
    then counted by merging: each event is placed among the sorted shifts
    t - x (``np.searchsorted``), and a cumulative sum of the places gives the
    count at every time, in sorted order.  Unsorted times read each row back
    through the inverse permutation, a gather.
    """
    times = np.asarray(times, dtype=np.float64)
    j_bins = basis.num_bins_J
    offsets = np.arange(j_bins + 1) * (basis.memory_A / j_bins)
    order = np.argsort(times, kind="stable")
    ordered = times[order]
    n = times.size
    rank = None  # already sorted: the rows need no gather
    if not np.array_equal(ordered, times):
        rank = np.empty(n, dtype=np.intp)  # where each time sits in sorted order
        rank[order] = np.arange(n)
    out = np.ones((1 + len(sources) * j_bins, n), dtype=np.uint8)

    def before(src, edge):
        # event s is before t - edge from the first sorted time whose shift exceeds it
        first = np.searchsorted(ordered - edge, src, side="right")
        return np.cumsum(np.bincount(first, minlength=n + 1)[:n])

    for pos, l in enumerate(sources):
        src = events.times[l]
        # events before t - (j-1)A/J minus those before t - jA/J
        upper = before(src, offsets[0])
        for j in range(1, j_bins + 1):
            lower = before(src, offsets[j])
            counts = upper - lower
            peak = counts.max(initial=0)
            if peak > np.iinfo(out.dtype).max:
                out = out.astype(np.min_scalar_type(peak))
            out[pos * j_bins + j] = counts if rank is None else counts[rank]
            upper = lower
    return out


def summed_bins(fine, group):
    """A count table at 1/``group`` of the resolution of ``fine``.

    ``fine`` holds the bin rows of a ``feature_matrix`` table, without its row
    of ones; each run of ``group`` adjacent bins is summed, which is the count
    of their union, in an unsigned type that holds the sum.  Row 0 of the
    result is all ones again.
    """
    fine = np.ascontiguousarray(fine)  # whole rows, for the reshape to sum without a copy
    rows, n = fine.shape
    out = np.empty((1 + rows // group, n),
                   dtype=np.min_scalar_type(group * np.iinfo(fine.dtype).max))
    out[0] = 1
    np.add.reduce(fine.reshape(rows // group, group, n), axis=1, out=out[1:])
    return out


def segment_points(events, basis, sources):
    """Sorted breakpoints within [0, T] of features counted from ``sources``.

    ``feature_matrix`` is constant in t between consecutive points: each event
    T_i of a source contributes the shifts T_i + j A/J, j = 0..J, and 0 and T
    close the window.
    """
    pieces = [np.array([0.0, events.horizon_T])]
    offsets = np.arange(basis.num_bins_J + 1) * basis.bin_width
    for l in sources:
        src = events.times[l]
        if src.size:
            pieces.append((src[:, None] + offsets[None, :]).ravel())
    pts = np.unique(np.concatenate(pieces))
    return pts[(pts >= 0.0) & (pts <= events.horizon_T)]


def distinct_columns(counts):
    """Distinct columns of a count table, with the one each column maps to.

    Returns ``(columns, inverse)`` with ``columns[:, inverse]`` equal to
    ``counts``.  Each column is keyed by its bytes, so one 1-d ``np.unique``
    does the reduction, and the order of the distinct columns is that of
    their bytes.  Byte positions equal in every column order nothing and are
    dropped.  When the others fit into 64 bits, each in the bits of its
    largest value, the key is that integer, first byte most significant,
    which sorts several times faster than a byte record.
    """
    n = counts.shape[1]
    size = counts.itemsize
    # each column's bytes in memory order: row by row, least significant first
    rows = [row.view(np.uint8)[k::size] for row in np.ascontiguousarray(counts)
            for k in range(size)]
    rows = [row for row in rows if row.size and row.min() != row.max()]
    bits = [int(row.max()).bit_length() for row in rows]
    if sum(bits) <= 64:
        keys = np.zeros(n, dtype=np.uint64)
        for row, width in zip(rows, bits):
            keys <<= np.uint64(width)
            keys |= row
    else:
        table = np.stack(rows, axis=1)
        keys = table.view(np.dtype((np.void, table.shape[1]))).ravel()
    _, inverse = np.unique(keys, return_inverse=True)
    # any column of a key stands for it, since they are equal
    pick = np.empty(inverse.max(initial=-1) + 1, dtype=np.intp)
    pick[inverse] = np.arange(n)
    return counts[:, pick], inverse


def segment_widths(inverse, pts, size):
    """Summed widths of ``size`` distinct columns over the segments between
    consecutive ``pts``, where segment s has column ``inverse[s]``.

    Adjacent segments of one column are merged into one run first, of width
    pts[end] - pts[start].  So a table summed from a finer one
    (``summed_bins``), on the finer segments, gives the widths, bit for bit,
    of the table counted on its own segments.
    """
    starts = np.ones(inverse.size, dtype=bool)
    starts[1:] = inverse[1:] != inverse[:-1]
    bounds = np.append(np.flatnonzero(starts), inverse.size)
    return np.bincount(inverse[bounds[:-1]], weights=pts[bounds[1:]] - pts[bounds[:-1]],
                       minlength=size)


def segment_table(counts, n_events, pts):
    """The distinct columns of a count table at events and on segments.

    ``counts`` holds one column per event, ``n_events`` of them, then one per
    segment between consecutive ``pts`` (the constant count on it, taken at
    an interior point).  Returns ``(event_columns, multiplicities,
    segment_columns, widths)``: each part in the order of
    ``distinct_columns``, with the widths of ``segment_widths``.
    """
    event_cols, inverse = distinct_columns(counts[:, :n_events])
    mult = np.bincount(inverse, minlength=event_cols.shape[1])
    seg_cols, inverse = distinct_columns(counts[:, n_events:])
    return event_cols, mult, seg_cols, segment_widths(inverse, pts, seg_cols.shape[1])


def _drive_parameter(params, k):
    """Sources of dimension k and its stacked parameter [nu_k, w_{l_1 k}, ...]."""
    sources = [l for l in range(params.dims_K) if params.weights[l][k] is not None]
    f_k = np.concatenate([params.nu[k:k + 1]] + [params.weights[l][k] for l in sources])
    return sources, f_k


def linear_drive(params, events, k, times):
    """Linear drive nu_k + sum_l sum_{T_i^l in [t-A, t)} h_lk(t - T_i^l) per t.

    ``times`` is a 1-d array; returns the drive at each entry.  The drive is
    right-continuous and constant in t between the ``segment_points`` of
    its sources.
    Raises DomainError for times outside [0, T].
    """
    times = np.asarray(times, dtype=np.float64)
    if np.any((times < 0.0) | (times > events.horizon_T)):
        raise DomainError(f"times outside the observation window [0, {events.horizon_T}]")
    sources, f_k = _drive_parameter(params, k)
    basis = params.basis[k]
    return f_k @ basis.features(feature_matrix(events, basis, sources, times))


def log_likelihood(params, events, link, method="exact", grid_step=None):
    """Log-likelihood sum_k [ sum_i log lambda^k_{T_i^k} - int_0^T lambda^k dt ].

    ``method`` selects the compensator integral: "exact" sums over the
    segments between the breakpoints of the piecewise-constant drive (exact
    for every link since phi(constant) is constant), "riemann" uses a
    left-endpoint grid with step ``grid_step`` (default A/1e4).  Both sums run
    over the distinct feature columns of ``segment_table``: m_c log phi_c over
    the events, of multiplicity m_c, and phi_c w_c over the segments or grid
    cells, of total width w_c.  Returns -inf when some event has zero intensity.
    """
    if method not in ("exact", "riemann"):
        raise DomainError(f"unknown integration method {method!r}")
    horizon = events.horizon_T
    total = 0.0
    for k in range(params.dims_K):
        sources, f_k = _drive_parameter(params, k)
        basis = params.basis[k]
        own = events.times[k]
        own = own[own >= 0.0]
        if method == "exact":
            pts = segment_points(events, basis, sources)
            # drive constant on each open segment; the midpoint avoids the
            # closed-right endpoint convention of the kernel support
            times = 0.5 * (pts[:-1] + pts[1:])
        else:
            step = grid_step if grid_step is not None else params.memory_A / 1e4
            n = max(1, int(math.ceil(horizon / step)))
            # each grid cell counted at its left end
            pts = np.linspace(0.0, horizon, n + 1)
            times = pts[:-1]
        ev_cols, mult, seg_cols, widths = segment_table(
            feature_matrix(events, basis, sources, np.concatenate([own, times])), own.size, pts)
        for x, m in zip((f_k @ basis.features(ev_cols)).tolist(), mult.tolist()):
            lam = link(x)
            if lam <= 0.0:
                return -math.inf
            total += m * math.log(lam)
        for x, w in zip((f_k @ basis.features(seg_cols)).tolist(), widths.tolist()):
            total -= link(x) * w
    return total
