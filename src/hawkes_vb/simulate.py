"""Exact simulation of nonlinear multivariate Hawkes processes by thinning.

Candidates are proposed from a dominating homogeneous rate and accepted with
probability (total intensity)/bound, then assigned to a dimension
proportionally to the per-dimension intensities.  All dimensions share one
link.  For the sigmoid link the bound is the constant K theta; for unbounded
links (ReLU, softplus) a lookahead bound is recomputed at every candidate
from the largest positive kernel contribution each active event can still
produce, which keeps the envelope valid until the next accepted event and
the simulation exact.

Both link kinds evaluate a candidate through one scalar drive: a table built
once per run lists, for each source and refined kernel bin, only the nonzero
(dimension, value) entries, and the drive starts from nu and adds those
entries for every active event in window order.  That is the order of the
dense column sum minus its ``+ 0.0`` adds, so the drive, and with it every
accepted time, is bitwise the dense result.  Uniforms are drawn in blocks
(``rng.random(n)`` yields the values of n successive ``rng.random()``
calls), so the random stream is the scalar one.

Also provides the renewal ("excursion") statistics of the generated data: a
renewal happens at t when the window [t-A, t) contains an event but (t-A, t]
does not, i.e. exactly A after an event followed by a gap longer than A.
Local excursions apply the same rule to a single dimension.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from hawkes_vb.core import EventData, LinkFunction
from hawkes_vb.errors import DomainError, SimulationDivergedError


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation run; same seed reproduces the output bitwise."""

    params: object
    link: LinkFunction  # shared by all dimensions
    horizon_T: float
    burn_in: float = None
    seed: int = 0
    max_events: int = 10**7

    def __post_init__(self):
        if self.horizon_T <= 0:
            raise DomainError("horizon_T must be positive")
        if self.burn_in is not None and self.burn_in < 0:
            raise DomainError("burn_in must be nonnegative")
        if not isinstance(self.link, LinkFunction):
            raise DomainError("link must be one LinkFunction shared by all dimensions")


@dataclass(frozen=True)
class ExcursionStats:
    num_events: tuple
    num_global_excursions: int
    num_local_excursions: tuple


def _refined_kernel_values(params):
    """Kernel values on a common grid: vals[l][k, r] = h_lk on refined bin r."""
    k_dims = params.dims_K
    j_star = 1
    for b in params.basis:
        j_star = j_star * b.num_bins_J // math.gcd(j_star, b.num_bins_J)
    vals = []
    for l in range(k_dims):
        m = np.zeros((k_dims, j_star))
        for k in range(k_dims):
            w = params.weights[l][k]
            if w is None:
                continue
            j = params.basis[k].num_bins_J
            m[k] = np.repeat(w * params.basis[k].height, j_star // j)
        vals.append(m)
    return vals, j_star


def _sparse_columns(vals):
    """cols[l][r] = [(k, h_lk on refined bin r+1) for every nonzero entry].

    One extra entry repeats the last bin: a lag of at most A can round to
    just past the last bin edge, and lands there without a clamp.
    """
    cols = []
    for v in vals:
        col = [[(k, float(x)) for k, x in enumerate(v[:, r]) if x != 0.0]
               for r in range(v.shape[1])]
        cols.append(col + col[-1:])
    return cols


def _drive(t, nu, windows, cols, a, bin_scale):
    """Linear drive of every dimension at t, after pruning expired events.

    Adds the nonzero entries in window order, so the result is bitwise the
    dense column sum (see the module docstring).
    """
    ceil = math.ceil
    drive = list(nu)
    for win, col in zip(windows, cols):
        while win and t - win[0] > a:
            win.popleft()
        for s in win:
            lag = t - s
            if lag > 0.0:
                for k, x in col[ceil(lag * bin_scale) - 1]:
                    drive[k] += x
    return drive


def _sum_in_order(values):
    """Left-to-right float sum: ``sum()`` compensates from Python 3.12 on,
    which would change the last bits and with them every later draw."""
    total = 0.0
    for v in values:
        total += v
    return total


def _uniforms(rng):
    """The stream of successive ``rng.random()`` values, drawn in blocks."""
    while True:
        yield from rng.random(4096).tolist()


def simulate(config):
    """Draw one realisation; returns EventData on [-A, T]."""
    params = config.params
    k_dims = params.dims_K
    link = config.link
    a = params.memory_A
    horizon = float(config.horizon_T)
    burn_in = a if config.burn_in is None else float(config.burn_in)
    uniforms = _uniforms(np.random.default_rng(config.seed))

    vals, j_star = _refined_kernel_values(params)
    cols = _sparse_columns(vals)
    bounded = link.is_bounded
    if bounded:
        # summed term by term: K * theta can round differently and move every draw
        const_bound = _sum_in_order(link.theta for _ in range(k_dims))
    else:
        # largest positive contribution an event sitting in bin r can still
        # make at any later lag (0 once it leaves the support)
        suffmax = [np.maximum.accumulate(np.maximum(v, 0.0)[:, ::-1], axis=1)[:, ::-1]
                   for v in vals]

    nu = params.nu.astype(np.float64).tolist()
    windows = [deque() for _ in range(k_dims)]  # active events per source dim
    events = [[] for _ in range(k_dims)]
    n_accepted = 0
    t = -burn_in
    bin_scale = j_star / a

    while True:
        # envelope valid from the current position until the next acceptance
        if bounded:
            bound = const_bound
        else:
            head = np.array(nu)
            for l in range(k_dims):
                win = windows[l]
                while win and t - win[0] > a:
                    win.popleft()
                for s in win:
                    # a just-accepted event (lag 0) enters bin 1 immediately
                    # after, so its future maximum starts at bin 1
                    r = max(min(int(math.ceil((t - s) * bin_scale)), j_star), 1)
                    head += suffmax[l][:, r - 1]
            bound = max(_sum_in_order(link(head[k]) for k in range(k_dims)), 1e-12)

        t += -math.log(1.0 - next(uniforms)) / bound
        if t > horizon:
            break

        lams = [link(x) for x in _drive(t, nu, windows, cols, a, bin_scale)]
        lam_total = _sum_in_order(lams)
        if lam_total > bound * (1.0 + 1e-9):
            raise SimulationDivergedError(
                "dominating bound violated; thinning envelope is invalid")

        u = next(uniforms) * bound
        if u < lam_total:
            acc = 0.0
            for k in range(k_dims):
                acc += lams[k]
                if u < acc:
                    events[k].append(t)
                    windows[k].append(t)
                    break
            n_accepted += 1
            if n_accepted > config.max_events:
                raise SimulationDivergedError(
                    f"simulation exceeded {config.max_events} events; "
                    "parameters appear explosive")

    out = []
    for k in range(k_dims):
        arr = np.asarray(events[k], dtype=np.float64)
        out.append(arr[arr >= -a])
    return EventData(dims_K=k_dims, horizon_T=horizon, times=tuple(out))


def _count_renewals(times, memory_A, horizon_T):
    if times.size == 0:
        return 0
    tau = times + memory_A
    nxt = np.empty_like(times)
    nxt[:-1] = times[1:]
    nxt[-1] = np.inf
    ok = (nxt > tau) & (tau > 0.0) & (tau <= horizon_T)
    return int(np.count_nonzero(ok))


def excursion_stats(events, memory_A):
    """Event counts plus global and per-dimension renewal counts on (0, T]."""
    counts = tuple(int(n) for n in events.counts(t_min=0.0))
    pooled = events.pooled()
    n_global = _count_renewals(pooled, memory_A, events.horizon_T)
    n_local = tuple(_count_renewals(events.times[k], memory_A, events.horizon_T)
                    for k in range(events.dims_K))
    return ExcursionStats(num_events=counts,
                          num_global_excursions=n_global,
                          num_local_excursions=n_local)
