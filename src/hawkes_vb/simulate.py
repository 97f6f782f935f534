"""Exact simulation of nonlinear multivariate Hawkes processes by thinning.

Candidates are proposed from a dominating homogeneous rate and accepted with
probability (total intensity)/bound, then assigned to a dimension
proportionally to the per-dimension intensities.  All dimensions share one
link.  For the sigmoid link the bound is the constant K theta; for unbounded
links (ReLU, softplus) a lookahead bound is recomputed at every candidate
from the largest positive kernel contribution each active event can still
produce, which keeps the envelope valid until the next accepted event and
the simulation exact.

Both the drive of a candidate and the envelope's head are one sparse pass
(``_drive``) over a table built once per run.  For each source dimension the
table has one slot per value of ``ceil(lag * bin_scale)``, listing only the
nonzero (dimension, value) entries: slot 0 holds the lag-0 entry, slot r the
refined kernel bin r, and a trailing copy of the last bin catches a lag of A
that rounds just past the last edge.  The drive's table holds the kernel
values (slot 0 empty); the envelope's holds the suffix maxima of the clipped
kernel (slot 0 = bin 1, which a just-accepted event enters next).  The pass
starts from nu and adds the entries of every active event in window order.
That is the order of the dense column sum minus its ``+ 0.0`` adds, so the
drive, and with it every accepted time, is bitwise the dense result.

A memo keeps each dimension's last link argument and value, shared by drive
and head.  The link runs only for a dimension whose argument differs from
the last one, and the total is re-summed in order only when a value changed,
so every intensity and bound is the value a full evaluation would give.
Uniforms are drawn in blocks (``rng.random(n)`` yields the values of n
successive ``rng.random()`` calls), so the random stream is the scalar one.

Also provides the renewal ("excursion") statistics of the generated data: a
renewal happens at t when the window [t-A, t) contains an event but (t-A, t]
does not, i.e. exactly A after an event followed by a gap longer than A.
Local excursions apply the same rule to a single dimension.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from hawkes_vb.core import MAX_POINTS, EventData, LinkFunction, check_points
from hawkes_vb.errors import ConfigError, DomainError, SimulationDivergedError


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation run; same seed reproduces the output bitwise."""

    params: object
    link: LinkFunction  # shared by all dimensions
    horizon_T: float
    burn_in: float = None
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.horizon_T) and self.horizon_T > 0):
            raise DomainError("horizon_T must be positive and finite")
        if self.burn_in is not None and not (math.isfinite(self.burn_in)
                                             and self.burn_in >= 0):
            raise DomainError("burn_in must be nonnegative and finite")
        if not isinstance(self.link, LinkFunction):
            raise DomainError("link must be one LinkFunction shared by all dimensions")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")


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
    """cols[l][r] = [(k, h_lk on refined bin r) for every nonzero entry].

    Slot r is ``ceil(lag * bin_scale)``.  Slot 0, the lag-0 entry, is empty:
    an event adds nothing at its own time.  One extra entry repeats the last
    bin: a lag of at most A can round to just past the last bin edge, and
    lands there without a clamp.
    """
    cols = []
    for v in vals:
        col = [[(k, float(x)) for k, x in enumerate(v[:, r]) if x != 0.0]
               for r in range(v.shape[1])]
        cols.append([[]] + col + col[-1:])
    return cols


def _envelope_columns(vals):
    """The drive's table for the largest positive contribution still to come.

    Slot r holds the suffix maxima of the clipped kernel from bin r on, the
    most an event now in bin r can still add at any later lag.  A
    just-accepted event (slot 0) enters bin 1 immediately after, so slot 0
    holds the bin-1 maxima.
    """
    suffmax = [np.maximum.accumulate(np.maximum(v, 0.0)[:, ::-1], axis=1)[:, ::-1]
               for v in vals]
    cols = _sparse_columns(suffmax)
    for col in cols:
        col[0] = col[1]
    return cols


def _drive(t, nu, windows, cols, a, bin_scale):
    """Sum of nu and the table entries of every active event at t, after
    pruning expired events.

    Adds the nonzero entries in window order, so the result is bitwise the
    dense column sum (see the module docstring).
    """
    ceil = math.ceil
    drive = list(nu)
    for win, col in zip(windows, cols):
        while win and t - win[0] > a:
            win.popleft()
        for s in win:
            for k, x in col[ceil((t - s) * bin_scale)]:
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
    """Draw one realisation; returns EventData on [-A, T].

    With the sigmoid link, more than ``core.MAX_POINTS`` expected thinning
    candidates (K theta (T + burn-in)) is a ConfigError, raised before the
    first draw; more than ``MAX_POINTS`` accepted events, SimulationDivergedError.
    """
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
        bound = _sum_in_order(link.theta for _ in range(k_dims))
        check_points(bound * (horizon + burn_in), "K theta (horizon_T + burn-in)",
                     "expected thinning candidates")
    else:
        env_cols = _envelope_columns(vals)

    nu = params.nu.astype(np.float64).tolist()
    windows = [deque() for _ in range(k_dims)]  # active events per source dim
    events = [[] for _ in range(k_dims)]
    n_accepted = 0
    t = -burn_in
    bin_scale = j_star / a
    # phi memo: the last argument and value of each dimension's link, and
    # the in-order sum of the values
    last = [math.nan] * k_dims
    phi = [0.0] * k_dims
    total = 0.0

    def phi_total(args):
        nonlocal total
        if args != last:
            for k, x in enumerate(args):
                if x != last[k]:
                    last[k] = x
                    phi[k] = link(x)
            total = _sum_in_order(phi)
        return total

    while True:
        if not bounded:
            # envelope valid from the current position until the next acceptance
            bound = max(phi_total(_drive(t, nu, windows, env_cols, a, bin_scale)),
                        1e-12)

        t += -math.log(1.0 - next(uniforms)) / bound
        if t > horizon:
            break

        lam_total = phi_total(_drive(t, nu, windows, cols, a, bin_scale))
        if lam_total > bound * (1.0 + 1e-9):
            raise SimulationDivergedError(
                "dominating bound violated; thinning envelope is invalid")

        u = next(uniforms) * bound
        if u < lam_total:
            acc = 0.0
            for k in range(k_dims):
                acc += phi[k]
                if u < acc:
                    events[k].append(t)
                    windows[k].append(t)
                    break
            n_accepted += 1
            if n_accepted > MAX_POINTS:
                raise SimulationDivergedError(
                    f"simulation exceeded {MAX_POINTS:.0e} events; "
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
