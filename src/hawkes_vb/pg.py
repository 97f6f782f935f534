"""Polya-Gamma distribution utilities.

PG(1, c) is the tilted distribution with density

    p(w; 1, c) = cosh(c/2) * exp(-c^2 w / 2) * p(w; 1, 0),

whose mean tanh(c/2)/(2c) drives the closed-form variational updates, while
exact draws feed the Gibbs sampler.  The identity

    sigmoid(x) = E_{w ~ PG(1,0)}[ exp(g(w, x)) ],
    g(w, x) = -w x^2 / 2 + x / 2 - log 2,

is what turns the sigmoid likelihood into a conditionally Gaussian one.

Draws come from the exact alternating-series rejection sampler of Devroye
(as used by Polson, Scott & Windle, 2013) for x = 4w: a two-piece proposal,
inverse-Gaussian body on (0, 0.64] and exponential tail above, accepted
against the partial sums of the Jacobi-theta series.  The series is decided,
never truncated, so the draws carry no truncation bias.  Every step runs on
all pending entries at once in NumPy.

``pg_sample_arr(c, rng, reps)`` draws reps[i] marks at tilt c[i], in the
order of ``np.repeat(c, reps)``: the Gibbs sweep passes one tilt per feature
column and its point count.  What depends on the tilt alone (z = c/2, the
tail rate, the tail's mass with its two ``log_ndtr`` calls, the body branch,
-z^2/2 and 1/z) is computed once per entry of c and looked up by its draws,
with the same arithmetic per draw, so the draws and the random stream are
those of one call on the repeated tilts.
"""

import math

import numpy as np

from hawkes_vb.errors import DomainError

__all__ = ["BACKEND", "pg_mean", "pg_sample_arr", "log_g"]

BACKEND = "numpy"

_TAYLOR_CUTOFF = 1e-4
_TRUNC = 0.64
_HALF_PI2 = math.pi * math.pi / 8.0
_MAX_TILT = 1e150  # beyond this z * z overflows the proposal's rates


def pg_mean(c):
    """Mean of PG(1, c): tanh(c/2)/(2c), continuously extended to 1/4 at 0.

    Accepts scalars or arrays; a Taylor branch 1/4 - c^2/48 avoids
    cancellation for tiny c.  Negative tilts are a domain error.
    """
    arr = np.asarray(c, dtype=np.float64)
    if np.any(arr < 0.0):
        raise DomainError("pg_mean requires a nonnegative tilt c")
    small = arr < _TAYLOR_CUTOFF
    safe = np.where(small, 1.0, arr)
    out = np.where(small,
                   0.25 - arr * arr / 48.0,
                   np.tanh(0.5 * safe) / (2.0 * safe))
    if np.ndim(c) == 0:
        return float(out)
    return out


def _series_coef(n, x, lead):
    # n-th coefficient of the alternating series for the Jacobi-type density:
    # the large-x form above the truncation point, the small-x form below.
    # ``lead`` is -1.5 log(pi x / 2), the part of the small-x exponent that
    # does not depend on n.
    k = (n + 0.5) * math.pi
    right = k * np.exp(-0.5 * k * k * x)
    left = k * np.exp(lead - 2.0 * (n + 0.5) ** 2 / x)
    return np.where(x > _TRUNC, right, left)


def _right_piece_mass(z, fz):
    # Probability that the proposal falls in the exponential tail (x > 0.64),
    # 1 / (1 + q/p), with q/p formed in log space so large z cannot overflow.
    from scipy.special import expit, log_ndtr

    rt = math.sqrt(1.0 / _TRUNC)
    x0 = np.log(fz) + fz * _TRUNC
    xb = x0 - z + log_ndtr(rt * (_TRUNC * z - 1.0))
    xa = x0 + z + log_ndtr(-rt * (_TRUNC * z + 1.0))
    return expit(-(math.log(4.0 / math.pi) + np.logaddexp(xb, xa)))


def _trunc_inv_gauss(tilt, low, neg_half_z2, inv_z, rng):
    # Inverse-Gaussian(mu=1/z, lambda=1) restricted to (0, 0.64], one draw per
    # entry of ``tilt``, by rejection repeated on the entries not yet
    # accepted.  ``tilt`` indexes the per-tilt terms: ``low`` flags
    # mu > 0.64 (z 0.64 < 1), ``neg_half_z2`` is -z^2/2 and ``inv_z`` is mu,
    # read only where ``low`` is False.  Each proposal branch keeps its own
    # list of pending entries.
    x = np.empty(tilt.size)
    lo = np.flatnonzero(low[tilt])
    hi = np.flatnonzero(~low[tilt])
    while lo.size or hi.size:
        # mu > 0.64 (covers z == 0): reciprocal-chi-square proposal; its
        # envelope test and the Gaussian-tilt test use separate variates, so
        # one joint test accepts the same distribution as two nested loops.
        e1 = rng.standard_exponential(lo.size)
        e2 = rng.standard_exponential(lo.size)
        prop = _TRUNC / (1.0 + _TRUNC * e1) ** 2
        ok = ((e1 * e1 <= 2.0 * e2 / _TRUNC)
              & (rng.random(lo.size) <= np.exp(neg_half_z2[tilt[lo]] * prop)))
        x[lo[ok]] = prop[ok]
        lo = lo[~ok]
        # mu <= 0.64: untruncated draw (Michael-Schucany-Haas, smaller root in
        # its cancellation-free form), kept when it lands below 0.64.
        mu = inv_z[tilt[hi]]
        a = mu * rng.standard_normal(mu.size) ** 2
        root = mu / (1.0 + 0.5 * a + np.sqrt(a + 0.25 * a * a))
        root = np.where(rng.random(mu.size) > mu / (mu + root), mu * mu / root, root)
        ok = root <= _TRUNC
        x[hi[ok]] = root[ok]
        hi = hi[~ok]
    return x


def _series_accepts(x, rng):
    # Alternating-series test: accept x with probability f(x) / a_0(x) by
    # comparing one uniform against partial sums until each entry is decided.
    lead = -1.5 * np.log(0.5 * math.pi * x)
    s = _series_coef(0, x, lead)
    y = rng.random(x.size) * s
    accept = np.zeros(x.size, dtype=bool)
    open_ = np.arange(x.size)
    n = 0
    while open_.size:
        n += 1
        term = _series_coef(n, x[open_], lead[open_])
        if n % 2:
            s[open_] -= term
            done = y[open_] <= s[open_]
            accept[open_[done]] = True
        else:
            s[open_] += term
            done = y[open_] > s[open_]
        open_ = open_[~done]
    return accept


def _checked_reps(reps, c):
    """``reps`` as intp counts, one per entry of a 1-d ``c``; DomainError
    otherwise."""
    reps = np.asarray(reps)
    if c.ndim != 1:
        raise DomainError(f"pg_sample_arr with reps requires a 1-d c, got shape {c.shape}")
    if not np.issubdtype(reps.dtype, np.integer):
        raise DomainError(f"pg_sample_arr reps must be integers, got dtype {reps.dtype}")
    if reps.shape != c.shape:
        raise DomainError(f"pg_sample_arr needs one count per tilt, got {reps.size} "
                          f"counts for {c.size} tilts")
    if np.any(reps < 0):
        raise DomainError("pg_sample_arr reps must be nonnegative")
    return reps.astype(np.intp, copy=False)


def pg_sample_arr(c, rng, reps=None):
    """Exact PG(1, c) draws.

    Without ``reps``: one draw per entry of c, in the shape of c.  With
    ``reps`` (nonnegative integers, one per entry of a 1-d c): reps[i] draws
    at tilt c[i], flat, in the order of ``np.repeat(c, reps)``, and the same
    draws that call would give.  The tilt-only terms of the sampler are
    computed once per entry of c and looked up by its draws.
    """
    c = np.asarray(c, dtype=np.float64)
    if not np.all((c >= 0.0) & (c <= _MAX_TILT)):
        raise DomainError(f"pg_sample_arr requires tilts in [0, {_MAX_TILT:g}]")
    # the entry of c behind each draw
    col = np.arange(c.size) if reps is None else np.repeat(np.arange(c.size),
                                                           _checked_reps(reps, c))
    z = 0.5 * c.ravel()
    low = z * _TRUNC < 1.0
    fz = _HALF_PI2 + 0.5 * z * z
    right = _right_piece_mass(z, fz)
    neg_half_z2 = -0.5 * z ** 2
    inv_z = 1.0 / np.where(low, 1.0, z)
    out = np.empty(col.size)
    todo = np.arange(col.size)
    while todo.size:
        tilt = col[todo]
        tail = rng.random(todo.size) < right[tilt]
        x = np.empty(todo.size)
        x[tail] = _TRUNC + rng.standard_exponential(np.count_nonzero(tail)) / fz[tilt[tail]]
        x[~tail] = _trunc_inv_gauss(tilt[~tail], low, neg_half_z2, inv_z, rng)
        accept = _series_accepts(x, rng)
        out[todo[accept]] = 0.25 * x[accept]
        todo = todo[~accept]
    return out.reshape(c.shape if reps is None else col.shape)


def log_g(omega, x):
    """Exponent of the sigmoid mixture representation: -w x^2/2 + x/2 - log 2."""
    if np.ndim(omega) == 0 and omega <= 0.0:
        raise DomainError("log_g requires omega > 0")
    return -0.5 * np.asarray(omega) * x * x + 0.5 * x - math.log(2.0)
