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


def _series_coef(n, x):
    # n-th coefficient of the alternating series for the Jacobi-type density:
    # the large-x form above the truncation point, the small-x form below.
    k = (n + 0.5) * math.pi
    right = k * np.exp(-0.5 * k * k * x)
    left = k * np.exp(-1.5 * np.log(0.5 * math.pi * x) - 2.0 * (n + 0.5) ** 2 / x)
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


def _trunc_inv_gauss(z, rng):
    # Inverse-Gaussian(mu=1/z, lambda=1) restricted to (0, 0.64], one draw per
    # entry of z, by rejection repeated on the entries not yet accepted.
    x = np.empty(z.size)
    todo = np.arange(z.size)
    while todo.size:
        zt = z[todo]
        prop = np.empty(zt.size)
        ok = np.empty(zt.size, dtype=bool)
        # mu > 0.64 (covers z == 0): reciprocal-chi-square proposal; its
        # envelope test and the Gaussian-tilt test use separate variates, so
        # one joint test accepts the same distribution as two nested loops.
        low = zt * _TRUNC < 1.0
        n = np.count_nonzero(low)
        e1 = rng.standard_exponential(n)
        e2 = rng.standard_exponential(n)
        prop[low] = _TRUNC / (1.0 + _TRUNC * e1) ** 2
        ok[low] = ((e1 * e1 <= 2.0 * e2 / _TRUNC)
                   & (rng.random(n) <= np.exp(-0.5 * zt[low] ** 2 * prop[low])))
        # mu <= 0.64: untruncated draw (Michael-Schucany-Haas, smaller root in
        # its cancellation-free form), kept when it lands below 0.64.
        mu = 1.0 / zt[~low]
        a = mu * rng.standard_normal(mu.size) ** 2
        root = mu / (1.0 + 0.5 * a + np.sqrt(a + 0.25 * a * a))
        root = np.where(rng.random(mu.size) > mu / (mu + root), mu * mu / root, root)
        prop[~low] = root
        ok[~low] = root <= _TRUNC
        x[todo[ok]] = prop[ok]
        todo = todo[~ok]
    return x


def _series_accepts(x, rng):
    # Alternating-series test: accept x with probability f(x) / a_0(x) by
    # comparing one uniform against partial sums until each entry is decided.
    s = _series_coef(0, x)
    y = rng.random(x.size) * s
    accept = np.zeros(x.size, dtype=bool)
    open_ = np.arange(x.size)
    n = 0
    while open_.size:
        n += 1
        term = _series_coef(n, x[open_])
        if n % 2:
            s[open_] -= term
            done = y[open_] <= s[open_]
            accept[open_[done]] = True
        else:
            s[open_] += term
            done = y[open_] > s[open_]
        open_ = open_[~done]
    return accept


def pg_sample_arr(c, rng):
    """Exact PG(1, c) draws, one per entry of c, in the shape of c."""
    c = np.asarray(c, dtype=np.float64)
    if not np.all((c >= 0.0) & (c <= _MAX_TILT)):
        raise DomainError(f"pg_sample_arr requires tilts in [0, {_MAX_TILT:g}]")
    z = 0.5 * c.ravel()
    fz = _HALF_PI2 + 0.5 * z * z
    right = _right_piece_mass(z, fz)
    out = np.empty(z.size)
    todo = np.arange(z.size)
    while todo.size:
        tail = rng.random(todo.size) < right[todo]
        x = np.empty(todo.size)
        x[tail] = _TRUNC + rng.standard_exponential(np.count_nonzero(tail)) / fz[todo[tail]]
        x[~tail] = _trunc_inv_gauss(z[todo[~tail]], rng)
        accept = _series_accepts(x, rng)
        out[todo[accept]] = 0.25 * x[accept]
        todo = todo[~accept]
    return out.reshape(c.shape)


def log_g(omega, x):
    """Exponent of the sigmoid mixture representation: -w x^2/2 + x/2 - log 2."""
    if np.ndim(omega) == 0 and omega <= 0.0:
        raise DomainError("log_g requires omega > 0")
    return -0.5 * np.asarray(omega) * x * x + 0.5 * x - math.log(2.0)
