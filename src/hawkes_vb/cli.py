"""Configuration-driven experiment harness.

Subcommands: ``hawkes-vb simulate|fit|eval --config cfg.json [--seed N]
[--out DIR] [--threads N]``.  Exit codes: 0 success, 1 config error, 2 I/O
error, 3 data error, 4 numerical failure; every package error carries its
code (see ``hawkes_vb.errors``), and failures additionally emit a
machine-readable ``{"error": {...}}`` object on stderr.  A ``truth`` section
that does not fit its ``bins_J`` or ``dims_K`` is a config error, and so is a
fit depth (``basis.D`` or ``adaptive.D_max``) whose bins memory_A/2^D are
finer than the 1e-6 resolution of event times, a fit link whose alpha^2
overflows, a prior, candidate, quadrature node, posterior covariance entry
(K d^2 at the complete sub-model's d, for a VI fit) or Gibbs latent
candidate count past the ``core.check_points`` cap or bad Gibbs settings; a
fit checks these, and refuses a link other than the sigmoid (exit 1), before
any event is read or simulated.
``eval`` scores ``result.json`` against the truth; a result whose
``memory_A`` differs from the config's, whose ``bins_J`` is not a power of
two, whose column does not have ``dims_K`` entries or that holds a NaN or
Infinity is a data error.  A fit with non-finite results writes no
``result.json`` and ends as a numerical failure.

File formats
------------
events.csv   header ``dim,time``; 0-based dimension, time fixed to 6
             decimals, rows sorted by time.  Ingestion re-checks
             tie-freeness after rounding and jitters ties forward by 1e-9
             (at least one ulp), or backward where forward would pass
             horizon_T, with a warning.
stats.json   event counts, excursion counts, seed.
result.json  per-dimension posterior mean/cov (row-major), model weights,
             estimated graph, norm matrix, ELBO traces.  Byte-identical
             for identical config+seed and any thread count.
timing.json  wall-clock seconds, the task-pool size and whether BLAS was
             held at one thread inside the fits and the Gibbs sweeps; for
             a VI fit also the candidates fitted, their CAVI iterations
             and the fits that stopped at ``vi.max_iter`` without
             converging (``candidates``, ``cavi_iterations``,
             ``fits_not_converged``), summed over both two-step steps.
metrics.json risk, accuracies, per-edge L1 errors (``metrics.evaluate``;
             a Gibbs result is scored with the diagonal covariance of its
             marginal sds).
h_{l}_{k}.csv plot data: grid x, posterior mean of h_lk, pointwise 2.5% and
             97.5% Gaussian quantiles.  A fit removes the plot files of
             edges it did not select (a Gibbs fit removes them all).  The
             plots are written after result.json, so a fit that ends
             without result.json writes none.

Output files are overwritten in place: the old file is cut to the new
length, never truncated to zero, replaced or unlinked first.

A config is checked against the key table ``_CONFIG_KEYS``: each key's type
and lower bound or allowed strings, the required keys, and no unknown key in
any section.  ``--seed``, ``--out`` and ``--threads`` replace their config keys
before the check, so the same rules cover them.

Importing this module loads no SciPy and no validator package: ``simulate``
never loads SciPy, a VI fit imports ``scipy.linalg`` when its first prior is
factorised, and the Gibbs oracle, ``eval`` and the two-step norm matrix import
``scipy.special`` on first use.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
import time
import warnings
from itertools import repeat
from types import SimpleNamespace

import numpy as np

from hawkes_vb import _blas, adaptive, metrics, vi
from hawkes_vb.core import (EventData, HawkesParams, HistogramBasis, LinkFunction,
                            check_points)
from hawkes_vb.errors import ConfigError, DataError, HawkesVBError, NumericalError
from hawkes_vb.gibbs import GibbsConfig, check_latent_candidates, gibbs_sample
from hawkes_vb.simulate import SimConfig, excursion_stats, simulate
from hawkes_vb.vi import GaussianPrior, QuadratureGrid, VIConfig, usable_cores

EXIT_OK = 0
EXIT_CONFIG = ConfigError.exit_code
EXIT_IO = 2
EXIT_DATA = DataError.exit_code
EXIT_NUMERICAL = NumericalError.exit_code

_TIME_RESOLUTION = 1e-6  # events.csv stores times to 6 decimals

# Each config key maps to its rule: a "type" or "type op bound" string (types
# number, integer, string and null; a number is never true or false, and an
# integer is an int literal), a set of allowed strings, a tuple of alternative
# rules, a list [rule] or [rule, fewest entries] of such values, or a dict of
# the keys of a section.  _REQUIRED names the keys a section must hold.
_CONFIG_KEYS = {
    "mode": {"simulate", "fit", "eval"},
    "link": {"kind": {"sigmoid", "relu", "softplus"}, "theta": "number > 0",
             "alpha": "number > 0", "eta": "number", "theta_base": "number >= 0"},
    "memory_A": "number > 0",
    "dims_K": "integer >= 1",
    "horizon_T": "number >= 0",
    "truth": {"nu": ["number", 1], "weights": [[(["number"], "null")]],
              "bins_J": "integer >= 1"},
    "events_csv": "string",
    "result_json": "string",
    "burn_in": "number >= 0",
    "basis": {"D": "integer >= 0"},
    "prior": {"mu": "number", "sigma": "number > 0"},
    "vi": {"max_iter": "integer >= 1", "tol": "number > 0"},
    "adaptive": {"D_max": "integer >= 0", "threshold": ({"auto"}, "number")},
    "gibbs": {"n_iter": "integer >= 2", "burn_in": "integer >= 0", "thin": "integer >= 1"},
    "fit_method": {"fixed", "adaptive", "two-step", "gibbs"},
    "seed": "integer",
    "out_dir": "string",
    "threads": "integer >= 1",
}
_REQUIRED = {"": ("mode", "memory_A", "dims_K"), "truth": ("nu", "weights", "bins_J")}
_TYPES = {"number": lambda v: type(v) in (int, float),
          "integer": lambda v: type(v) is int,
          "string": lambda v: type(v) is str,
          "null": lambda v: v is None}

# link, vi and gibbs take their defaults from LinkFunction, VIConfig, GibbsConfig
_DEFAULTS = {
    "prior": {"mu": 0.0, "sigma": 5.0},
    "adaptive": {"D_max": 3, "threshold": "auto"},
    "seed": 0,
    "out_dir": ".",
}


def _finite_float(text):
    """JSON number parser that rejects NaN, Infinity and overflowing literals."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is not finite")
    return value


def _float_range_int(text):
    """JSON integer parser that rejects integers past the float range."""
    # more than 309 digits is past it, and int() refuses very long texts
    if len(text.lstrip("-")) > 309 or abs(int(text)) > sys.float_info.max:
        raise ValueError(f"integer {text[:12]}... is past the float range")
    return int(text)


def _read_json(path, error):
    """The JSON at path; bad UTF-8, bad JSON or a non-finite number raises error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_float=_finite_float, parse_int=_float_range_int,
                             parse_constant=_finite_float)
    except ValueError as exc:  # also JSONDecodeError and UnicodeDecodeError
        raise error(f"{path} is not UTF-8 JSON of finite numbers: {exc}") from exc


def _describe(rule):
    """The values ``rule`` allows, in words."""
    if isinstance(rule, tuple):
        return " or ".join(map(_describe, rule))
    if isinstance(rule, set):
        return " or ".join(map(json.dumps, sorted(rule)))
    if isinstance(rule, list):
        return f"a list of {rule[1]} or more entries" if len(rule) > 1 else "a list"
    if isinstance(rule, dict):
        return "an object"
    return rule if rule == "null" else ("an " if rule[0] == "i" else "a ") + rule


def _violation(value, rule, path=""):
    """Where and how ``value`` at ``path`` first breaks ``rule``; None if it does not."""
    if isinstance(rule, tuple):
        keeps = not all(_violation(value, alt, path) for alt in rule)
    elif isinstance(rule, set):
        keeps = type(value) is str and value in rule
    elif isinstance(rule, list):
        keeps = type(value) is list and len(value) >= (rule[1] if len(rule) > 1 else 0)
    elif isinstance(rule, dict):
        keeps = type(value) is dict
    else:
        kind, *bound = rule.split()
        keeps = _TYPES[kind](value)
        if keeps and bound:
            low = float(bound[1])
            keeps = value > low if bound[0] == ">" else value >= low
    if not keeps:
        got = json.dumps(value)[:60]
        return f"{path or 'the config'} must be {_describe(rule)}, got {got}"
    if isinstance(rule, list):
        return next(filter(None, (_violation(entry, rule[0], f"{path}[{i}]")
                                  for i, entry in enumerate(value))), None)
    if isinstance(rule, dict):
        prefix = f"{path}." if path else ""
        for key in _REQUIRED.get(path, ()):
            if key not in value:
                return f"{prefix}{key} is required"
        for key, entry in value.items():
            if key not in rule:
                return f"{prefix}{key} is not a known key"
            if why := _violation(entry, rule[key], prefix + key):
                return why
    return None


def load_config(path, **flags):
    """The config at ``path`` with its defaults filled in.

    Each flag that is not None replaces the config's key of that name before
    the config is checked against ``_CONFIG_KEYS``.
    """
    raw = _read_json(path, ConfigError)
    if type(raw) is dict:  # any other value fails the check
        raw.update((key, val) for key, val in flags.items() if val is not None)
    if why := _violation(raw, _CONFIG_KEYS):
        raise ConfigError(f"config schema violation: {why}")
    cfg = {**_DEFAULTS, **raw}
    for key, val in _DEFAULTS.items():
        if isinstance(val, dict):  # a section takes each of its keys from the defaults
            cfg[key] = {**val, **raw.get(key, {})}
    return cfg


def _link_from(cfg):
    return LinkFunction(**cfg.get("link", {}))


def _truth_from(cfg):
    t = cfg.get("truth")
    if t is None:
        raise ConfigError("this mode requires a 'truth' section")
    if len(t["nu"]) != cfg["dims_K"]:
        raise ConfigError("truth.nu length must equal dims_K")
    try:
        return HawkesParams.build(t["nu"], t["weights"],
                                  HistogramBasis(cfg["memory_A"], t["bins_J"]))
    except DataError as exc:
        raise ConfigError(f"truth: {exc}") from exc


def write_events_csv(path, events):
    """Write all events sorted by time, then dimension, one row each."""
    times = np.concatenate(events.times)
    dims = np.repeat(np.arange(events.dims_K), [t.size for t in events.times])
    order = np.lexsort((dims, times))
    rows = "".join(f"{k},{t:.6f}\n"
                   for k, t in zip(dims[order].tolist(), times[order].tolist()))
    _write_text(path, "dim,time\n" + rows)


def read_events_csv(path, dims_K, horizon_T):
    """Ingest an event file, re-checking tie-freeness at 1e-6 resolution."""
    dims, times = [], []
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "dim,time":
                raise DataError(f"bad events header {header!r}; expected 'dim,time'")
            first_row = 2
            # blocks of about 64 KiB keep the parse in bulk and its memory small
            while lines := fh.readlines(1 << 16):
                block_dims, block_times = _parse_rows(lines, first_row, dims_K)
                dims += block_dims
                times += block_times
                first_row += len(lines)
    except UnicodeDecodeError as exc:
        raise DataError(f"events file is not valid UTF-8: {exc}") from exc
    by_dim = [[] for _ in range(dims_K)]
    for d, t in zip(dims, times):
        by_dim[d].append(t)
    seen = {}  # a dict: smaller than a set of the same floats
    for ts in by_dim:
        for i, t in enumerate(ts):
            if t in seen:
                t = _untie(t, seen, horizon_T)
            seen[t] = True
            ts[i] = t
    arrays = tuple(np.sort(np.asarray(ts, dtype=np.float64)) for ts in by_dim)
    return EventData(dims_K=dims_K, horizon_T=horizon_T, times=arrays)


def _parse_rows(lines, first_row, dims_K):
    """Dimensions and times of the nonblank lines, parsed in bulk.

    Lines with a bad row go through one by one instead, which raises the
    DataError of the first; rows count from ``first_row``, blank lines too.
    """
    rows = list(filter(None, map(str.strip, lines)))
    # one comma per row, so the joined fields alternate dimension and time
    if {1}.issuperset(map(str.count, rows, repeat(","))):
        fields = ",".join(rows).split(",") if rows else []
        try:
            dims = list(map(int, fields[0::2]))
            times = list(map(float, fields[1::2]))
        except ValueError:
            pass
        else:
            if all(map(math.isfinite, times)) and (
                    not dims or (min(dims) >= 0 and max(dims) < dims_K)):
                return dims, times
    for ln, line in enumerate(lines, start=first_row):
        line = line.strip()
        if not line:
            continue
        try:
            d, t = line.split(",")
            d = int(d)
            t = float(t)
        except ValueError as exc:
            raise DataError(f"malformed event row {ln}: {line!r}") from exc
        if not math.isfinite(t):
            raise DataError(f"event row {ln}: time {t} is not finite")
        if not 0 <= d < dims_K:
            raise DataError(f"event row {ln}: dimension {d} out of range")


def _untie(t, seen, horizon_T):
    """First free time stepping forward from a tie at t, or backward if that passes T."""
    for sign, way in ((1.0, "forward"), (-1.0, "backward")):
        u, steps = t, 0
        while u in seen:
            v = u + sign * 1e-9
            # 1e-9 is below half an ulp once |t| >= 2**24
            u = v if v != u else math.nextafter(u, sign * math.inf)
            steps += 1
        if u <= horizon_T or sign < 0:
            for _ in range(steps):
                warnings.warn(f"tie at t={t:.6f} after rounding; jittering {way}")
            return u


def _write_text(path, text):
    """Write text to path as UTF-8, overwriting an existing file in place.

    The file is opened without O_TRUNC and cut at the end of the new text, so
    a rewrite of the same or a longer text frees no disk blocks.  On a
    filesystem that discards freed blocks, truncating, replacing or unlinking
    a written-back file blocks the caller for tens of milliseconds.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("utf-8"))
        fh.truncate()


def _dump_json(path, payload):
    """Write payload as JSON; a NaN or infinity in it is a NumericalError."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"{os.path.basename(path)} not written: {exc}") from exc
    _write_text(path, text + "\n")


def _simulate_truth(cfg):
    """Simulate the config's truth section on [0, horizon_T] with the run seed."""
    link = _link_from(cfg)
    truth = _truth_from(cfg)
    if "horizon_T" not in cfg:
        raise ConfigError("simulating the truth requires horizon_T")
    return simulate(SimConfig(params=truth, link=link, horizon_T=cfg["horizon_T"],
                              burn_in=cfg.get("burn_in"), seed=cfg["seed"]))


def cmd_simulate(cfg):
    raw = _simulate_truth(cfg)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "events.csv")
    write_events_csv(csv_path, raw)
    events = read_events_csv(csv_path, cfg["dims_K"], cfg["horizon_T"])
    st = excursion_stats(events, cfg["memory_A"])
    _dump_json(os.path.join(out_dir, "stats.json"), {
        "seed": cfg["seed"],
        "num_events": list(st.num_events),
        "num_events_total": int(sum(st.num_events)),
        "num_global_excursions": st.num_global_excursions,
        "num_local_excursions": list(st.num_local_excursions),
    })
    return EXIT_OK


def _load_events(cfg):
    if "events_csv" in cfg:
        return read_events_csv(cfg["events_csv"], cfg["dims_K"], cfg["horizon_T"])
    return _simulate_truth(cfg)


def _posterior_payload(result):
    k_dims = len(result.per_dim)
    dims = []
    for k in range(k_dims):
        dw = result.per_dim[k]
        sel = result.selected_posterior(k)
        sm = result.selected_submodel(k)
        dims.append({
            "column": list(sm.column),
            "bins_J": sm.num_bins,
            "mean": sel.mean.tolist(),
            "cov_row_major": sel.cov.ravel().tolist(),
            "elbo": sel.elbo,
            "elbo_trace": list(sel.elbo_trace),
            "iterations": sel.iterations,
            "converged": sel.converged,
            "weights": dw.weights.tolist(),
            "candidates": [{"column": list(s.column), "bins_J": s.num_bins,
                            "elbo": float(e)}
                           for s, e in zip(dw.submodels, dw.elbos)],
        })
    return dims


_PLOT_CSV = re.compile(r"h_(0|[1-9][0-9]*)_(0|[1-9][0-9]*)\.csv")


def _write_plot_csvs(out_dir, result, memory_A, n_grid=101):
    """Write h_{l}_{k}.csv for every selected edge and remove the others."""
    k_dims = len(result.per_dim)
    grid = np.linspace(0.0, memory_A, n_grid)
    written = set()
    for k in range(k_dims):
        sm = result.selected_submodel(k)
        post = result.selected_posterior(k)
        j = sm.num_bins
        height = j / memory_A
        idx = np.minimum((np.ceil(grid * j / memory_A)).astype(int), j)
        idx = np.maximum(idx, 1) - 1
        for l in sm.active_sources:
            rows = sm.block(l)
            mean_h = post.mean[rows][idx] * height
            sd_h = np.sqrt(np.maximum(np.diag(post.cov)[rows][idx], 0.0)) * height
            lo = mean_h - 1.959963984540054 * sd_h
            hi = mean_h + 1.959963984540054 * sd_h
            name = f"h_{l}_{k}.csv"
            _write_text(os.path.join(out_dir, name), "x,mean,lo,hi\n" + "".join(
                f"{x:.6f},{float(m)!r},{float(a)!r},{float(b)!r}\n"
                for x, m, a, b in zip(grid, mean_h, lo, hi)))
            written.add(name)
    _remove_plot_csvs(out_dir, keep=written)


def _remove_plot_csvs(out_dir, keep=frozenset()):
    """Delete the plot CSVs in out_dir whose names are not in keep."""
    for name in os.listdir(out_dir):
        if _PLOT_CSV.fullmatch(name) and name not in keep:
            os.unlink(os.path.join(out_dir, name))


def _fit_depth(cfg, method):
    """Deepest histogram the fit uses; bins must not be finer than event times."""
    if method in ("fixed", "gibbs"):
        if "D" not in cfg.get("basis", {}):
            raise ConfigError(f"{method} fit requires basis.D")
        depth, key = cfg["basis"]["D"], "basis.D"
    else:
        depth, key = cfg["adaptive"]["D_max"], "adaptive.D_max"
    if math.ldexp(cfg["memory_A"], -depth) < _TIME_RESOLUTION:
        raise ConfigError(f"{key}={depth} makes bins of memory_A/2^{depth}, finer than "
                          f"the {_TIME_RESOLUTION:g} resolution of event times")
    return depth


def cmd_fit(cfg):
    method = cfg.get("fit_method", "fixed")
    depth = _fit_depth(cfg, method)
    link = _link_from(cfg)
    vi.check_link(link)
    memory_A = cfg["memory_A"]
    k_dims = cfg["dims_K"]
    if "horizon_T" not in cfg:
        raise ConfigError("fitting requires horizon_T")
    # one prior per parameter count, shared by all fits; the complete sub-model's
    # is the largest, and it, the candidates, GibbsConfig and the time caps (the
    # quadrature, or the Gibbs latent points) are made before any read
    prior = functools.cache(functools.partial(
        GaussianPrior.isotropic, sigma=cfg["prior"]["sigma"], mean=cfg["prior"]["mu"]))
    complete = adaptive.SubModel(column=(1,) * k_dims, depth=depth)
    prior(complete.param_dim)
    if method == "gibbs":
        gc = GibbsConfig(**cfg.get("gibbs", {}), seed=cfg["seed"])
        check_latent_candidates(link, cfg["horizon_T"])
    else:
        # every dimension's posterior holds a covariance of the complete sub-model's size
        d = complete.param_dim
        check_points(k_dims * d * d, f"{k_dims} x {d}^2", "posterior covariance entries")
        quad = QuadratureGrid.default(cfg["horizon_T"], memory_A)
    if method == "adaptive":
        subs = adaptive.enumerate_submodels(k_dims, depth)
    elif method == "fixed":
        subs = [complete]
    events = _load_events(cfg)
    vic = VIConfig(**cfg.get("vi", {}), threads=cfg.get("threads") or usable_cores())
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    t_start = time.perf_counter()

    payload = {"method": method, "seed": cfg["seed"], "dims_K": k_dims,
               "memory_A": memory_A}
    fits = ()  # the AdaptiveResult of each VI step
    if method == "gibbs":
        model = adaptive.Model(graph_delta=np.ones((k_dims, k_dims), dtype=np.int8),
                               bins_J=(2 ** depth,) * k_dims, memory_A=memory_A)
        chain = gibbs_sample(events, gc, link, model, [prior(complete.param_dim)] * k_dims)
        payload["dimensions"] = [{
            "mean": chain.mean(k).tolist(),
            "sd": chain.sd(k).tolist(),
            "n_kept": int(chain.samples[k].shape[0]),
        } for k in range(k_dims)]
    else:
        if method == "two-step":
            two = adaptive.two_step(events, link, depth, prior, vic, memory_A=memory_A,
                                    threshold=cfg["adaptive"]["threshold"], quad=quad)
            fits = (two.step1, two.step2)
            payload["s_hat"] = two.graph.s_hat.tolist()
            payload["threshold"] = two.graph.threshold
        else:
            fits = (adaptive.fully_adaptive(events, [subs] * k_dims, link, prior, vic,
                                            memory_A=memory_A, quad=quad),)
        model = fits[-1].selected_model()
        payload["dimensions"] = _posterior_payload(fits[-1])
    payload["delta_hat"] = model.graph_delta.tolist()
    payload["bins_J"] = list(model.bins_J)
    wall = time.perf_counter() - t_start
    _dump_json(os.path.join(out_dir, "result.json"), payload)
    # plots only after result.json, so a fit that writes none leaves none
    if fits:
        _write_plot_csvs(out_dir, fits[-1], memory_A)
    else:
        _remove_plot_csvs(out_dir)
    _dump_json(os.path.join(out_dir, "timing.json"), {
        "wall_clock_s": wall,
        "threads": 1 if method == "gibbs" else vic.threads,
        "blas_threads_pinned": _blas.pinned(),
        **_cavi_counts(fits),
    })
    return EXIT_OK


def _cavi_counts(fits):
    """Candidates, CAVI iterations and non-converged fits over every VI step."""
    if not fits:
        return {}
    posts = [post for fit in fits for dim in fit.posteriors for post in dim]
    return {"candidates": len(posts),
            "cavi_iterations": sum(post.iterations for post in posts),
            "fits_not_converged": sum(not post.converged for post in posts)}


def _numbers(value):
    """``value`` as a float64 array; DataError unless every entry is a number."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise DataError(f"expected an array of numbers, got {json.dumps(value)[:60]}")
    return arr.astype(np.float64)


def cmd_eval(cfg):
    path = cfg.get("result_json")
    if path is None:
        raise ConfigError("eval requires result_json")
    result = _read_json(path, DataError)
    truth = _truth_from(cfg)
    k_dims = cfg["dims_K"]
    try:
        delta_hat = result["delta_hat"]
        # 0 or 1 only: a bool is not a number (the rule of _TYPES)
        if any(type(v) is not int or v not in (0, 1) for row in delta_hat for v in row):
            raise DataError("delta_hat entries must be 0 or 1")
        delta_hat = np.asarray(delta_hat, dtype=np.int8)
        bins = result["bins_J"]
        dims = result["dimensions"]
        memory_A = float(result.get("memory_A", cfg["memory_A"]))
        posts, subs = [], []
        for k in range(k_dims):
            dd = dims[k]
            mean = _numbers(dd["mean"])
            if "cov_row_major" in dd:
                cov = _numbers(dd["cov_row_major"]).reshape(mean.size, mean.size)
            else:  # gibbs summaries carry marginal sds only
                cov = np.diag(_numbers(dd["sd"]) ** 2)
            if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
                raise DataError(f"posterior of dimension {k} needs a 1-d mean and a "
                                f"square covariance of its size")
            column = tuple(dd.get("column", delta_hat[:, k].tolist()))
            j = dd.get("bins_J", bins[k])
            if type(j) is not int or j < 1 or j & (j - 1):
                raise DataError(f"bins_J {j} of dimension {k} is not a power of two")
            sm = adaptive.SubModel(column=column, depth=j.bit_length() - 1)
            if len(column) != k_dims or mean.size != sm.param_dim:
                raise DataError("posterior size or column inconsistent with its model")
            posts.append(SimpleNamespace(mean=mean, cov=cov))
            subs.append(sm)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise DataError(f"result file has missing or malformed fields: {exc}") from exc
    report = metrics.evaluate(posts, subs, delta_hat, truth, memory_A=memory_A)
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    _dump_json(os.path.join(out_dir, "metrics.json"),
               {**dataclasses.asdict(report), "per_edge_l1": report.per_edge_l1.tolist()})
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hawkes-vb",
        description="Simulate, fit and evaluate nonlinear Hawkes processes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "fit", "eval"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--threads", type=int, default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out,
                          threads=args.threads)
        if cfg["mode"] != args.command:
            raise ConfigError(
                f"config mode {cfg['mode']!r} does not match command {args.command!r}")
        handler = {"simulate": cmd_simulate, "fit": cmd_fit, "eval": cmd_eval}
        return handler[args.command](cfg)
    except HawkesVBError as exc:
        _fail(exc, exc.exit_code)
        return exc.exit_code
    except OSError as exc:
        _fail(exc, EXIT_IO)
        return EXIT_IO


def _fail(exc, code):
    print(json.dumps({"error": {"code": code, "type": type(exc).__name__,
                                "message": str(exc)}}),
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
