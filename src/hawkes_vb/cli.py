"""Configuration-driven experiment harness.

Subcommands: ``hawkes-vb simulate|fit|eval --config cfg.json [--seed N]
[--out DIR] [--threads N]``.  Exit codes: 0 success, 1 config error, 2 I/O
error, 3 data error, 4 numerical failure; every package error carries its
code (see ``hawkes_vb.errors``), and failures additionally emit a
machine-readable ``{"error": {...}}`` object on stderr.

File formats
------------
events.csv   header ``dim,time``; 0-based dimension, time fixed to 6
             decimals, rows sorted by time.  Ingestion re-checks
             tie-freeness after rounding and jitters ties by 1e-9 with a
             warning.
stats.json   event counts, excursion counts, seed.
result.json  per-dimension posterior mean/cov (row-major), model weights,
             estimated graph, norm matrix, ELBO traces.  Byte-identical
             for identical config+seed; wall-clock goes to timing.json.
metrics.json risk, accuracies, per-edge L1 errors.
h_{l}_{k}.csv plot data: grid x, posterior mean of h_lk, pointwise 2.5% and
             97.5% Gaussian quantiles.
"""

import argparse
import json
import math
import os
import sys
import time
import warnings

import numpy as np
import jsonschema

from hawkes_vb import adaptive, metrics
from hawkes_vb.core import EventData, HawkesParams, HistogramBasis, LinkFunction
from hawkes_vb.errors import ConfigError, DataError, HawkesVBError, NumericalError
from hawkes_vb.gibbs import GibbsConfig, gibbs_sample
from hawkes_vb.simulate import SimConfig, excursion_stats, simulate
from hawkes_vb.vi import GaussianPrior, VIConfig

EXIT_OK = 0
EXIT_CONFIG = ConfigError.exit_code
EXIT_IO = 2
EXIT_DATA = DataError.exit_code
EXIT_NUMERICAL = NumericalError.exit_code

_LINK_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["sigmoid", "relu", "softplus"]},
        "theta": {"type": "number", "exclusiveMinimum": 0},
        "alpha": {"type": "number", "exclusiveMinimum": 0},
        "eta": {"type": "number"},
        "theta_base": {"type": "number", "minimum": 0},
    },
    "additionalProperties": False,
}

_TRUTH_SCHEMA = {
    "type": "object",
    "properties": {
        "nu": {"type": "array", "items": {"type": "number"}, "minItems": 1},
        "weights": {"type": "array"},  # K x K of (array of numbers | null)
        "bins_J": {"type": "integer", "minimum": 1},
    },
    "required": ["nu", "weights", "bins_J"],
    "additionalProperties": False,
}

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "mode": {"enum": ["simulate", "fit", "eval"]},
        "link": _LINK_SCHEMA,
        "memory_A": {"type": "number", "exclusiveMinimum": 0},
        "dims_K": {"type": "integer", "minimum": 1},
        "horizon_T": {"type": "number", "minimum": 0},
        "truth": _TRUTH_SCHEMA,
        "events_csv": {"type": "string"},
        "result_json": {"type": "string"},
        "burn_in": {"type": "number", "minimum": 0},
        "basis": {
            "type": "object",
            "properties": {"D": {"type": "integer", "minimum": 0}},
            "additionalProperties": False,
        },
        "prior": {
            "type": "object",
            "properties": {"mu": {"type": "number"},
                           "sigma": {"type": "number", "exclusiveMinimum": 0}},
            "additionalProperties": False,
        },
        "vi": {
            "type": "object",
            "properties": {"max_iter": {"type": "integer", "minimum": 1},
                           "tol": {"type": "number", "exclusiveMinimum": 0},
                           "n_quad": {"type": ["integer", "null"], "minimum": 1}},
            "additionalProperties": False,
        },
        "adaptive": {
            "type": "object",
            "properties": {
                "D_max": {"type": "integer", "minimum": 0},
                "threshold": {"anyOf": [{"enum": ["auto"]}, {"type": "number"}]},
            },
            "additionalProperties": False,
        },
        "gibbs": {
            "type": "object",
            "properties": {"n_iter": {"type": "integer", "minimum": 2},
                           "burn_in": {"type": "integer", "minimum": 0},
                           "thin": {"type": "integer", "minimum": 1}},
            "additionalProperties": False,
        },
        "fit_method": {"enum": ["fixed", "adaptive", "two-step", "gibbs"]},
        "seed": {"type": "integer"},
        "out_dir": {"type": "string"},
        "threads": {"type": "integer", "minimum": 1},
    },
    "required": ["mode", "memory_A", "dims_K"],
    "additionalProperties": False,
}

_DEFAULTS = {
    "link": {"kind": "sigmoid", "theta": 20.0, "alpha": 0.1, "eta": 10.0,
             "theta_base": 0.001},
    "prior": {"mu": 0.0, "sigma": 5.0},
    "vi": {"max_iter": 100, "tol": 1e-3, "n_quad": None},
    "adaptive": {"D_max": 3, "threshold": "auto"},
    "gibbs": {"n_iter": 3000, "burn_in": 500, "thin": 1},
    "seed": 0,
    "out_dir": ".",
}


def load_config(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema violation: {exc.message}") from exc
    cfg = {}
    for key, val in _DEFAULTS.items():
        if isinstance(val, dict):
            cfg[key] = {**val, **raw.get(key, {})}
        else:
            cfg[key] = raw.get(key, val)
    for key in raw:
        if key not in cfg:
            cfg[key] = raw[key]
    return cfg


def _link_from(cfg):
    return LinkFunction(**cfg["link"])


def _truth_from(cfg):
    t = cfg.get("truth")
    if t is None:
        raise ConfigError("this mode requires a 'truth' section")
    k = cfg["dims_K"]
    if len(t["nu"]) != k:
        raise ConfigError("truth.nu length must equal dims_K")
    basis = HistogramBasis(cfg["memory_A"], t["bins_J"])
    weights = []
    for l in range(k):
        row = []
        for kk in range(k):
            w = t["weights"][l][kk]
            row.append(None if w is None else np.asarray(w, dtype=np.float64))
        weights.append(row)
    return HawkesParams.build(t["nu"], weights, basis)


def write_events_csv(path, events):
    with open(path, "w") as fh:
        fh.write("dim,time\n")
        rows = [(t, k) for k in range(events.dims_K) for t in events.times[k]]
        rows.sort()
        for t, k in rows:
            fh.write(f"{k},{t:.6f}\n")


def read_events_csv(path, dims_K, horizon_T):
    """Ingest an event file, re-checking tie-freeness at 1e-6 resolution."""
    times = [[] for _ in range(dims_K)]
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "dim,time":
            raise DataError(f"bad events header {header!r}; expected 'dim,time'")
        for ln, line in enumerate(fh, start=2):
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
            times[d].append(t)
    seen = {}
    for d in range(dims_K):
        for i, t in enumerate(times[d]):
            while t in seen:
                warnings.warn(f"tie at t={t:.6f} after rounding; jittering by 1e-9")
                t += 1e-9
            seen[t] = True
            times[d][i] = t
    arrays = tuple(np.sort(np.asarray(ts, dtype=np.float64)) for ts in times)
    return EventData(dims_K=dims_K, horizon_T=horizon_T, times=arrays)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not serialisable: {type(obj)}")


def _dump_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def cmd_simulate(cfg):
    link = _link_from(cfg)
    truth = _truth_from(cfg)
    if "horizon_T" not in cfg:
        raise ConfigError("simulate requires horizon_T")
    sim = SimConfig(params=truth, link=link, horizon_T=cfg["horizon_T"],
                    burn_in=cfg.get("burn_in"), seed=cfg["seed"])
    raw = simulate(sim)
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
        if "horizon_T" not in cfg:
            raise ConfigError("fitting a file requires horizon_T")
        return read_events_csv(cfg["events_csv"], cfg["dims_K"], cfg["horizon_T"])
    # no file: simulate from the truth section with the run seed
    link = _link_from(cfg)
    truth = _truth_from(cfg)
    sim = SimConfig(params=truth, link=link, horizon_T=cfg["horizon_T"],
                    burn_in=cfg.get("burn_in"), seed=cfg["seed"])
    return simulate(sim)


def _prior_factory(cfg):
    mu = cfg["prior"]["mu"]
    sigma = cfg["prior"]["sigma"]

    def factory(k, sources, j_bins):
        dim = 1 + len(sources) * j_bins
        return GaussianPrior.isotropic(dim, sigma=sigma, mean=mu)

    return factory


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


def _write_plot_csvs(out_dir, result, memory_A, n_grid=101):
    k_dims = len(result.per_dim)
    grid = np.linspace(0.0, memory_A, n_grid)
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
            path = os.path.join(out_dir, f"h_{l}_{k}.csv")
            with open(path, "w") as fh:
                fh.write("x,mean,lo,hi\n")
                for x, m, a, b in zip(grid, mean_h, lo, hi):
                    fh.write(f"{x:.6f},{float(m)!r},{float(a)!r},{float(b)!r}\n")


def cmd_fit(cfg):
    events = _load_events(cfg)
    link = _link_from(cfg)
    if link.kind != "sigmoid":
        raise ConfigError("fitting requires the sigmoid link")
    memory_A = cfg["memory_A"]
    k_dims = cfg["dims_K"]
    method = cfg.get("fit_method", "fixed")
    factory = _prior_factory(cfg)
    vic = VIConfig(max_iter=cfg["vi"]["max_iter"], tol=cfg["vi"]["tol"],
                   n_quad=cfg["vi"]["n_quad"], threads=cfg.get("threads"))
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    t_start = time.perf_counter()

    payload = {"method": method, "seed": cfg["seed"], "dims_K": k_dims,
               "memory_A": memory_A}
    if method in ("fixed", "adaptive", "two-step"):
        if method == "fixed":
            if "basis" not in cfg:
                raise ConfigError("fixed fit requires basis.D")
            subs = [adaptive.SubModel(column=(1,) * k_dims,
                                      depth=cfg["basis"]["D"])]
            result = adaptive.fully_adaptive(events, subs, link, factory, vic,
                                             memory_A=memory_A)
        elif method == "adaptive":
            subs = adaptive.enumerate_submodels(k_dims, cfg["adaptive"]["D_max"])
            result = adaptive.fully_adaptive(events, subs, link, factory, vic,
                                             memory_A=memory_A)
        else:
            thr = cfg["adaptive"]["threshold"]
            two = adaptive.two_step(events, link, cfg["adaptive"]["D_max"],
                                    factory, vic, memory_A=memory_A,
                                    threshold="auto" if thr == "auto" else thr)
            result = two.step2
            payload["s_hat"] = two.graph.s_hat.tolist()
            payload["threshold"] = two.graph.threshold
        payload["delta_hat"] = result.selected_model().graph_delta.tolist()
        payload["bins_J"] = list(result.selected_model().bins_J)
        payload["dimensions"] = _posterior_payload(result)
        _write_plot_csvs(out_dir, result, memory_A)
    elif method == "gibbs":
        if "basis" not in cfg:
            raise ConfigError("gibbs fit requires basis.D")
        j = 2 ** cfg["basis"]["D"]
        model = adaptive.Model(graph_delta=np.ones((k_dims, k_dims), dtype=np.int8),
                               bins_J=(j,) * k_dims, memory_A=memory_A)
        gc = GibbsConfig(n_iter=cfg["gibbs"]["n_iter"],
                         burn_in=cfg["gibbs"]["burn_in"],
                         thin=cfg["gibbs"]["thin"], seed=cfg["seed"])
        chain = gibbs_sample(events, gc, link, model,
                             [factory(k, list(range(k_dims)), j)
                              for k in range(k_dims)])
        payload["delta_hat"] = model.graph_delta.tolist()
        payload["bins_J"] = list(model.bins_J)
        payload["dimensions"] = [{
            "mean": chain.mean(k).tolist(),
            "sd": chain.sd(k).tolist(),
            "n_kept": int(chain.samples[k].shape[0]),
        } for k in range(k_dims)]
    wall = time.perf_counter() - t_start
    _dump_json(os.path.join(out_dir, "result.json"), payload)
    _dump_json(os.path.join(out_dir, "timing.json"), {"wall_clock_s": wall})
    return EXIT_OK


def cmd_eval(cfg):
    path = cfg.get("result_json")
    if path is None:
        raise ConfigError("eval requires result_json")
    try:
        with open(path) as fh:
            result = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed result file: {exc}") from exc
    truth = _truth_from(cfg)
    k_dims = cfg["dims_K"]
    try:
        delta_hat = np.asarray(result["delta_hat"], dtype=np.int8)
        bins = result["bins_J"]
        dims = result["dimensions"]
        posts, subs = [], []
        for k in range(k_dims):
            dd = dims[k]
            mean = np.asarray(dd["mean"])
            if "cov_row_major" in dd:
                cov = np.asarray(dd["cov_row_major"]).reshape(mean.size, mean.size)
            else:  # gibbs summaries carry marginal sds only
                cov = np.diag(np.asarray(dd["sd"]) ** 2)
            column = tuple(dd.get("column", delta_hat[:, k].tolist()))
            depth = int(math.log2(dd.get("bins_J", bins[k])))
            sm = adaptive.SubModel(column=column, depth=depth)
            if mean.size != sm.param_dim:
                raise DataError("posterior size inconsistent with its model")
            posts.append(_CovView(mean, cov))
            subs.append(sm)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise DataError(f"result file missing fields: {exc}") from exc
    risk, per_edge = metrics.l1_risk(posts, subs, truth,
                                     memory_A=cfg["memory_A"])
    acc_g = metrics.graph_accuracy(delta_hat, truth.graph())
    acc_d = metrics.dim_accuracy([sm.num_bins for sm in subs],
                                 [truth.basis[k].num_bins_J for k in range(k_dims)])
    out_dir = cfg["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    _dump_json(os.path.join(out_dir, "metrics.json"), {
        "risk_l1": risk,
        "acc_graph": acc_g,
        "acc_dim": acc_d,
        "per_edge_l1": per_edge.tolist(),
    })
    return EXIT_OK


class _CovView:
    """Minimal (mean, cov) carrier for metrics input."""

    def __init__(self, mean, cov):
        self.mean = mean
        self.cov = cov


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
        cfg = load_config(args.config)
        if cfg["mode"] != args.command:
            raise ConfigError(
                f"config mode {cfg['mode']!r} does not match command {args.command!r}")
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["out_dir"] = args.out
        threads = args.threads
        if threads is None and os.environ.get("HAWKES_VB_THREADS"):
            try:
                threads = int(os.environ["HAWKES_VB_THREADS"])
            except ValueError as exc:
                raise ConfigError("HAWKES_VB_THREADS must be an integer") from exc
        if threads is not None:
            cfg["threads"] = threads
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
