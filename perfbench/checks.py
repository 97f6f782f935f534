"""Checks on the files the ``hawkes-vb`` commands write.

Each check returns a list of problems; an empty list means the output is
correct.  They read only the files, so a test can corrupt a file and see the
check reject it.
"""

import json

import numpy as np


def _load_json(path, problems):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"{path}: unreadable ({exc})")
        return None


def check_graph(result_path, metrics_path, truth_delta, risk_max):
    """Two-step fit: the exact graph, every resolution right, bounded risk."""
    problems = []
    result = _load_json(result_path, problems)
    metrics = _load_json(metrics_path, problems)
    if result is None or metrics is None:
        return problems
    delta = np.asarray(result.get("delta_hat", []))
    if delta.shape != truth_delta.shape or not np.array_equal(delta, truth_delta):
        problems.append("result.json delta_hat differs from the true graph")
    if metrics.get("acc_graph") != 1.0:
        problems.append(f"acc_graph {metrics.get('acc_graph')} != 1.0")
    if metrics.get("acc_dim") != 1.0:
        problems.append(f"acc_dim {metrics.get('acc_dim')} != 1.0")
    risk = metrics.get("risk_l1")
    if not isinstance(risk, (int, float)) or not 0.0 <= risk <= risk_max:
        problems.append(f"risk_l1 {risk} outside [0, {risk_max}]")
    return problems


def check_gibbs(result_path, vi_mean, n_kept, tol_sd):
    """Gibbs chain: the kept-draw count, and means near the VI means.

    Every coordinate of the chain mean must lie within ``tol_sd`` chain
    standard deviations of the variational mean of the same data.
    """
    problems = []
    result = _load_json(result_path, problems)
    if result is None:
        return problems
    try:
        dim = result["dimensions"][0]
        mean = np.asarray(dim["mean"], dtype=np.float64)
        sd = np.asarray(dim["sd"], dtype=np.float64)
        kept = dim["n_kept"]
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"result.json lacks chain summaries ({exc})"]
    if kept != n_kept:
        problems.append(f"n_kept {kept} != {n_kept}")
    if mean.shape != np.shape(vi_mean) or sd.shape != mean.shape:
        return problems + [f"chain summary shape {mean.shape} != {np.shape(vi_mean)}"]
    if not np.all(np.isfinite(sd)) or np.any(sd <= 0.0):
        return problems + ["chain sd not positive and finite"]
    dev = np.abs(mean - vi_mean) / sd
    if not np.all(dev <= tol_sd):
        problems.append(f"chain mean {float(np.max(dev)):.2f} sd from the VI mean "
                        f"(tolerance {tol_sd})")
    return problems


def check_simulation(csv_path, stats_path, events_band):
    """Simulation: sorted CSV, rows consistent with stats.json, count in band."""
    problems = []
    stats = _load_json(stats_path, problems)
    if stats is None:
        return problems
    try:
        with open(csv_path) as fh:
            header = fh.readline().strip()
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"{csv_path}: unreadable ({exc})"]
    if header != "dim,time":
        problems.append(f"events.csv header {header!r}")
    if rows.size == 0:
        return problems + ["events.csv has no rows"]
    dims = rows[:, 0].astype(int)
    times = rows[:, 1]
    if np.any(np.diff(times) < 0.0):
        problems.append("events.csv rows are not sorted by time")
    per_dim = stats.get("num_events", [])
    if np.any(dims < 0) or np.any(dims >= len(per_dim)):
        return problems + ["events.csv dimension outside stats.json num_events"]
    counts = np.bincount(dims[times >= 0.0], minlength=len(per_dim))
    if counts.tolist() != per_dim:
        problems.append("events.csv per-dimension counts differ from stats.json")
    total = stats.get("num_events_total")
    if total != sum(per_dim):
        problems.append("stats.json num_events_total is not the sum of num_events")
    lo, hi = events_band
    if not isinstance(total, int) or not lo <= total <= hi:
        problems.append(f"{total} events outside the band [{lo}, {hi}]")
    return problems
