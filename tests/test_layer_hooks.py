"""The module attributes the benchmark's traced run wraps are still called.

``perfbench/layers.py`` times layers by replacing module attributes that
callers look up at call time.  If a refactor inlines or renames one of those
calls, the wrapper is never entered and its metric silently reads 0; these
tests catch that from the ordinary suite.
"""

import dataclasses
import json

import numpy as np

import _fixtures as fx
from hawkes_vb import SimConfig, simulate
from hawkes_vb import adaptive, cli, gibbs, metrics, vi
from hawkes_vb.vi import GaussianPrior, QuadratureGrid, VIConfig

LINK = fx.SIM_LINK

# every (module, attribute) pair perfbench/layers.py wraps
TRACED = (
    (cli, ("load_config", "read_events_csv", "write_events_csv", "simulate",
           "excursion_stats", "gibbs_sample")),
    (adaptive, ("fully_adaptive", "norm_matrix", "detect_gap_threshold")),
    (vi, ("feature_matrix", "pg_mean")),
    (gibbs, ("pg_sample_arr", "feature_matrix", "conjugate_update")),
    (metrics, ("l1_risk",)),
)


def _counting(monkeypatch, module, attr, calls):
    inner = getattr(module, attr)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)


def test_two_step_calls_every_traced_attribute(monkeypatch):
    ev = simulate(SimConfig(params=fx.sparse_truth(2), link=LINK,
                            horizon_T=30.0, seed=2))
    calls = {name: [] for name in ("feature_matrix", "pg_mean", "fully_adaptive")}
    _counting(monkeypatch, vi, "feature_matrix", calls["feature_matrix"])
    _counting(monkeypatch, vi, "pg_mean", calls["pg_mean"])
    _counting(monkeypatch, adaptive, "fully_adaptive", calls["fully_adaptive"])

    adaptive.two_step(ev, LINK, 1, GaussianPrior.isotropic, VIConfig(tol=1e-3),
                      memory_A=fx.MEMORY_A, quad=QuadratureGrid.build(30.0, 1500))

    # each step counts one table per column in its set-up, at its receivers'
    # events and then its segments: the complete column, then the two
    # estimated ones (each has fewer segments at depth 0 than the 1,500
    # nodes, 5 per memory length, so it is counted at its finest depth only,
    # and no node table is counted)
    counted = [(tuple(sources), basis.num_bins_J)
               for (_, basis, sources, _), _ in calls["feature_matrix"]]
    assert counted == [((0, 1), 2), ((0,), 2), ((0, 1), 2)]
    assert calls["pg_mean"]
    assert len(calls["fully_adaptive"]) == 2
    for _, kwargs in calls["fully_adaptive"]:
        assert kwargs.get("quad") is not None


def test_cli_pipeline_calls_every_traced_attribute(monkeypatch, tmp_path):
    calls = {}
    for module, attrs in TRACED:
        for attr in attrs:
            calls[f"{module.__name__}.{attr}"] = []
            _counting(monkeypatch, module, attr, calls[f"{module.__name__}.{attr}"])

    truth = fx.sparse_truth(2)
    base = {"memory_A": fx.MEMORY_A, "dims_K": 2, "horizon_T": 10.0, "seed": 1,
            "link": dataclasses.asdict(LINK)}
    events = str(tmp_path / "sim" / "events.csv")
    configs = {
        "simulate": {"mode": "simulate", "out_dir": str(tmp_path / "sim"),
                     "truth": {"nu": truth.nu.tolist(), "bins_J": 2, "weights": [
                         [None if w is None else w.tolist() for w in row]
                         for row in truth.weights]}},
        "gibbs": {"mode": "fit", "fit_method": "gibbs", "events_csv": events,
                  "basis": {"D": 1}, "gibbs": {"n_iter": 3, "burn_in": 1},
                  "out_dir": str(tmp_path / "gibbs")},
        "two-step": {"mode": "fit", "fit_method": "two-step", "events_csv": events,
                     "adaptive": {"D_max": 1, "threshold": "auto"}, "vi": {"tol": 1e-3},
                     "out_dir": str(tmp_path / "fit")},
    }
    configs["eval"] = {"mode": "eval", "truth": configs["simulate"]["truth"],
                       "result_json": str(tmp_path / "fit" / "result.json"),
                       "out_dir": str(tmp_path / "eval")}
    for name, cfg in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({**base, **cfg}))
        assert cli.main([cfg["mode"], "--config", str(path)]) == 0, name

    assert [name for name, seen in calls.items() if not seen] == []
    for args, _ in calls["hawkes_vb.gibbs.conjugate_update"]:
        marks, is_event = args[1], args[2]
        assert is_event.dtype == bool and is_event.shape == marks.shape
    for _, kwargs in calls["hawkes_vb.adaptive.fully_adaptive"]:
        assert kwargs.get("quad") is not None
