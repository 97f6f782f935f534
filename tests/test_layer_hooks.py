"""The module attributes the benchmark's traced run wraps are still called.

``perfbench/layers.py`` times layers by replacing module attributes that
callers look up at call time.  If a refactor inlines or renames one of those
calls, the wrapper is never entered and its metric silently reads 0; these
tests catch that from the ordinary suite.
"""

import _fixtures as fx
from hawkes_vb import SimConfig, simulate
from hawkes_vb import adaptive, vi
from hawkes_vb.vi import GaussianPrior, VIConfig

LINK = fx.SIM_LINK


def _prior_factory(k, sources, j_bins):
    return GaussianPrior.isotropic(1 + len(sources) * j_bins, 5.0)


def _counting(monkeypatch, module, attr, calls):
    inner = getattr(module, attr)

    def wrapper(*args, **kwargs):
        calls.append(kwargs)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, attr, wrapper)


def test_two_step_calls_every_traced_attribute(monkeypatch):
    ev = simulate(SimConfig(params=fx.sparse_truth(2), link=LINK,
                            horizon_T=30.0, seed=2))
    calls = {name: [] for name in ("feature_matrix", "pg_mean", "fully_adaptive")}
    _counting(monkeypatch, vi, "feature_matrix", calls["feature_matrix"])
    _counting(monkeypatch, vi, "pg_mean", calls["pg_mean"])
    _counting(monkeypatch, adaptive, "fully_adaptive", calls["fully_adaptive"])

    adaptive.two_step(ev, LINK, 1, _prior_factory, VIConfig(tol=1e-3),
                      memory_A=fx.MEMORY_A)

    assert calls["feature_matrix"]
    assert calls["pg_mean"]
    assert len(calls["fully_adaptive"]) == 2
    for kwargs in calls["fully_adaptive"]:
        assert kwargs.get("quad") is not None
