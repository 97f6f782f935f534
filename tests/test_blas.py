"""BLAS thread limiter: counts restored, nesting, no-op without setters."""

import sys
import threading

import numpy as np
import pytest

import _fixtures as fx
from hawkes_vb import SimConfig, _blas, gibbs, simulate, vi
from hawkes_vb.adaptive import Model, SubModel
from hawkes_vb.errors import ConfigError
from hawkes_vb.vi import GaussianPrior, QuadratureGrid, cavi_fixed_model

LINK = fx.SIM_LINK

needs_setters = pytest.mark.skipif(not _blas._controls(),
                                   reason="no bundled OpenBLAS thread setter found")


def _counts():
    return [get() for get, _ in _blas._controls().values()]


@pytest.fixture
def two_threads():
    """Every found BLAS at two threads for the test, then back as it was."""
    found = _blas._controls()
    before = [get() for get, _ in found.values()]
    for _, put in found.values():
        put(2)
    yield
    for (_, put), n in zip(found.values(), before):
        put(n)


@needs_setters
def test_restores_the_counts_it_found(two_threads):
    with _blas.single_threaded():
        assert _counts() == [1] * len(_blas._controls())
    assert _counts() == [2] * len(_blas._controls())


@needs_setters
def test_restores_the_counts_after_an_exception(two_threads):
    with pytest.raises(RuntimeError):
        with _blas.single_threaded():
            raise RuntimeError("inside")
    assert _counts() == [2] * len(_blas._controls())


@needs_setters
def test_nested_use_restores_only_at_the_outermost_exit(two_threads):
    with _blas.single_threaded():
        with _blas.single_threaded():
            assert _counts() == [1] * len(_blas._controls())
        assert _counts() == [1] * len(_blas._controls())
    assert _counts() == [2] * len(_blas._controls())


@needs_setters
def test_concurrent_use_holds_one_thread_until_the_last_exit(two_threads):
    held = []

    def worker():
        for _ in range(200):
            with _blas.single_threaded():
                held.append(_counts())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker) for _ in range(4)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert held == [[1] * len(_blas._controls())] * 800
    assert _counts() == [2] * len(_blas._controls())


@needs_setters
def test_no_op_without_setters(monkeypatch, two_threads):
    found = _blas._controls()
    monkeypatch.setattr(_blas, "_controls", dict)
    with _blas.single_threaded():
        assert [get() for get, _ in found.values()] == [2] * len(found)
    assert not _blas.pinned()
    assert [get() for get, _ in found.values()] == [2] * len(found)


@needs_setters
@pytest.mark.parametrize("threads", [1, 2])
def test_fits_run_on_one_blas_thread(monkeypatch, two_threads, threads):
    seen = []
    fit = vi._fit_dimension

    def recording(problem, max_iter, tol, start=None):
        seen.append(_counts())
        return fit(problem, max_iter, tol, start)

    monkeypatch.setattr(vi, "_fit_dimension", recording)
    ev = simulate(SimConfig(params=fx.sparse_truth(2), link=LINK, horizon_T=10.0,
                            seed=7))
    model = Model(graph_delta=np.ones((2, 2), dtype=np.int8), bins_J=(2, 2),
                  memory_A=fx.MEMORY_A)
    cavi_fixed_model(ev, model, LINK, [GaussianPrior.isotropic(5, 5.0)] * 2,
                     QuadratureGrid.default(10.0, fx.MEMORY_A), threads=threads)
    assert seen == [[1] * len(_blas._controls())] * 2
    assert _counts() == [2] * len(_blas._controls())


@needs_setters
def test_gibbs_sweeps_run_on_one_blas_thread(monkeypatch, two_threads):
    seen = []
    update = gibbs.conjugate_update

    def recording(*args):
        seen.append(_counts())
        return update(*args)

    monkeypatch.setattr(gibbs, "conjugate_update", recording)
    ev = simulate(SimConfig(params=fx.excitation_1d(), link=LINK, horizon_T=10.0,
                            seed=7))
    model = Model(graph_delta=np.ones((1, 1), dtype=np.int8), bins_J=(2,),
                  memory_A=fx.MEMORY_A)
    gibbs.gibbs_sample(ev, gibbs.GibbsConfig(n_iter=3, burn_in=1), LINK, model,
                       [GaussianPrior.isotropic(3, 5.0)])
    assert seen == [[1] * len(_blas._controls())] * 3
    assert _counts() == [2] * len(_blas._controls())


@pytest.mark.parametrize("threads", [0, -3])
def test_thread_count_below_one_rejected(threads):
    with pytest.raises(ConfigError):
        task = (0, SubModel(column=(1,), depth=0), GaussianPrior.isotropic(2))
        vi.fit_candidates([task], None, None, 0.1, LINK, 10, 1e-3, threads=threads)

