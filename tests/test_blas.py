"""BLAS thread limiter: counts restored, nesting, no-op without setters, and
held for the whole of the ``fit`` and ``eval`` commands."""

import importlib.util
import json
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import _fixtures as fx
from hawkes_vb import SimConfig, _blas, cli, gibbs, metrics, simulate, vi
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



def _thread_ticks():
    """{thread id: user + system clock ticks} of this process's threads."""
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread ended meanwhile
            continue
        ticks[int(tid)] = int(fields[11]) + int(fields[12])
    return ticks


def _idle_thread_ticks(caller):
    """``_thread_ticks()`` once no thread but ``caller`` gained a tick in 50 ms
    (at most 5 s): a BLAS worker that an earlier call woke has gone back to
    sleep, so its spin is not charged to what comes next."""
    ticks = _thread_ticks()
    for _ in range(100):
        time.sleep(0.05)
        now = _thread_ticks()
        if all(now[tid] == n for tid, n in ticks.items() if tid != caller and tid in now):
            return now
        ticks = now
    return ticks


@pytest.mark.skipif(not _blas.pinned(), reason="the BLAS thread setters were not found")
def test_fit_and_eval_hold_blas_at_one_thread_from_their_first_call(monkeypatch, tmp_path,
                                                                    two_threads):
    # K=10 at D_max=2: the complete prior has d=41, whose inverse is wide
    # enough to wake an OpenBLAS worker, which then spins on its core
    truth = fx.sparse_truth(10)
    cli.write_events_csv(tmp_path / "events.csv", simulate(SimConfig(
        params=truth, link=LINK, horizon_T=5.0, seed=1)))
    link = {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0}
    common = {"link": link, "memory_A": fx.MEMORY_A, "dims_K": 10}
    fit_cfg = tmp_path / "fit.json"
    fit_cfg.write_text(json.dumps({
        **common, "mode": "fit", "fit_method": "two-step", "horizon_T": 5.0,
        "events_csv": str(tmp_path / "events.csv"), "threads": 2,
        "adaptive": {"D_max": 2, "threshold": "auto"}, "out_dir": str(tmp_path / "fit")}))
    eval_cfg = tmp_path / "eval.json"
    eval_cfg.write_text(json.dumps({
        **common, "mode": "eval", "result_json": str(tmp_path / "fit" / "result.json"),
        "truth": {"nu": truth.nu.tolist(), "bins_J": 2,
                  "weights": [[None if w is None else w.tolist() for w in row]
                              for row in truth.weights]},
        "out_dir": str(tmp_path / "eval")}))
    seen = {"prior": [], "evaluate": []}
    post_init, evaluate = GaussianPrior.__post_init__, metrics.evaluate

    def prior_recording(self):
        seen["prior"].append((self.mean.size, _counts()))
        post_init(self)

    def evaluate_recording(*args, **kwargs):
        seen["evaluate"].append(_counts())
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(GaussianPrior, "__post_init__", prior_recording)
    monkeypatch.setattr(metrics, "evaluate", evaluate_recording)
    caller = threading.get_native_id()
    before = _idle_thread_ticks(caller) if os.path.isdir("/proc/self/task") else None
    assert cli.main(["fit", "--config", str(fit_cfg)]) == 0
    assert cli.main(["eval", "--config", str(eval_cfg)]) == 0
    after = _thread_ticks() if before is not None else None
    one = [1] * len(_blas._controls())
    assert 41 in [d for d, _ in seen["prior"]]
    assert [counts for _, counts in seen["prior"]] == [one] * len(seen["prior"])
    assert seen["evaluate"] == [one]
    assert _counts() == [2] * len(_blas._controls())
    if before is not None:
        # a worker that was woken spin-waits about 13 ticks before it sleeps
        gained = {tid: after[tid] - n for tid, n in before.items()
                  if tid != caller and tid in after}
        assert max(gained.values(), default=0) <= 2, gained


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="no /proc to read mappings from")
def test_simulate_opens_no_scipy_shared_library(tmp_path):
    # a fresh interpreter, in which nothing has loaded SciPy yet; the mapped
    # files, and not only the imported modules, are checked
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({
        "mode": "simulate", "link": {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2,
                                     "eta": 10.0},
        "memory_A": fx.MEMORY_A, "dims_K": 1, "horizon_T": 5.0, "seed": 1,
        "truth": {"nu": [7.5], "weights": [[[0.12, 0.09, 0.06, 0.045]]], "bins_J": 4},
        "out_dir": str(tmp_path / "sim")}))
    probe = ("import sys; from hawkes_vb import cli; "
             "code = cli.main(['simulate', '--config', sys.argv[1]]); "
             "print(code); print(open('/proc/self/maps').read())")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe, str(cfg)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, *maps = done.stdout.splitlines()
    assert code == "0" and (tmp_path / "sim" / "events.csv").exists()
    site = os.path.dirname(os.path.dirname(importlib.util.find_spec("scipy").origin))
    scipy_dirs = tuple(os.path.join(site, name) + os.sep for name in ("scipy", "scipy.libs"))
    mapped = {line.split(maxsplit=5)[5] for line in maps if len(line.split(maxsplit=5)) == 6}
    assert any("numpy" in path for path in mapped)  # the mappings were read
    assert not [path for path in mapped
                if path.startswith(scipy_dirs) or "libscipy_openblas-" in path]
