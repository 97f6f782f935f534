"""Tests of the benchmark itself: checks, tracing, metric set and refusal.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np

from perfbench import run

sys.path[:0] = [run.SRC, os.path.join(run.ROOT, "tests")]

from hawkes_vb import cli  # noqa: E402

from perfbench import checks, layers, workloads  # noqa: E402
from perfbench.spans import Tracer, covered_seconds, self_seconds  # noqa: E402


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _same_params(a, b):
    assert a.dims_K == b.dims_K
    np.testing.assert_array_equal(a.nu, b.nu)
    assert [bs.num_bins_J for bs in a.basis] == [bs.num_bins_J for bs in b.basis]
    for l in range(a.dims_K):
        for k in range(a.dims_K):
            wa, wb = a.weights[l][k], b.weights[l][k]
            assert (wa is None) == (wb is None)
            if wa is not None:
                np.testing.assert_array_equal(wa, wb)


def test_truths_are_the_test_fixtures():
    import _fixtures as fx

    _same_params(workloads.params_from_section(workloads.sparse_truth_section(10)),
                 fx.sparse_truth(10))
    _same_params(workloads.params_from_section(workloads.excitation_truth_section()),
                 fx.excitation_1d())
    assert workloads.LINK == {"kind": fx.SIM_LINK.kind, "theta": fx.SIM_LINK.theta,
                              "alpha": fx.SIM_LINK.alpha, "eta": fx.SIM_LINK.eta}
    assert workloads.MEMORY_A == fx.MEMORY_A


def _result_from_truth(path, section):
    """A result.json whose posterior means are the truth, with zero spread."""
    delta = workloads.truth_graph(section)
    k_dims = delta.shape[0]
    dims = []
    for k in range(k_dims):
        mean = [section["nu"][k]]
        for l in range(k_dims):
            if delta[l, k]:
                mean.extend(section["weights"][l][k])
        dims.append({"column": delta[:, k].tolist(), "bins_J": section["bins_J"],
                     "mean": mean, "cov_row_major": [0.0] * len(mean) ** 2})
    return _write(path, {"delta_hat": delta.tolist(),
                         "bins_J": [section["bins_J"]] * k_dims, "dimensions": dims})


def _eval(tmp_path, section, result_path):
    cfg = _write(tmp_path / "eval.json", {
        "mode": "eval", "memory_A": workloads.MEMORY_A, "dims_K": len(section["nu"]),
        "truth": section, "result_json": result_path, "out_dir": str(tmp_path / "m")})
    assert cli.main(["eval", "--config", cfg]) == 0
    return str(tmp_path / "m" / "metrics.json")


def test_graph_check_rejects_a_flipped_delta_entry(tmp_path):
    section = workloads.sparse_truth_section(3)
    truth = workloads.truth_graph(section)
    result_path = _result_from_truth(tmp_path / "result.json", section)
    metrics_path = _eval(tmp_path, section, result_path)
    assert checks.check_graph(result_path, metrics_path, truth, 6.0) == []

    result = json.loads((tmp_path / "result.json").read_text())
    result["delta_hat"][0][2] = 1 - result["delta_hat"][0][2]
    _write(tmp_path / "result.json", result)
    assert checks.check_graph(result_path, metrics_path, truth, 6.0)
    metrics_path = _eval(tmp_path, section, result_path)
    problems = checks.check_graph(result_path, metrics_path, truth, 6.0)
    assert any("acc_graph" in p for p in problems)


def test_graph_check_rejects_a_large_risk(tmp_path):
    section = workloads.sparse_truth_section(2)
    result_path = _result_from_truth(tmp_path / "result.json", section)
    metrics_path = tmp_path / "metrics.json"
    _write(metrics_path, {"risk_l1": 9.5, "acc_graph": 1.0, "acc_dim": 1.0})
    problems = checks.check_graph(result_path, str(metrics_path),
                                  workloads.truth_graph(section), 6.0)
    assert problems == ["risk_l1 9.5 outside [0, 6.0]"]


def _simulate(tmp_path, horizon_T):
    cfg = _write(tmp_path / "sim.json", {
        "mode": "simulate", "link": workloads.LINK, "memory_A": workloads.MEMORY_A,
        "dims_K": 2, "horizon_T": horizon_T,
        "truth": workloads.sparse_truth_section(2), "seed": 5,
        "out_dir": str(tmp_path / "sim")})
    assert cli.main(["simulate", "--config", cfg]) == 0
    return str(tmp_path / "sim" / "events.csv"), str(tmp_path / "sim" / "stats.json")


def test_simulation_check_rejects_a_truncated_csv(tmp_path):
    csv_path, stats_path = _simulate(tmp_path, 40.0)
    total = json.loads(open(stats_path).read())["num_events_total"]
    band = (total - 1, total + 1)
    assert checks.check_simulation(csv_path, stats_path, band) == []

    lines = open(csv_path).read().splitlines(keepends=True)
    with open(csv_path, "w") as fh:
        fh.writelines(lines[:-25])
    problems = checks.check_simulation(csv_path, stats_path, band)
    assert any("counts differ" in p for p in problems)


def test_simulation_check_rejects_unsorted_rows_and_a_count_out_of_band(tmp_path):
    csv_path, stats_path = _simulate(tmp_path, 40.0)
    total = json.loads(open(stats_path).read())["num_events_total"]
    problems = checks.check_simulation(csv_path, stats_path, (total + 1, total + 9))
    assert any("outside the band" in p for p in problems)

    lines = open(csv_path).read().splitlines(keepends=True)
    lines[5], lines[6] = lines[6], lines[5]
    with open(csv_path, "w") as fh:
        fh.writelines(lines)
    problems = checks.check_simulation(csv_path, stats_path, (total - 1, total + 1))
    assert problems == ["events.csv rows are not sorted by time"]


def test_gibbs_check_rejects_a_shifted_chain_mean(tmp_path):
    section = workloads.excitation_truth_section()
    events = tmp_path / "events.csv"
    workloads._simulate_to_csv(section, 60.0, 3, str(events))
    cfg = _write(tmp_path / "fit.json", {
        "mode": "fit", "fit_method": "gibbs", "link": workloads.LINK,
        "memory_A": workloads.MEMORY_A, "dims_K": 1, "horizon_T": 60.0,
        "events_csv": str(events), "basis": {"D": 2},
        "gibbs": {"n_iter": 12, "burn_in": 4, "thin": 1}, "seed": 1,
        "out_dir": str(tmp_path / "fit")})
    assert cli.main(["fit", "--config", cfg]) == 0
    result_path = str(tmp_path / "fit" / "result.json")
    dim = json.loads(open(result_path).read())["dimensions"][0]
    mean, sd = np.asarray(dim["mean"]), np.asarray(dim["sd"])
    assert checks.check_gibbs(result_path, mean + 0.5 * sd, 8, 3.0) == []
    assert checks.check_gibbs(result_path, mean, 9, 3.0) == ["n_kept 8 != 9"]

    shifted = mean.copy()
    shifted[1] += 5.0 * sd[1]
    problems = checks.check_gibbs(result_path, shifted, 8, 3.0)
    assert len(problems) == 1 and "sd from the VI mean" in problems[0]


def test_tracer_keeps_every_span_from_pool_threads():
    tracer = Tracer()
    mod = types.SimpleNamespace(leaf=lambda x: x * 2)

    def root(n):
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            return sum(pool.map(mod.leaf, range(n)))

    mod.root = root
    original_leaf = mod.leaf
    tracer.wrap(mod, "leaf", "leaf", lambda a, k, r: tracer.add("leaves", 1))
    tracer.wrap(mod, "root", "root")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert mod.root(400) == 2 * sum(range(400))
    finally:
        sys.setswitchinterval(interval)
        tracer.restore()
    assert mod.leaf is original_leaf and mod.root is root
    (top,) = [s for s in tracer.spans_of(0) if s.name == "root"]
    leaves = [s for s in tracer.spans_of(0) if s.name == "leaf"]
    assert len(leaves) == 400 and tracer.counters["leaves"] == 400
    assert {s.parent for s in leaves} == {top.id}
    assert len({s.id for s in tracer.spans}) == 401
    assert 0.0 <= self_seconds(top, tracer.spans) <= top.end - top.start
    assert covered_seconds(leaves) <= top.end - top.start


def test_layer_wrappers_are_restored():
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a)
              for m, a, _, _ in layers.TRACED}
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert all(getattr(importlib.import_module(m), a) is not fn
                   for (m, a), fn in before.items())
    finally:
        tracer.restore()
    assert all(getattr(importlib.import_module(m), a) is fn
               for (m, a), fn in before.items())


def test_declared_metrics_are_the_computed_ones():
    end_to_end, per_layer = run.declared_metrics()
    computed = set(layers.round_metrics(Tracer(), 0)) | {"trace.overhead_s"}
    assert {m["name"] for m in per_layer} == computed
    assert {m["name"] for m in end_to_end} == {"setup_s", "wall_s", "cpu_s",
                                               "events_per_s", "peak_rss_mb"}
    assert set(layers.EXACT_COUNTS) <= computed


def test_count_ledger_flags_a_changed_count(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    problems = []
    run.check_counts("w/seed1", {"pg.draws": 10}, problems)
    run.check_counts("w/seed1", {"pg.draws": 10}, problems)
    assert problems == []
    run.check_counts("w/seed1", {"pg.draws": 11}, problems)
    assert len(problems) == 1


def test_compare_flags_differing_thread_settings():
    from perfbench import compare

    base = {"backend": "python", "nproc": 2, "OPENBLAS_NUM_THREADS": None}
    old = [{"env": dict(base)}]
    assert compare.env_differences(old, [{"env": dict(base)}]) == []
    assert compare.env_differences(
        old, [{"env": {**base, "OPENBLAS_NUM_THREADS": "1"}}]) == ["OPENBLAS_NUM_THREADS"]
    assert compare.env_differences(
        old, [{"env": {**base, "backend": "cython"}}]) == ["backend"]


def _last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def test_traced_simulate_run_reports_every_per_layer_metric(tmp_path):
    shutil.copytree(os.path.join(run.ROOT, "src", "hawkes_vb"),
                    tmp_path / "src" / "hawkes_vb",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.c"))
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "simulate_k10",
           "--seed", "2", "--seconds", "0", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["attempted"] == 3 and result["failed"] == 0
    _, per_layer = run.declared_metrics()
    assert set(result["metrics"]) == {m["name"] for m in per_layer}
    assert result["metrics"]["simulate.events"]["value"] > 80000
    for name in ("wall_s", "cpu_s", "setup_s", "events_per_s", "peak_rss_mb"):
        assert f"  {name} " in proc.stdout


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", "graph_k10",
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_gibbs_inputs_repeat_for_a_seed(tmp_path):
    a = workloads.GibbsK1(4, str(tmp_path / "a"))
    b = workloads.GibbsK1(4, str(tmp_path / "b"))
    a.setup()
    b.setup()
    assert open(a.path("events.csv")).read() == open(b.path("events.csv")).read()
    np.testing.assert_array_equal(a.vi_mean, b.vi_mean)


def test_a_command_that_raises_counts_as_failed(monkeypatch):
    def broken(argv):
        raise ValueError("bad input")

    monkeypatch.setattr(cli, "main", broken)
    cmd = workloads.Command(["fit", "--config", "x.json"])
    assert not cmd.ok
    assert cmd.describe() == "hawkes-vb fit exited None ValueError: bad input"
