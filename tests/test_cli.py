"""Experiment harness: config validation, file round-trips, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import _fixtures as fx
from hawkes_vb import LinkFunction, _blas, adaptive, cli, errors
from hawkes_vb.adaptive import SubModel
from hawkes_vb.metrics import l1_risk
from hawkes_vb.vi import GaussianPrior, VIConfig


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _truth_section(params):
    k = params.dims_K
    weights = [[None if params.weights[l][kk] is None
                else list(params.weights[l][kk]) for kk in range(k)]
               for l in range(k)]
    return {"nu": list(params.nu), "weights": weights,
            "bins_J": params.basis[0].num_bins_J}


def _error_of(capsys):
    return json.loads(capsys.readouterr().err)["error"]


def _sim_config(tmp_path, params, T, seed=1, **extra):
    cfg = {
        "mode": "simulate",
        "link": {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0},
        "memory_A": fx.MEMORY_A,
        "dims_K": params.dims_K,
        "horizon_T": T,
        "truth": _truth_section(params),
        "seed": seed,
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(extra)
    return _write(tmp_path, "sim.json", cfg)


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path):
        path = _write(tmp_path, "bad.json",
                      {"mode": "simulate", "memory_A": 0.1, "dims_K": 1,
                       "unknown_key": 1})
        assert cli.main(["simulate", "--config", path]) == cli.EXIT_CONFIG

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_CONFIG

    def test_missing_file_is_io_error(self):
        assert cli.main(["simulate", "--config", "/nonexistent/x.json"]) == cli.EXIT_IO

    def test_mode_mismatch(self, tmp_path):
        path = _write(tmp_path, "c.json",
                      {"mode": "fit", "memory_A": 0.1, "dims_K": 1})
        assert cli.main(["simulate", "--config", path]) == cli.EXIT_CONFIG


    def test_zero_horizon_simulation_is_config_error(self, tmp_path, capsys):
        path = _sim_config(tmp_path, fx.excitation_1d(), 0.0)
        assert cli.main(["simulate", "--config", path]) == cli.EXIT_CONFIG
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "DomainError"

    def test_adaptive_mode_key_rejected(self, tmp_path, capsys):
        path = _write(tmp_path, "c.json",
                      {"mode": "fit", "memory_A": 0.1, "dims_K": 1,
                       "adaptive": {"mode": "average"}})
        assert cli.main(["fit", "--config", path]) == cli.EXIT_CONFIG
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ConfigError" and "schema" in error["message"]

    def test_vi_n_quad_key_rejected(self, tmp_path, capsys):
        path = _write(tmp_path, "c.json",
                      {"mode": "fit", "memory_A": 0.1, "dims_K": 1,
                       "vi": {"n_quad": 500}})
        assert cli.main(["fit", "--config", path]) == cli.EXIT_CONFIG
        error = _error_of(capsys)
        assert error["type"] == "ConfigError" and "schema" in error["message"]

    def test_non_utf8_config_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"mode": "simulate", "memory_A": 0.1, "dims_K": 1, "x": "\xff"}')
        assert cli.main(["simulate", "--config", str(path)]) == cli.EXIT_CONFIG
        assert _error_of(capsys)["type"] == "ConfigError"

    def test_short_truth_weights_is_exit_1(self, tmp_path, capsys):
        truth = _truth_section(fx.sparse_truth(2))
        truth["weights"] = truth["weights"][:1]
        path = _write(tmp_path, "c.json", {
            "mode": "simulate", "memory_A": fx.MEMORY_A, "dims_K": 2,
            "horizon_T": 5.0, "truth": truth, "out_dir": str(tmp_path / "out")})
        assert cli.main(["simulate", "--config", path]) == cli.EXIT_CONFIG
        error = _error_of(capsys)
        assert error["type"] == "ConfigError" and "weights" in error["message"]

    def test_truth_weights_of_the_wrong_length_is_exit_1(self, tmp_path, capsys):
        path = _write(tmp_path, "c.json", {
            "mode": "simulate", "memory_A": fx.MEMORY_A, "dims_K": 1,
            "horizon_T": 5.0, "out_dir": str(tmp_path / "out"),
            "truth": {"nu": [7.5], "weights": [[[0.1, 0.1, 0.1]]], "bins_J": 4}})
        assert cli.main(["simulate", "--config", path]) == cli.EXIT_CONFIG
        error = _error_of(capsys)
        assert error["code"] == cli.EXIT_CONFIG and error["type"] == "ConfigError"
        assert "length" in error["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, entry, literal", [
        ("fit", {"horizon_T": math.nan}, "NaN"),
        ("fit", {"prior": {"sigma": math.inf}}, "Infinity"),
        ("fit", {"link": {"kind": "sigmoid", "theta": math.nan}}, "NaN"),
        ("simulate", {"horizon_T": math.inf}, "Infinity"),
        ("simulate", {"horizon_T": 10**400}, "10000000"),
    ], ids=["fit_horizon_nan", "fit_prior_sigma_inf", "fit_link_theta_nan",
            "simulate_horizon_inf", "simulate_horizon_past_float_range"])
    def test_non_finite_number_is_exit_1(self, tmp_path, capsys, monkeypatch, mode,
                                         entry, literal):
        # an infinite horizon would simulate until the event cap: fail at once instead
        monkeypatch.setattr(cli, "simulate", lambda *a: pytest.fail("simulation started"))
        if mode == "fit":
            path = _write(tmp_path, "c.json", {
                "mode": "fit", "fit_method": "fixed", "memory_A": fx.MEMORY_A,
                "dims_K": 1, "horizon_T": 10.0, "basis": {"D": 1},
                "events_csv": str(tmp_path / "missing.csv"),
                "out_dir": str(tmp_path / "out"), **entry})
        else:
            path = _sim_config(tmp_path, fx.excitation_1d(), 10.0, **entry)
        assert literal in Path(path).read_text()
        assert cli.main([mode, "--config", path]) == cli.EXIT_CONFIG
        error = _error_of(capsys)
        assert error["type"] == "ConfigError" and literal in error["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, changes", [
        ("fit", {"memory_A": True}),
        ("fit", {"dims_K": None}),
        ("simulate", {"truth": {"nu": [4.0], "weights": [[None]]}}),
        ("simulate", {"truth": {"nu": [], "weights": [[None]], "bins_J": 1}}),
        ("fit", {"adaptive": {"threshold": "x"}}),
        ("fit", {"link": {"kind": "tanh"}}),
        ("simulate", {"truth": {"nu": [4.0], "weights": [["0.1"]], "bins_J": 1}}),
        ("fit", {"vi": []}),
    ], ids=["memory_A_true", "no_dims_K", "no_truth_bins_J", "empty_truth_nu",
            "threshold_string", "link_kind_tanh", "weights_entry_string", "vi_list"])
    def test_value_that_breaks_a_config_rule_is_exit_1(self, tmp_path, capsys, mode,
                                                      changes):
        config = {"mode": mode, "memory_A": 0.1, "dims_K": 1, "horizon_T": 5.0,
                  "out_dir": str(tmp_path / "out"), **changes}
        path = _write(tmp_path, "c.json",
                      {key: val for key, val in config.items() if val is not None})
        assert cli.main([mode, "--config", path]) == cli.EXIT_CONFIG
        error = _error_of(capsys)
        assert error["type"] == "ConfigError" and "schema" in error["message"]
        assert not (tmp_path / "out").exists()

    def test_every_package_error_has_a_documented_code(self):
        pending, seen = [errors.HawkesVBError], []
        while pending:
            cls = pending.pop()
            seen.append(cls)
            pending.extend(cls.__subclasses__())
        assert len(seen) == 8
        for cls in seen:
            assert cls.exit_code in (cli.EXIT_CONFIG, cli.EXIT_DATA,
                                     cli.EXIT_NUMERICAL)


class TestThreads:
    def _fit_config(self, tmp_path, T=10.0, **extra):
        path = _sim_config(tmp_path, fx.sparse_truth(2), T, seed=4)
        assert cli.main(["simulate", "--config", path]) == 0
        cfg = {
            "mode": "fit", "fit_method": "two-step",
            "link": {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0},
            "memory_A": fx.MEMORY_A, "dims_K": 2, "horizon_T": T,
            "events_csv": str(tmp_path / "out" / "events.csv"),
            "adaptive": {"D_max": 1}, "out_dir": str(tmp_path / "fit"),
        }
        cfg.update(extra)
        return _write(tmp_path, "fit.json", cfg)

    @pytest.mark.parametrize("flag", ["0", "-3"])
    def test_thread_count_below_one_is_exit_1(self, tmp_path, capsys, flag):
        path = self._fit_config(tmp_path)
        capsys.readouterr()
        argv = ["fit", "--config", path, "--threads", flag]
        assert cli.main(argv) == cli.EXIT_CONFIG
        error = _error_of(capsys)
        assert error["type"] == "ConfigError" and "threads" in error["message"]
        assert not (tmp_path / "fit" / "result.json").exists()

    @pytest.mark.parametrize("threads", [None, 1, 2])
    def test_timing_records_thread_settings(self, tmp_path, threads):
        path = self._fit_config(tmp_path)
        argv = ["fit", "--config", path] + (["--threads", str(threads)] if threads else [])
        assert cli.main(argv) == 0
        timing = json.loads((tmp_path / "fit" / "timing.json").read_text())
        assert timing["threads"] == (threads or cli.usable_cores())
        assert timing["blas_threads_pinned"] is _blas.pinned()
        assert timing["wall_clock_s"] > 0.0

    def test_timing_counts_the_cavi_work_of_both_steps(self, tmp_path):
        # two CAVI steps at most, so that some fits stop without converging
        path = self._fit_config(tmp_path, vi={"max_iter": 2})
        assert cli.main(["fit", "--config", path]) == 0
        timing = json.loads((tmp_path / "fit" / "timing.json").read_text())
        events = cli.read_events_csv(str(tmp_path / "out" / "events.csv"), 2, 10.0)
        two = adaptive.two_step(
            events, LinkFunction("sigmoid", theta=20.0, alpha=0.2, eta=10.0), 1,
            GaussianPrior.isotropic, VIConfig(max_iter=2), memory_A=fx.MEMORY_A)
        posts = [p for step in (two.step1, two.step2) for dim in step.posteriors
                 for p in dim]
        assert timing["candidates"] == len(posts) == 8
        assert timing["cavi_iterations"] == sum(p.iterations for p in posts)
        assert timing["fits_not_converged"] == sum(not p.converged for p in posts) > 0
        result = (tmp_path / "fit" / "result.json").read_text()
        assert "cavi_iterations" not in result and "fits_not_converged" not in result

    def test_result_independent_of_thread_settings(self, tmp_path):
        # T=250 gives 12,500 quadrature nodes; OpenBLAS splits dot products
        # longer than 10,000 across its threads, which changes their last bits
        path = self._fit_config(tmp_path, T=250.0)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path_entries = [src, os.environ.get("PYTHONPATH")]
        results = set()
        for blas in ("1", "2"):
            for threads in ("1", "2"):
                out = tmp_path / f"fit_{blas}_{threads}"
                env = {**os.environ, "OPENBLAS_NUM_THREADS": blas,
                       "PYTHONPATH": os.pathsep.join(filter(None, path_entries))}
                done = subprocess.run(
                    [sys.executable, "-W", "ignore", "-m", "hawkes_vb.cli", "fit",
                     "--config", path, "--threads", threads, "--out", str(out)],
                    env=env, capture_output=True, text=True, timeout=120)
                assert done.returncode == 0, done.stderr
                results.add((out / "result.json").read_bytes())
        assert len(results) == 1


class TestSimulateCommand:
    def test_writes_events_and_stats(self, tmp_path):
        path = _sim_config(tmp_path, fx.excitation_1d(), 20.0)
        assert cli.main(["simulate", "--config", path]) == 0
        out = tmp_path / "out"
        lines = (out / "events.csv").read_text().splitlines()
        assert lines[0] == "dim,time"
        assert len(lines) > 10
        stats = json.loads((out / "stats.json").read_text())
        assert stats["num_events_total"] == len(lines) - 1
        assert stats["seed"] == 1

    def test_simulate_loads_no_scipy_and_a_prior_loads_it_in_the_caller(self, tmp_path):
        # a fresh interpreter, so no other test has imported SciPy yet; the
        # verdict is which modules are loaded, not how long the import took
        path = _sim_config(tmp_path, fx.excitation_1d(), 5.0)
        # every command pays for what the import loads: no third-party package
        # besides NumPy, so the config check needs none
        probe = ("import json, sys; before = {m.split('.')[0] for m in sys.modules}; "
                 "from hawkes_vb import cli; from hawkes_vb.vi import GaussianPrior; "
                 "third_party = sorted({m.split('.')[0] for m in sys.modules} - before"
                 " - set(sys.stdlib_module_names) - {'numpy', 'hawkes_vb'}); "
                 "loaded = lambda: sorted(m for m in sys.modules "
                 "if m.startswith(('scipy.linalg', 'scipy.special'))); "
                 "code = cli.main(['simulate', '--config', sys.argv[1]]); "
                 "after_simulate = loaded(); GaussianPrior.isotropic(3); "
                 "print(json.dumps([code, third_party, after_simulate, loaded()]))")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path_entries = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_entries))}
        done = subprocess.run([sys.executable, "-c", probe, path], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        code, third_party, after_simulate, after_prior = json.loads(
            done.stdout.splitlines()[-1])
        assert code == 0 and (tmp_path / "out" / "events.csv").exists()
        assert third_party == []
        assert after_simulate == []
        assert "scipy.linalg" in after_prior

    def test_empty_simulation_header_only(self, tmp_path):
        quiet = fx.HawkesParams.build(
            [-50.0], [[None]], fx.HistogramBasis(fx.MEMORY_A, 1))
        path = _sim_config(tmp_path, quiet, 5.0)
        assert cli.main(["simulate", "--config", path]) == 0
        lines = (tmp_path / "out" / "events.csv").read_text().splitlines()
        assert lines == ["dim,time"]

    def test_round_trip_identity(self, tmp_path):
        path = _sim_config(tmp_path, fx.excitation_1d(), 20.0)
        assert cli.main(["simulate", "--config", path]) == 0
        csv_path = str(tmp_path / "out" / "events.csv")
        ev = cli.read_events_csv(csv_path, 1, 20.0)
        second = str(tmp_path / "again.csv")
        cli.write_events_csv(second, ev)
        ev2 = cli.read_events_csv(second, 1, 20.0)
        for a, b in zip(ev.times, ev2.times):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("entry, value", [("theta", 1e308), ("theta", 1e9),
                                              ("memory_A", 1e300)])
    def test_past_the_work_cap_is_exit_1_before_any_draw(self, tmp_path, capsys, entry,
                                                         value):
        # K theta (T + burn-in) expected candidates, past core.MAX_POINTS (the
        # burn-in defaults to memory_A): refused before the thinning loop
        link = {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0}
        if entry == "theta":
            path = _sim_config(tmp_path, fx.excitation_1d(), 10.0,
                               link={**link, "theta": value})
        else:
            path = _sim_config(tmp_path, fx.excitation_1d(), 10.0, memory_A=value)
        assert cli.main(["simulate", "--config", path]) == cli.EXIT_CONFIG
        error = _error_of(capsys)
        assert error["type"] == "ConfigError" and "thinning" in error["message"]
        assert not (tmp_path / "out" / "events.csv").exists()

    def test_seed_flag_overrides(self, tmp_path):
        path = _sim_config(tmp_path, fx.excitation_1d(), 10.0)
        cli.main(["simulate", "--config", path, "--seed", "5",
                  "--out", str(tmp_path / "o5")])
        cli.main(["simulate", "--config", path, "--seed", "6",
                  "--out", str(tmp_path / "o6")])
        a = (tmp_path / "o5" / "events.csv").read_text()
        b = (tmp_path / "o6" / "events.csv").read_text()
        assert a != b


class TestEventsCsv:
    def test_bad_header_is_data_error(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("time,dim\n0,1.0\n")
        with pytest.raises(cli.DataError):
            cli.read_events_csv(str(path), 1, 10.0)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("dim,time\n0,abc\n")
        with pytest.raises(cli.DataError):
            cli.read_events_csv(str(path), 1, 10.0)

    @pytest.mark.parametrize("body, message", [
        ("0,1.0\n\n  \n5\n1,2,3\n", "malformed event row 5: '5'"),
        ("0,1.0\n\n1,2.0,\n", "malformed event row 4: '1,2.0,'"),
        ("0,1.0\n\n1,inf\n7,1.5\n", "event row 4: time inf is not finite"),
        ("\n0,1.0\n2,1.5\n", "event row 4: dimension 2 out of range"),
        ("0,1.0\n99999999999999999999,1.5\n",
         "event row 3: dimension 99999999999999999999 out of range"),
    ], ids=["missing_comma", "extra_comma", "infinite_time", "dimension_too_large",
            "dimension_past_int64"])
    def test_first_bad_row_is_named_with_blank_lines_counted(self, tmp_path, body,
                                                             message):
        path = tmp_path / "e.csv"
        path.write_text("dim,time\n" + body)
        with pytest.raises(cli.DataError) as info:
            cli.read_events_csv(str(path), 2, 10.0)
        assert str(info.value) == message

    def test_bad_row_past_the_first_block_keeps_its_file_row_number(self, tmp_path):
        # the reader parses blocks of about 64 KiB: 20,000 rows span several
        rows = [f"0,{i / 1000:.6f}" for i in range(20000)]
        rows[5000] = ""
        rows[15000] = "1,nan"
        path = tmp_path / "e.csv"
        path.write_text("dim,time\n" + "\n".join(rows) + "\n")
        with pytest.raises(cli.DataError,
                           match="^event row 15002: time nan is not finite$"):
            cli.read_events_csv(str(path), 2, 30.0)

    def test_rows_with_spaces_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_bytes(b"dim,time\r\n 1 , 2.5 \r\n\r\n \t\n0,\t1.25\n1,0.1")
        ev = cli.read_events_csv(str(path), 2, 10.0)
        assert ev.times[0].tolist() == [1.25] and ev.times[1].tolist() == [0.1, 2.5]

    def test_tie_jitter_with_warning(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("dim,time\n0,1.000000\n1,1.000000\n")
        with pytest.warns(UserWarning):
            ev = cli.read_events_csv(str(path), 2, 10.0)
        assert ev.times[0][0] != ev.times[1][0]

    def test_writer_orders_rows_by_time_then_dimension(self, tmp_path):
        # dim 1 at 0.9999999 precedes dim 0 at 1.0 though both print 1.000000
        ev = cli.EventData(dims_K=3, horizon_T=5.0,
                           times=(np.array([-0.05, 1.0, 2.0]),
                                  np.array([0.9999999, 1.5]), np.array([])))
        path = tmp_path / "e.csv"
        cli.write_events_csv(str(path), ev)
        assert path.read_text() == ("dim,time\n0,-0.050000\n1,1.000000\n"
                                    "0,1.000000\n1,1.500000\n0,2.000000\n")
        empty = cli.EventData(dims_K=2, horizon_T=5.0, times=(np.array([]),) * 2)
        cli.write_events_csv(str(path), empty)
        assert path.read_text() == "dim,time\n"

    def test_tie_jitter_terminates_at_large_times(self, tmp_path):
        # 1e-9 is below half an ulp at 2e7; the read runs in a child process
        # so that a hang fails the test instead of stalling the suite
        path = tmp_path / "e.csv"
        path.write_text("dim,time\n0,20000000.000000\n1,20000000.000000\n")
        code = ("import sys, warnings; from hawkes_vb import cli; "
                "warnings.simplefilter('ignore'); "
                "ev = cli.read_events_csv(sys.argv[1], 2, 3e7); "
                "print(repr(float(ev.times[0][0])), repr(float(ev.times[1][0])))")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path_entries = [src, os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path_entries))}
        done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        a, b = (float(x) for x in done.stdout.split())
        assert a == 2e7 and b > a


    def test_tie_at_horizon_steps_backward(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("dim,time\n0,10.000000\n1,10.000000\n0,10.000000\n")
        with pytest.warns(UserWarning, match="jittering backward"):
            ev = cli.read_events_csv(str(path), 2, 10.0)
        times = np.concatenate(ev.times)
        assert np.unique(times).size == 3
        assert times.max() == 10.0 and times.min() >= 10.0 - 1e-8

    def test_tie_below_horizon_still_steps_forward(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("dim,time\n0,9.999999\n1,9.999999\n")
        with pytest.warns(UserWarning, match="jittering forward"):
            ev = cli.read_events_csv(str(path), 2, 10.0)
        assert ev.times[1][0] == 9.999999 + 1e-9


class TestFitCommand:
    def test_fixed_fit_on_empty_window_returns_prior(self, tmp_path):
        csv_path = tmp_path / "events.csv"
        csv_path.write_text("dim,time\n")
        cfg = {
            "mode": "fit", "fit_method": "fixed",
            "link": {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0},
            "memory_A": fx.MEMORY_A, "dims_K": 1, "horizon_T": 0.0,
            "events_csv": str(csv_path), "basis": {"D": 1},
            "prior": {"mu": 0.0, "sigma": 5.0},
            "out_dir": str(tmp_path / "fit"),
        }
        path = _write(tmp_path, "fit.json", cfg)
        assert cli.main(["fit", "--config", path]) == 0
        result = json.loads((tmp_path / "fit" / "result.json").read_text())
        dim = result["dimensions"][0]
        np.testing.assert_allclose(dim["mean"], np.zeros(3), atol=1e-12)
        cov = np.asarray(dim["cov_row_major"]).reshape(3, 3)
        np.testing.assert_allclose(cov, 25.0 * np.eye(3), rtol=1e-9)

    def _truth_fit_config(self, tmp_path, **extra):
        """A fixed K=1 fit of a simulated truth on [0, 10], five CAVI steps at most."""
        cfg = {
            "mode": "fit", "fit_method": "fixed",
            "link": {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0},
            "memory_A": fx.MEMORY_A, "dims_K": 1, "horizon_T": 10.0,
            "truth": _truth_section(fx.sparse_truth(1)), "basis": {"D": 1},
            "vi": {"max_iter": 5}, "out_dir": str(tmp_path / "fit")}
        cfg.update(extra)
        return _write(tmp_path, "fit.json", cfg)

    def test_non_finite_result_is_exit_4_and_not_written(self, tmp_path, capsys):
        # a prior mean of 1e300 drives the posterior and its ELBO to NaN and -inf
        path = self._truth_fit_config(tmp_path, prior={"mu": 1e300})
        assert cli.main(["fit", "--config", path]) == cli.EXIT_NUMERICAL
        assert _error_of(capsys)["type"] == "NumericalError"
        assert not (tmp_path / "fit" / "result.json").exists()
        # plots come after result.json, so the fresh directory holds none
        assert (tmp_path / "fit").is_dir() and not _plot_csvs(tmp_path / "fit")

    @pytest.mark.parametrize("section", [
        {"prior": {"sigma": 1e200}},
        {"link": {"kind": "sigmoid", "theta": 20.0, "alpha": 1e300, "eta": 10.0}}])
    def test_parameter_whose_square_overflows_is_exit_1(self, tmp_path, capsys,
                                                         section):
        path = self._truth_fit_config(tmp_path, **section)
        assert cli.main(["fit", "--config", path]) == cli.EXIT_CONFIG
        error = _error_of(capsys)  # the whole of stderr is the JSON object
        assert error["type"] == "ConfigError"
        assert not (tmp_path / "fit" / "result.json").exists()

    @pytest.mark.parametrize("sigma", [1e-155, 1e-200])
    def test_prior_sigma_too_small_for_its_precision_is_exit_1(self, tmp_path, capsys,
                                                               sigma):
        # 1e-155 squares to a subnormal whose inverse overflows; 1e-200 squares to 0
        path = self._truth_fit_config(tmp_path, prior={"mu": 0.0, "sigma": sigma})
        assert cli.main(["fit", "--config", path]) == cli.EXIT_CONFIG
        assert _error_of(capsys)["type"] == "ConfigError"
        assert not (tmp_path / "fit" / "result.json").exists()

    @pytest.mark.parametrize("method", ["fixed", "two-step", "gibbs"])
    @pytest.mark.parametrize("horizon", [1e12, 1e300])
    def test_fit_past_the_work_cap_is_exit_1(self, tmp_path, capsys, method, horizon):
        # 5 T / A quadrature nodes, or theta T Gibbs latent points per
        # sweep, past core.MAX_POINTS: refused before anything that size exists
        path = self._fit_file_config(tmp_path, ["0,0.5", "1,1.5"], horizon_T=horizon,
                                     fit_method=method, basis={"D": 1})
        assert cli.main(["fit", "--config", path]) == cli.EXIT_CONFIG
        error = _error_of(capsys)
        assert error["type"] == "ConfigError"
        assert "allowed" in error["message"]
        assert not (tmp_path / "fit" / "result.json").exists()

    def _fit_file_config(self, tmp_path, rows, **extra):
        csv_path = tmp_path / "events.csv"
        csv_path.write_text("dim,time\n" + "".join(f"{r}\n" for r in rows))
        cfg = {
            "mode": "fit", "fit_method": "two-step",
            "link": {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0},
            "memory_A": fx.MEMORY_A, "dims_K": 2, "horizon_T": 10.0,
            "events_csv": str(csv_path), "adaptive": {"D_max": 1},
            "out_dir": str(tmp_path / "fit"),
        }
        cfg.update(extra)
        return _write(tmp_path, "fit.json", cfg)

    def test_two_step_fit_of_empty_file_is_exit_3(self, tmp_path, capsys):
        # every norm estimate is equal, so the graph step finds no gap
        path = self._fit_file_config(tmp_path, [])
        assert cli.main(["fit", "--config", path]) == cli.EXIT_DATA
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"code": cli.EXIT_DATA, "type": "NoGapError",
                         "message": error["message"]}
        assert not (tmp_path / "fit" / "result.json").exists()

    @pytest.mark.parametrize("bad", ["nan", "-inf"])
    def test_fit_of_non_finite_time_is_exit_3(self, tmp_path, capsys, bad):
        path = self._fit_file_config(tmp_path, ["0,1.000000", f"1,{bad}",
                                                "0,2.000000"])
        assert cli.main(["fit", "--config", path]) == cli.EXIT_DATA
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "DataError" and "row 3" in error["message"]
        assert not (tmp_path / "fit" / "result.json").exists()

    def test_non_utf8_events_file_is_exit_3(self, tmp_path, capsys):
        path = self._fit_file_config(tmp_path, ["0,1.000000"])
        with open(tmp_path / "events.csv", "ab") as fh:
            fh.write(b"1,2.\xff\n")
        assert cli.main(["fit", "--config", path]) == cli.EXIT_DATA
        assert _error_of(capsys)["type"] == "DataError"
        assert not (tmp_path / "fit" / "result.json").exists()

    def test_fit_without_file_or_horizon_is_exit_1(self, tmp_path, capsys):
        path = _write(tmp_path, "fit.json", {
            "mode": "fit", "fit_method": "fixed", "memory_A": fx.MEMORY_A,
            "dims_K": 1, "truth": _truth_section(fx.excitation_1d()),
            "basis": {"D": 1}, "out_dir": str(tmp_path / "fit")})
        assert cli.main(["fit", "--config", path]) == cli.EXIT_CONFIG
        error = _error_of(capsys)
        assert error["type"] == "ConfigError" and "horizon_T" in error["message"]

    def test_basis_finer_than_event_times_is_exit_1(self, tmp_path, capsys):
        # rejected before the events file is read: it does not exist
        path = _write(tmp_path, "fit.json", {
            "mode": "fit", "fit_method": "fixed", "memory_A": fx.MEMORY_A,
            "dims_K": 1, "horizon_T": 10.0, "basis": {"D": 40},
            "events_csv": str(tmp_path / "missing.csv"),
            "out_dir": str(tmp_path / "fit")})
        assert cli.main(["fit", "--config", path]) == cli.EXIT_CONFIG
        error = _error_of(capsys)
        assert error["type"] == "ConfigError" and "basis.D=40" in error["message"]
        assert not (tmp_path / "fit").exists()

    def test_non_sigmoid_fit_is_exit_1_before_events_are_read(self, tmp_path, capsys):
        path = _write(tmp_path, "fit.json", {
            "mode": "fit", "fit_method": "fixed", "memory_A": fx.MEMORY_A,
            "dims_K": 1, "horizon_T": 10.0, "basis": {"D": 1},
            "link": {"kind": "relu", "theta": 1.0, "alpha": 1.0, "eta": 0.0},
            "events_csv": str(tmp_path / "missing.csv"),
            "out_dir": str(tmp_path / "fit")})
        assert cli.main(["fit", "--config", path]) == cli.EXIT_CONFIG
        error = _error_of(capsys)
        assert error["type"] == "UnsupportedLinkError" and "sigmoid" in error["message"]
        assert not (tmp_path / "fit").exists()

    def test_adaptive_fit_scores_every_candidate(self, tmp_path):
        path = _sim_config(tmp_path, fx.sparse_truth(2), 10.0)
        assert cli.main(["simulate", "--config", path]) == 0
        cfg = _write(tmp_path, "fit.json", {
            "mode": "fit", "fit_method": "adaptive",
            "link": {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0},
            "memory_A": fx.MEMORY_A, "dims_K": 2, "horizon_T": 10.0,
            "events_csv": str(tmp_path / "out" / "events.csv"),
            "adaptive": {"D_max": 1}, "vi": {"tol": 1e-3},
            "out_dir": str(tmp_path / "fit")})
        assert cli.main(["fit", "--config", cfg]) == 0
        result = json.loads((tmp_path / "fit" / "result.json").read_text())
        for dim in result["dimensions"]:
            # the empty column once, then three columns at depths 0 and 1
            assert [(c["column"], c["bins_J"]) for c in dim["candidates"]] == [
                ([0, 0], 1), ([0, 1], 1), ([0, 1], 2), ([1, 0], 1), ([1, 0], 2),
                ([1, 1], 1), ([1, 1], 2)]
            assert sum(dim["weights"]) == pytest.approx(1.0)

    def test_fit_deterministic_byte_identical(self, tmp_path):
        path = _sim_config(tmp_path, fx.excitation_1d(), 30.0)
        cli.main(["simulate", "--config", path])
        cfg = {
            "mode": "fit", "fit_method": "two-step",
            "link": {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0},
            "memory_A": fx.MEMORY_A, "dims_K": 1, "horizon_T": 30.0,
            "events_csv": str(tmp_path / "out" / "events.csv"),
            "adaptive": {"D_max": 2, "threshold": "auto"},
            "seed": 3,
        }
        p1 = _write(tmp_path, "f1.json", {**cfg, "out_dir": str(tmp_path / "r1")})
        p2 = _write(tmp_path, "f2.json", {**cfg, "out_dir": str(tmp_path / "r2")})
        assert cli.main(["fit", "--config", p1]) == 0
        assert cli.main(["fit", "--config", p2]) == 0
        a = (tmp_path / "r1" / "result.json").read_bytes()
        b = (tmp_path / "r2" / "result.json").read_bytes()
        assert a == b

    def test_fit_writes_plot_csvs(self, tmp_path):
        path = _sim_config(tmp_path, fx.excitation_1d(), 30.0)
        cli.main(["simulate", "--config", path])
        cfg = {
            "mode": "fit", "fit_method": "fixed",
            "link": {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0},
            "memory_A": fx.MEMORY_A, "dims_K": 1, "horizon_T": 30.0,
            "events_csv": str(tmp_path / "out" / "events.csv"),
            "basis": {"D": 2}, "out_dir": str(tmp_path / "fit"),
        }
        p = _write(tmp_path, "fit.json", cfg)
        assert cli.main(["fit", "--config", p]) == 0
        plot = (tmp_path / "fit" / "h_0_0.csv").read_text().splitlines()
        assert plot[0] == "x,mean,lo,hi"
        assert len(plot) == 102
        row = plot[50].split(",")
        assert float(row[2]) <= float(row[1]) <= float(row[3])

    def test_gibbs_fit_summaries(self, tmp_path):
        path = _sim_config(tmp_path, fx.excitation_1d(), 10.0)
        cli.main(["simulate", "--config", path])
        cfg = {
            "mode": "fit", "fit_method": "gibbs",
            "link": {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0},
            "memory_A": fx.MEMORY_A, "dims_K": 1, "horizon_T": 10.0,
            "events_csv": str(tmp_path / "out" / "events.csv"),
            "basis": {"D": 1}, "gibbs": {"n_iter": 40, "burn_in": 10},
            "out_dir": str(tmp_path / "g"), "seed": 2,
        }
        p = _write(tmp_path, "g.json", cfg)
        assert cli.main(["fit", "--config", p]) == 0
        result = json.loads((tmp_path / "g" / "result.json").read_text())
        assert result["dimensions"][0]["n_kept"] == 30

    def test_gibbs_burn_in_not_below_n_iter_is_exit_1(self, tmp_path, capsys):
        path = _sim_config(tmp_path, fx.excitation_1d(), 10.0)
        cli.main(["simulate", "--config", path])
        cfg = {
            "mode": "fit", "fit_method": "gibbs",
            "link": {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0},
            "memory_A": fx.MEMORY_A, "dims_K": 1, "horizon_T": 10.0,
            "events_csv": str(tmp_path / "out" / "events.csv"),
            "basis": {"D": 1}, "gibbs": {"n_iter": 10, "burn_in": 10},
            "out_dir": str(tmp_path / "g"),
        }
        capsys.readouterr()
        p = _write(tmp_path, "g.json", cfg)
        assert cli.main(["fit", "--config", p]) == cli.EXIT_CONFIG
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"code": cli.EXIT_CONFIG, "type": "ConfigError",
                         "message": error["message"]}
        assert not (tmp_path / "g" / "result.json").exists()


def _fixed_fit_config(tmp_path, depth, name="fit.json", **extra):
    """A fixed-depth K=1 fit of a simulated excitation_1d file on [0, 30]."""
    sim = _sim_config(tmp_path, fx.excitation_1d(), 30.0)
    assert cli.main(["simulate", "--config", sim, "--out", str(tmp_path / "data")]) == 0
    cfg = {
        "mode": "fit", "fit_method": "fixed",
        "link": {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0},
        "memory_A": fx.MEMORY_A, "dims_K": 1, "horizon_T": 30.0,
        "events_csv": str(tmp_path / "data" / "events.csv"),
        "basis": {"D": depth}, "out_dir": str(tmp_path / "fit"),
    }
    cfg.update(extra)
    return _write(tmp_path, name, cfg)


def _plot_csvs(out_dir):
    return {p.name for p in out_dir.glob("h_*.csv")}


class TestOutputFiles:
    def test_write_text_creates_and_cuts_a_longer_tail(self, tmp_path):
        path = tmp_path / "x.txt"
        cli._write_text(str(path), "a longer first text\n" * 50)
        inode = os.stat(path).st_ino
        cli._write_text(str(path), "short\n")
        assert path.read_bytes() == b"short\n"
        cli._write_text(str(path), "")
        assert path.read_bytes() == b""
        cli._write_text(str(path), "caf\u00e9\n")
        assert path.read_bytes() == "caf\u00e9\n".encode("utf-8")
        assert os.stat(path).st_ino == inode

    def test_shorter_simulation_overwrites_in_place(self, tmp_path):
        params = fx.excitation_1d()
        path = _sim_config(tmp_path, params, 20.0)
        assert cli.main(["simulate", "--config", path]) == 0
        events = tmp_path / "out" / "events.csv"
        inode = os.stat(events).st_ino
        longer = events.read_bytes()
        path = _sim_config(tmp_path, params, 10.0)
        assert cli.main(["simulate", "--config", path]) == 0
        assert cli.main(["simulate", "--config", path,
                         "--out", str(tmp_path / "fresh")]) == 0
        fresh = (tmp_path / "fresh" / "events.csv").read_bytes()
        assert len(fresh) < len(longer) and events.read_bytes() == fresh
        assert os.stat(events).st_ino == inode

    def test_shrinking_result_overwrites_in_place(self, tmp_path):
        assert cli.main(["fit", "--config", _fixed_fit_config(tmp_path, 2)]) == 0
        out = tmp_path / "fit"
        inodes = {name: os.stat(out / name).st_ino
                  for name in ("result.json", "h_0_0.csv")}
        larger = (out / "result.json").read_bytes()
        path = _fixed_fit_config(tmp_path, 0)
        assert cli.main(["fit", "--config", path]) == 0
        assert cli.main(["fit", "--config", path, "--out", str(tmp_path / "fresh")]) == 0
        for name in ("result.json", "h_0_0.csv"):
            fresh = (tmp_path / "fresh" / name).read_bytes()
            assert (out / name).read_bytes() == fresh
            assert os.stat(out / name).st_ino == inodes[name]
        assert len((out / "result.json").read_bytes()) < len(larger)

    def test_result_path_that_is_a_directory_is_exit_2(self, tmp_path, capsys):
        path = _fixed_fit_config(tmp_path, 1)
        (tmp_path / "fit" / "result.json").mkdir(parents=True)
        capsys.readouterr()
        assert cli.main(["fit", "--config", path]) == cli.EXIT_IO
        error = _error_of(capsys)
        assert error["code"] == cli.EXIT_IO and error["type"] == "IsADirectoryError"

    def test_refit_removes_plot_csvs_of_dropped_edges(self, tmp_path):
        sim = _sim_config(tmp_path, fx.sparse_truth(2), 20.0, seed=4)
        assert cli.main(["simulate", "--config", sim]) == 0
        cfg = {
            "mode": "fit", "fit_method": "two-step",
            "link": {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0},
            "memory_A": fx.MEMORY_A, "dims_K": 2, "horizon_T": 20.0,
            "events_csv": str(tmp_path / "out" / "events.csv"),
            "adaptive": {"D_max": 1, "threshold": -1.0},
            "out_dir": str(tmp_path / "fit"),
        }
        out = tmp_path / "fit"
        out.mkdir()
        for keep in ("h_01_0.csv", "h_0_x.csv", "notes.txt"):
            (out / keep).write_text("not a plot of this fit\n")
        assert cli.main(["fit", "--config", _write(tmp_path, "a.json", cfg)]) == 0
        complete = {"h_0_0.csv", "h_0_1.csv", "h_1_0.csv", "h_1_1.csv"}
        assert _plot_csvs(out) == complete | {"h_01_0.csv", "h_0_x.csv"}

        s_hat = json.loads((out / "result.json").read_text())["s_hat"]
        cfg["adaptive"]["threshold"] = sorted(np.ravel(s_hat))[1]
        assert cli.main(["fit", "--config", _write(tmp_path, "b.json", cfg)]) == 0
        delta = json.loads((out / "result.json").read_text())["delta_hat"]
        selected = {f"h_{l}_{k}.csv" for l in range(2) for k in range(2)
                    if delta[l][k]}
        assert 0 < len(selected) < len(complete)
        assert _plot_csvs(out) == selected | {"h_01_0.csv", "h_0_x.csv"}

        cfg.update(fit_method="gibbs", basis={"D": 1},
                   gibbs={"n_iter": 4, "burn_in": 1})
        assert cli.main(["fit", "--config", _write(tmp_path, "c.json", cfg)]) == 0
        assert _plot_csvs(out) == {"h_01_0.csv", "h_0_x.csv"}
        assert (out / "notes.txt").exists()


class TestEvalCommand:
    def _result_from_truth(self, tmp_path, truth, **extra):
        k = truth.dims_K
        j = truth.basis[0].num_bins_J
        delta = truth.graph()
        dims = []
        for kk in range(k):
            sources = [l for l in range(k) if delta[l, kk]]
            mean = [float(truth.nu[kk])]
            for l in sources:
                mean.extend(truth.weights[l][kk])
            d = len(mean)
            dims.append({"column": [int(delta[l, kk]) for l in range(k)],
                         "bins_J": j, "mean": mean,
                         "cov_row_major": [0.0] * (d * d)})
        payload = {"delta_hat": delta.tolist(), "bins_J": [j] * k,
                   "dimensions": dims, **extra}
        path = tmp_path / "result.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_result_from_truth_scores_perfectly(self, tmp_path):
        # a result without memory_A is scored at the eval config's
        truth = fx.sparse_truth(2)
        res_path = self._result_from_truth(tmp_path, truth)
        cfg = {
            "mode": "eval", "memory_A": fx.MEMORY_A, "dims_K": 2,
            "truth": _truth_section(truth), "result_json": res_path,
            "out_dir": str(tmp_path / "m"),
        }
        p = _write(tmp_path, "eval.json", cfg)
        assert cli.main(["eval", "--config", p]) == 0
        metrics = json.loads((tmp_path / "m" / "metrics.json").read_text())
        assert metrics["risk_l1"] == pytest.approx(0.0, abs=1e-12)
        assert metrics["acc_graph"] == 1.0
        assert metrics["acc_dim"] == 1.0

    @pytest.mark.parametrize("memory_A, code", [(fx.MEMORY_A, 0),
                                                (2 * fx.MEMORY_A, cli.EXIT_DATA)])
    def test_result_memory_A_must_match_the_config(self, tmp_path, capsys, memory_A,
                                                   code):
        # the kernel L1 norms do not depend on A, so only the check tells a
        # fit of another memory length from a perfect one
        truth = fx.sparse_truth(2)
        res_path = self._result_from_truth(tmp_path, truth, memory_A=memory_A)
        p = _write(tmp_path, "eval.json", {
            "mode": "eval", "memory_A": fx.MEMORY_A, "dims_K": 2,
            "truth": _truth_section(truth), "result_json": res_path,
            "out_dir": str(tmp_path / "m")})
        assert cli.main(["eval", "--config", p]) == code
        if code:
            error = _error_of(capsys)
            assert error["type"] == "DataError" and "memory" in error["message"]
            assert not (tmp_path / "m" / "metrics.json").exists()
        else:
            metrics = json.loads((tmp_path / "m" / "metrics.json").read_text())
            assert metrics["risk_l1"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("entry", ["memory_A", "mean"])
    def test_non_finite_number_in_result_is_exit_3(self, tmp_path, capsys, entry):
        truth = fx.sparse_truth(2)
        result = json.loads(Path(self._result_from_truth(tmp_path, truth)).read_text())
        if entry == "memory_A":
            result["memory_A"] = math.nan
        else:
            result["dimensions"][0]["mean"][0] = math.nan
        res_path = _write(tmp_path, "result.json", result)
        p = _write(tmp_path, "eval.json", {
            "mode": "eval", "memory_A": fx.MEMORY_A, "dims_K": 2,
            "truth": _truth_section(truth), "result_json": res_path,
            "out_dir": str(tmp_path / "m")})
        assert cli.main(["eval", "--config", p]) == cli.EXIT_DATA
        error = _error_of(capsys)
        assert error["type"] == "DataError" and "NaN" in error["message"]
        assert not (tmp_path / "m" / "metrics.json").exists()

    @pytest.mark.parametrize("bins, n_weights", [(3, 3), (0, 0), (2.5, 2)])
    def test_bins_J_not_a_power_of_two_is_exit_3(self, tmp_path, capsys, bins, n_weights):
        truth = fx.sparse_truth(1)  # J=2
        mean = [4.0] + [0.1] * n_weights
        res = _write(tmp_path, "result.json", {
            "delta_hat": [[1]], "bins_J": [bins],
            "dimensions": [{"column": [1], "bins_J": bins, "mean": mean,
                            "cov_row_major": [0.0] * len(mean) ** 2}]})
        p = _write(tmp_path, "eval.json", {
            "mode": "eval", "memory_A": fx.MEMORY_A, "dims_K": 1,
            "truth": _truth_section(truth), "result_json": res,
            "out_dir": str(tmp_path / "m")})
        assert cli.main(["eval", "--config", p]) == cli.EXIT_DATA
        error = _error_of(capsys)
        assert error["type"] == "DataError" and "power of two" in error["message"]

    @pytest.mark.parametrize("delta_hat, bins", [
        ([[300]], 2), ([[-200]], 2), ([[1e300]], 2), ([[2]], 2), ([[1.0]], 2),
        ([[True]], 2), ([[1]], True)])
    def test_delta_hat_not_0_or_1_or_a_bool_bins_J_is_exit_3(self, tmp_path, capsys,
                                                              delta_hat, bins):
        # sizes that fit the model, so only the check refuses them: an entry
        # out of the int8 range used to end in an OverflowError traceback, and
        # a bool was scored as 1
        truth = fx.sparse_truth(1)  # J=2
        mean = [4.0] + [0.1] * (1 if bins is True else 2)
        res = _write(tmp_path, "result.json", {
            "delta_hat": delta_hat, "bins_J": [bins],
            "dimensions": [{"column": [1], "mean": mean,
                            "cov_row_major": [0.0] * len(mean) ** 2}]})
        p = _write(tmp_path, "eval.json", {
            "mode": "eval", "memory_A": fx.MEMORY_A, "dims_K": 1,
            "truth": _truth_section(truth), "result_json": res,
            "out_dir": str(tmp_path / "m")})
        assert cli.main(["eval", "--config", p]) == cli.EXIT_DATA
        error = _error_of(capsys)
        assert error["type"] == "DataError"
        assert ("delta_hat" if bins == 2 else "bins_J") in error["message"]
        assert not (tmp_path / "m" / "metrics.json").exists()

    def test_column_of_the_wrong_length_is_exit_3(self, tmp_path, capsys):
        # a block for a source that does not exist must not go unscored
        truth = fx.sparse_truth(2)
        res_path = self._result_from_truth(tmp_path, truth)
        result = json.loads(Path(res_path).read_text())
        dim = result["dimensions"][0]
        dim["column"] = dim["column"] + [1]
        dim["mean"] = dim["mean"] + [9.0, 9.0]
        dim["cov_row_major"] = [0.0] * len(dim["mean"]) ** 2
        _write(tmp_path, "result.json", result)
        p = _write(tmp_path, "eval.json", {
            "mode": "eval", "memory_A": fx.MEMORY_A, "dims_K": 2,
            "truth": _truth_section(truth), "result_json": res_path,
            "out_dir": str(tmp_path / "m")})
        assert cli.main(["eval", "--config", p]) == cli.EXIT_DATA
        assert "column" in _error_of(capsys)["message"]

    @pytest.mark.parametrize("field, value", [
        ("mean", ["a", "b", "c"]),
        ("mean", [[1, 2, 3]]),
        ("cov_row_major", ["0"] * 9),
    ])
    def test_malformed_posterior_array_is_exit_3(self, tmp_path, capsys, field, value):
        truth = fx.sparse_truth(2)  # dimension 0: three parameters
        result = json.loads(Path(self._result_from_truth(tmp_path, truth)).read_text())
        assert len(result["dimensions"][0]["mean"]) == 3
        result["dimensions"][0][field] = value
        res_path = _write(tmp_path, "result.json", result)
        p = _write(tmp_path, "eval.json", {
            "mode": "eval", "memory_A": fx.MEMORY_A, "dims_K": 2,
            "truth": _truth_section(truth), "result_json": res_path,
            "out_dir": str(tmp_path / "m")})
        assert cli.main(["eval", "--config", p]) == cli.EXIT_DATA
        assert _error_of(capsys)["type"] == "DataError"
        assert not (tmp_path / "m" / "metrics.json").exists()

    def test_gibbs_result_scores_its_marginal_sds(self, tmp_path):
        # a Gibbs result.json has per-dimension sd and no column
        path = _sim_config(tmp_path, fx.excitation_1d(), 10.0)
        assert cli.main(["simulate", "--config", path]) == 0
        fit = _write(tmp_path, "g.json", {
            "mode": "fit", "fit_method": "gibbs",
            "link": {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0},
            "memory_A": fx.MEMORY_A, "dims_K": 1, "horizon_T": 10.0,
            "events_csv": str(tmp_path / "out" / "events.csv"),
            "basis": {"D": 2}, "gibbs": {"n_iter": 30, "burn_in": 10},
            "out_dir": str(tmp_path / "g"), "seed": 2})
        assert cli.main(["fit", "--config", fit]) == 0
        res_path = tmp_path / "g" / "result.json"
        dim = json.loads(res_path.read_text())["dimensions"][0]
        assert "column" not in dim and "cov_row_major" not in dim
        truth = fx.excitation_1d()
        cfg = _write(tmp_path, "eval.json", {
            "mode": "eval", "memory_A": fx.MEMORY_A, "dims_K": 1,
            "truth": _truth_section(truth), "result_json": str(res_path),
            "out_dir": str(tmp_path / "m")})
        assert cli.main(["eval", "--config", cfg]) == 0
        scores = json.loads((tmp_path / "m" / "metrics.json").read_text())
        post = SimpleNamespace(mean=np.asarray(dim["mean"]),
                               cov=np.diag(np.asarray(dim["sd"]) ** 2))
        risk, per_edge = l1_risk([post], [SubModel(column=(1,), depth=2)], truth)
        assert scores == {"risk_l1": risk, "acc_graph": 1.0, "acc_dim": 1.0,
                          "per_edge_l1": per_edge.tolist()}

    def test_malformed_result_is_exit_3(self, tmp_path):
        bad = tmp_path / "result.json"
        bad.write_text("{broken")
        cfg = {
            "mode": "eval", "memory_A": fx.MEMORY_A, "dims_K": 1,
            "truth": _truth_section(fx.excitation_1d()),
            "result_json": str(bad), "out_dir": str(tmp_path),
        }
        p = _write(tmp_path, "eval.json", cfg)
        assert cli.main(["eval", "--config", p]) == cli.EXIT_DATA

    def test_missing_fields_is_exit_3(self, tmp_path):
        bad = tmp_path / "result.json"
        bad.write_text(json.dumps({"delta_hat": [[1]]}))
        cfg = {
            "mode": "eval", "memory_A": fx.MEMORY_A, "dims_K": 1,
            "truth": _truth_section(fx.excitation_1d()),
            "result_json": str(bad), "out_dir": str(tmp_path),
        }
        p = _write(tmp_path, "eval.json", cfg)
        assert cli.main(["eval", "--config", p]) == cli.EXIT_DATA

    def test_non_utf8_result_is_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "result.json"
        bad.write_bytes(b'{"delta_hat": "\xff"}')
        cfg = {
            "mode": "eval", "memory_A": fx.MEMORY_A, "dims_K": 1,
            "truth": _truth_section(fx.excitation_1d()),
            "result_json": str(bad), "out_dir": str(tmp_path),
        }
        p = _write(tmp_path, "eval.json", cfg)
        assert cli.main(["eval", "--config", p]) == cli.EXIT_DATA
        assert _error_of(capsys)["type"] == "DataError"


class TestEndToEnd:
    def test_simulate_fit_eval_pipeline(self, tmp_path):
        truth = fx.sparse_truth(2)
        sim_path = _sim_config(tmp_path, truth, 120.0, seed=4)
        assert cli.main(["simulate", "--config", sim_path]) == 0
        fit_cfg = {
            "mode": "fit", "fit_method": "two-step",
            "link": {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0},
            "memory_A": fx.MEMORY_A, "dims_K": 2, "horizon_T": 120.0,
            "events_csv": str(tmp_path / "out" / "events.csv"),
            "adaptive": {"D_max": 2, "threshold": "auto"},
            "out_dir": str(tmp_path / "fit"),
        }
        fit_path = _write(tmp_path, "fit.json", fit_cfg)
        assert cli.main(["fit", "--config", fit_path]) == 0
        result = json.loads((tmp_path / "fit" / "result.json").read_text())
        np.testing.assert_array_equal(result["delta_hat"], truth.graph())
        eval_cfg = {
            "mode": "eval", "memory_A": fx.MEMORY_A, "dims_K": 2,
            "truth": _truth_section(truth),
            "result_json": str(tmp_path / "fit" / "result.json"),
            "out_dir": str(tmp_path / "metrics"),
        }
        eval_path = _write(tmp_path, "eval.json", eval_cfg)
        assert cli.main(["eval", "--config", eval_path]) == 0
        metrics = json.loads((tmp_path / "metrics" / "metrics.json").read_text())
        assert metrics["acc_graph"] == 1.0
        assert metrics["risk_l1"] > 0.0


# -- the CLI error contract over mutated inputs ------------------------------

_LINK = {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0}
_TRUTH_1 = {"nu": [4.0], "weights": [[[0.3, 0.1]]], "bins_J": 2}
_FIT = {"mode": "fit", "link": _LINK, "memory_A": 0.1, "dims_K": 1, "horizon_T": 20.0,
        "seed": 1, "events_csv": "events.csv", "vi": {"max_iter": 5}, "out_dir": "out"}
# small valid configs; paths are relative to the directory each example runs in
_BASES = {
    "simulate_k1": {"mode": "simulate", "link": _LINK, "memory_A": 0.1, "dims_K": 1,
                    "horizon_T": 20.0, "truth": _TRUTH_1, "seed": 1, "out_dir": "out"},
    "simulate_k2": {"mode": "simulate", "link": _LINK, "memory_A": 0.1, "dims_K": 2,
                    "horizon_T": 10.0, "burn_in": 0.5, "seed": 2, "out_dir": "out",
                    "truth": {"nu": [4.0, 4.0], "bins_J": 2,
                              "weights": [[[0.28, 0.12], [0.25, 0.1]],
                                          [None, [0.28, 0.12]]]}},
    "fit_fixed": {**_FIT, "fit_method": "fixed", "basis": {"D": 1},
                  "prior": {"mu": 0.0, "sigma": 5.0}},
    "fit_adaptive": {**_FIT, "fit_method": "adaptive", "adaptive": {"D_max": 2},
                     "vi": {"max_iter": 5, "tol": 1e-3}},
    "fit_two_step": {**_FIT, "fit_method": "two-step",
                     "adaptive": {"D_max": 1, "threshold": "auto"}},
    "fit_gibbs": {**_FIT, "fit_method": "gibbs", "basis": {"D": 2},
                  "gibbs": {"n_iter": 3, "burn_in": 1, "thin": 1}},
    "eval": {"mode": "eval", "memory_A": 0.1, "dims_K": 1, "truth": _TRUTH_1,
             "result_json": "result.json", "out_dir": "out"},
}
_EXTREMES = (0, -1, 5e-324, -5e-324, 1e-308, -1e-308, 1e154, -1e154, 1e300, -1e300,
             1.7e308, 10**6, "x", [1.0], None)


def _leaves(node, path=()):
    """Path of every number, string or null inside a config."""
    if isinstance(node, dict):
        return [p for key, value in node.items() for p in _leaves(value, path + (key,))]
    if isinstance(node, list):
        return [p for i, value in enumerate(node) for p in _leaves(value, path + (i,))]
    return [path]


def _with_leaf(config, path, value):
    config = json.loads(json.dumps(config))
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return config


def _mutated_rows(rows, kind, at):
    """The events file rows with one defect at row index ``at``."""
    rows = list(rows)
    at = at % len(rows)
    dim, time_ = rows[at].split(",")
    if kind == "duplicate":
        rows.insert(at, rows[at])
    elif kind == "blank":
        rows.insert(at, "")
    elif kind == "tab":
        rows[at] = f"{dim},\t{time_}"
    elif kind == "negative":
        rows[at] = f"{dim},-{time_}"
    elif kind == "past_T":
        rows[at] = f"{dim},{float(time_) + 1e6:.6f}"
    elif kind == "bad_dim":
        rows[at] = f"{int(dim) + 1},{time_}"
    return rows


def _leaf_case(name):
    # a million Gibbs sweeps is a valid run, not an error case, and takes minutes
    return st.tuples(st.just(name), st.just("leaf"),
                     st.sampled_from(_leaves(_BASES[name])),
                     st.sampled_from(_EXTREMES)).filter(
        lambda case: not (case[2] == ("gibbs", "n_iter") and case[3] == 10**6))


_CASES = st.one_of(
    st.sampled_from(sorted(_BASES)).flatmap(_leaf_case),
    st.tuples(st.sampled_from([n for n in sorted(_BASES) if n.startswith("fit")]),
              st.just("events"),
              st.sampled_from(["duplicate", "blank", "bom", "tab", "negative", "past_T",
                               "bad_dim"]),
              st.integers(0, 200)),
    st.tuples(st.sampled_from(sorted(_BASES)), st.just("seed"),
              st.sampled_from([0, -1, -3, 10**6]), st.none()))


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    """The K=1 events file (143 events on [0, 20]) and a fixed fit's result.json."""
    root = tmp_path_factory.mktemp("contract")
    sim = _write(root, "sim.json", {**_BASES["simulate_k1"], "out_dir": str(root)})
    assert cli.main(["simulate", "--config", sim]) == 0
    fit = _write(root, "fit.json", {**_BASES["fit_fixed"], "out_dir": str(root),
                                    "events_csv": str(root / "events.csv")})
    assert cli.main(["fit", "--config", fit]) == 0
    return root


class TestErrorContract:
    def _run(self, contract_dir, tmp_path, capsys, name, argv=(), **changes):
        """Exit code and stderr error of base config ``name`` with ``changes``;
        ``events_csv`` is the contract file unless ``changes`` gives one."""
        config = {**_BASES[name], **changes, "out_dir": str(tmp_path / "out")}
        if "events_csv" in config and "events_csv" not in changes:
            config["events_csv"] = str(contract_dir / "events.csv")
        path = _write(tmp_path, "config.json", config)
        capsys.readouterr()
        code = cli.main([config["mode"], "--config", path, *argv])
        if not code:
            return code, None
        assert not (tmp_path / "out" / "result.json").exists()
        return code, _error_of(capsys)

    @pytest.mark.parametrize("name", ["fit_fixed", "fit_adaptive", "fit_two_step"])
    def test_update_whose_right_hand_side_overflows_is_exit_4(self, contract_dir,
                                                             tmp_path, capsys, name):
        # alpha^2 passes the overflow check, alpha^2 eta u does not
        code, error = self._run(contract_dir, tmp_path, capsys, name,
                                link={**_LINK, "alpha": 1e154})
        assert code == cli.EXIT_NUMERICAL
        assert error["type"] == "NumericalError" and "not finite" in error["message"]

    @pytest.mark.parametrize("name, argv, seed", [
        ("simulate_k1", (), -1), ("fit_gibbs", (), -1),
        ("simulate_k1", ("--seed", "-3"), 1)], ids=["simulate", "gibbs", "seed_flag"])
    def test_negative_seed_is_exit_1(self, contract_dir, tmp_path, capsys, name, argv,
                                     seed):
        code, error = self._run(contract_dir, tmp_path, capsys, name, argv, seed=seed)
        assert code == cli.EXIT_CONFIG
        assert error["type"] == "ConfigError" and "seed" in error["message"]

    @pytest.mark.parametrize("name, dims_K", [
        ("fit_fixed", 10**6), ("fit_adaptive", 10**6), ("fit_two_step", 10**6),
        ("fit_gibbs", 10**6), ("fit_adaptive", 21)],
        ids=["fixed", "adaptive", "two_step", "gibbs", "adaptive_candidates"])
    def test_model_too_large_is_exit_1_before_it_is_allocated(self, contract_dir,
                                                              tmp_path, capsys, name,
                                                              dims_K):
        # each prior covariance of dims_K 10^6 would be over 10^12 doubles, and
        # dims_K 21 at three depths is 21 x 6.3 M candidates; the events file
        # does not exist, so the refusal comes before any event is read
        code, error = self._run(contract_dir, tmp_path, capsys, name, dims_K=dims_K,
                                events_csv=str(tmp_path / "missing.csv"))
        assert code == cli.EXIT_CONFIG
        assert error["type"] == "ConfigError" and "allowed" in error["message"]

    @pytest.mark.parametrize("name, changes", [
        ("fit_fixed", {"basis": {"D": 1}}),
        ("fit_two_step", {"adaptive": {"D_max": 1, "threshold": "auto"}})],
        ids=["fixed", "two_step"])
    def test_posteriors_too_large_to_hold_are_exit_1_before_any_read(
            self, contract_dir, tmp_path, capsys, name, changes):
        # each prior of 2001^2 entries passes, but the fit's 1000 posterior
        # covariances would hold 4.0e9 entries; the events file does not exist
        code, error = self._run(contract_dir, tmp_path, capsys, name, dims_K=1000,
                                events_csv=str(tmp_path / "missing.csv"), **changes)
        assert code == cli.EXIT_CONFIG
        assert error["type"] == "ConfigError"
        assert "posterior covariance entries" in error["message"]

    def test_posteriors_under_the_cap_reach_the_read(self, contract_dir, tmp_path,
                                                     capsys):
        # K=64 at depth 2: 64 x 257^2 = 4.2 M entries, under the cap
        code, error = self._run(contract_dir, tmp_path, capsys, "fit_fixed", dims_K=64,
                                basis={"D": 2}, events_csv=str(tmp_path / "missing.csv"))
        assert code == cli.EXIT_IO
        assert "missing.csv" in error["message"]

    @pytest.mark.parametrize("name", ["fit_fixed", "fit_adaptive", "fit_two_step",
                                      "fit_gibbs"])
    def test_fit_past_the_time_cap_is_exit_1_before_any_read(self, contract_dir,
                                                             tmp_path, capsys, name):
        # 5 T / A quadrature nodes, or theta T Gibbs latent points per sweep,
        # past core.MAX_POINTS; the events file does not exist
        code, error = self._run(contract_dir, tmp_path, capsys, name, horizon_T=1e12,
                                events_csv=str(tmp_path / "missing.csv"))
        assert code == cli.EXIT_CONFIG
        assert error["type"] == "ConfigError" and "allowed" in error["message"]

    @pytest.mark.parametrize("name", ["fit_fixed", "fit_adaptive", "fit_two_step",
                                      "fit_gibbs"])
    def test_link_alpha_whose_square_overflows_is_exit_1_before_any_read(
            self, contract_dir, tmp_path, capsys, name):
        # every conjugate update multiplies by alpha^2; the events file does not exist
        code, error = self._run(contract_dir, tmp_path, capsys, name,
                                link={**_LINK, "alpha": 1e200},
                                events_csv=str(tmp_path / "missing.csv"))
        assert code == cli.EXIT_CONFIG
        assert error["type"] == "ConfigError" and "overflows" in error["message"]

    def test_gibbs_burn_in_not_below_n_iter_is_exit_1_before_any_read(
            self, contract_dir, tmp_path, capsys):
        code, error = self._run(contract_dir, tmp_path, capsys, "fit_gibbs",
                                events_csv=str(tmp_path / "missing.csv"),
                                gibbs={"n_iter": 10, "burn_in": 10})
        assert code == cli.EXIT_CONFIG
        assert error["type"] == "ConfigError" and "burn_in" in error["message"]

    @pytest.mark.parametrize("gibbs", [{"n_iter": 2, "burn_in": 1},
                                       {"n_iter": 10, "burn_in": 2, "thin": 8}],
                             ids=["one_after_burn_in", "thin_past_the_chain"])
    def test_gibbs_keeping_fewer_than_two_draws_is_exit_1_before_any_read(
            self, contract_dir, tmp_path, capsys, gibbs):
        # one kept draw has no sd, and result.json could not be written after
        # the whole chain had run
        code, error = self._run(contract_dir, tmp_path, capsys, "fit_gibbs",
                                events_csv=str(tmp_path / "missing.csv"), gibbs=gibbs)
        assert code == cli.EXIT_CONFIG
        assert error["type"] == "ConfigError" and "two draws" in error["message"]

    @pytest.mark.parametrize("name, changes", [
        ("fit_fixed", {"dims_K": 1e154}), ("fit_fixed", {"vi": {"max_iter": 1e300}}),
        ("simulate_k1", {"seed": 1.7e308}),
        ("fit_gibbs", {"gibbs": {"n_iter": 3.0, "burn_in": 1}})],
        ids=["dims_K", "max_iter", "seed", "n_iter"])
    def test_float_for_an_integer_key_is_exit_1(self, contract_dir, tmp_path, capsys,
                                                name, changes):
        code, error = self._run(contract_dir, tmp_path, capsys, name, **changes)
        assert code == cli.EXIT_CONFIG
        assert error["type"] == "ConfigError" and "integer" in error["message"]

    @given(case=_CASES)
    @example(case=("fit_fixed", "leaf", ("link", "alpha"), 1e154))
    @example(case=("fit_adaptive", "leaf", ("link", "alpha"), 1e154))
    @example(case=("fit_two_step", "leaf", ("link", "alpha"), 1e154))
    @example(case=("simulate_k1", "leaf", ("seed",), -1))
    @example(case=("fit_gibbs", "leaf", ("seed",), -1))
    @example(case=("simulate_k1", "seed", -3, None))
    @example(case=("fit_fixed", "leaf", ("dims_K",), 10**6))
    @example(case=("fit_adaptive", "leaf", ("dims_K",), 21))
    @example(case=("fit_gibbs", "leaf", ("gibbs", "n_iter"), 1e154))
    @settings(max_examples=600, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_mutated_input_ends_in_a_documented_exit(self, contract_dir, case):
        name, kind, what, extra = case
        config, argv = _BASES[name], []
        rows = (contract_dir / "events.csv").read_text().splitlines()
        if kind == "leaf":
            config = _with_leaf(config, what, extra)
        elif kind == "seed":
            argv = ["--seed", str(what)]
        elif what == "bom":
            rows[0] = "\ufeff" + rows[0]
        else:
            rows = rows[:1] + _mutated_rows(rows[1:], what, extra)
        work = contract_dir / f"case_{len(os.listdir(contract_dir))}"
        work.mkdir()
        (work / "events.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
        (work / "result.json").write_bytes((contract_dir / "result.json").read_bytes())
        (work / "config.json").write_text(json.dumps(config))
        mode = _BASES[name]["mode"]  # the command; a mutated "mode" must not match it
        stderr, cwd = io.StringIO(), os.getcwd()
        os.chdir(work)  # a path leaf mutated to "x" stays inside the case directory
        try:
            with contextlib.redirect_stderr(stderr), warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = cli.main([mode, "--config", "config.json"] + argv)
        finally:
            os.chdir(cwd)
        assert code in range(5), stderr.getvalue()
        if code:
            error = json.loads(stderr.getvalue().splitlines()[-1])["error"]
            assert error["code"] == code, error
