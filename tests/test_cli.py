"""Experiment harness: config validation, file round-trips, exit codes."""

import json

import numpy as np
import pytest

import _fixtures as fx
from hawkes_vb import cli, errors


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

    def test_tie_jitter_with_warning(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("dim,time\n0,1.000000\n1,1.000000\n")
        with pytest.warns(UserWarning):
            ev = cli.read_events_csv(str(path), 2, 10.0)
        assert ev.times[0][0] != ev.times[1][0]


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


class TestEvalCommand:
    def _result_from_truth(self, tmp_path, truth):
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
                   "dimensions": dims}
        path = tmp_path / "result.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_result_from_truth_scores_perfectly(self, tmp_path):
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
