"""The benchmark's three workloads, each driving ``hawkes_vb.cli.main``.

A workload has a set-up, which generates its inputs from the workload seed,
and a round, which runs the timed ``hawkes-vb`` commands once in-process and
checks the files they wrote.  The truths below are frozen copies of the test
fixtures ``sparse_truth(10)`` and ``excitation_1d()``; the benchmark's own
tests assert that they still agree.

graph_k10     ``fit`` (two-step graph estimator) then ``eval`` on a simulated
              K=10 sparse-excitation dataset, T=400, seed = workload seed.
              Time goes to feature building and CAVI over ~60 candidate fits
              in the adaptive task pool; Polya-Gamma (PG) means only.
gibbs_k1      ``fit`` with the Gibbs oracle on the criterion-5 dataset (K=1
              excitation, T=500, simulation seed 3); the chain seed is the
              workload seed.  Time goes to PG draws and per-sweep features.
simulate_k10  ``simulate`` of the K=10 truth at T=800, seed = workload seed:
              the thinning loop, CSV write, CSV read-back and excursion
              statistics.  No VI and no PG.
"""

import json
import os
import time
import traceback

import numpy as np

from perfbench import checks

MEMORY_A = 0.1
LINK = {"kind": "sigmoid", "theta": 20.0, "alpha": 0.2, "eta": 10.0}


def sparse_truth_section(dims_K):
    """Self-loops [0.28, 0.12] plus a chain l -> l+1 of [0.25, 0.10], nu = 4."""
    weights = [[None] * dims_K for _ in range(dims_K)]
    for k in range(dims_K):
        weights[k][k] = [0.28, 0.12]
        if k + 1 < dims_K:
            weights[k][k + 1] = [0.25, 0.10]
    return {"nu": [4.0] * dims_K, "weights": weights, "bins_J": 2}


def excitation_truth_section():
    """K=1 excitation truth of acceptance criteria 4 and 5."""
    return {"nu": [7.5], "weights": [[[0.12, 0.09, 0.06, 0.045]]], "bins_J": 4}


def params_from_section(section):
    from hawkes_vb import HawkesParams, HistogramBasis

    weights = [[None if w is None else np.asarray(w, dtype=np.float64) for w in row]
               for row in section["weights"]]
    return HawkesParams.build(section["nu"], weights,
                              HistogramBasis(MEMORY_A, section["bins_J"]))


def truth_graph(section):
    return np.array([[0 if w is None else 1 for w in row] for row in section["weights"]],
                    dtype=np.int8)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def _simulate_to_csv(section, horizon_T, seed, path):
    """Simulate with the library and write through the program's CSV writer."""
    from hawkes_vb import LinkFunction, SimConfig, simulate
    from hawkes_vb.cli import write_events_csv

    events = simulate(SimConfig(params=params_from_section(section),
                                link=LinkFunction(**LINK), horizon_T=horizon_T,
                                seed=seed))
    write_events_csv(path, events)
    return int(sum(np.count_nonzero(t >= 0.0) for t in events.times))


class Command:
    """One ``hawkes-vb`` command run in-process, with its wall and CPU time."""

    def __init__(self, argv):
        from hawkes_vb.cli import main

        self.argv = argv
        self.error = None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            self.code = main(argv)
        except Exception as exc:  # the run goes on; the failure is counted
            traceback.print_exc()
            self.code = None
            self.error = f"{type(exc).__name__}: {exc}"
        self.seconds = time.perf_counter() - t0
        self.cpu_seconds = time.process_time() - c0

    @property
    def ok(self):
        return self.code == 0

    def describe(self):
        return f"hawkes-vb {self.argv[0]} exited {self.code} {self.error or ''}".strip()


class Workload:
    """Set-up writes inputs under ``work``; a round runs ``commands()`` in order.

    ``check()`` returns the problems found in the files the round wrote, and
    ``events()`` the events behind ``events_per_s``, which divides them by the
    seconds of the first command.
    """

    name = None
    outputs = ()  # files whose bytes must repeat in every round of a run

    def __init__(self, seed, work):
        self.seed = seed % 2**32  # the generators take nonnegative seeds
        self.work = work
        os.makedirs(work, exist_ok=True)

    def path(self, *parts):
        return os.path.join(self.work, *parts)


class GraphK10(Workload):
    name = "graph_k10"
    outputs = (("fit", "result.json"), ("eval", "metrics.json"))
    horizon_T = 400.0
    risk_max = 6.0  # 24 seeds tried score 3.0-4.7

    def setup(self):
        self.truth = sparse_truth_section(10)
        self.n_events = _simulate_to_csv(self.truth, self.horizon_T, self.seed,
                                         self.path("events.csv"))
        _write_json(self.path("fit.json"), {
            "mode": "fit", "fit_method": "two-step", "link": LINK,
            "memory_A": MEMORY_A, "dims_K": 10, "horizon_T": self.horizon_T,
            "events_csv": self.path("events.csv"),
            "adaptive": {"D_max": 2, "threshold": "auto"},
            "vi": {"tol": 1e-4}, "threads": 2, "seed": self.seed,
            "out_dir": self.path("fit"),
        })
        _write_json(self.path("eval.json"), {
            "mode": "eval", "link": LINK, "memory_A": MEMORY_A, "dims_K": 10,
            "truth": self.truth, "result_json": self.path("fit", "result.json"),
            "out_dir": self.path("eval"),
        })

    def commands(self):
        return [["fit", "--config", self.path("fit.json")],
                ["eval", "--config", self.path("eval.json")]]

    def check(self):
        return checks.check_graph(self.path("fit", "result.json"),
                                  self.path("eval", "metrics.json"),
                                  truth_graph(self.truth), self.risk_max)

    def events(self):
        return self.n_events


class GibbsK1(Workload):
    name = "gibbs_k1"
    outputs = (("fit", "result.json"),)
    horizon_T = 500.0
    data_seed = 3        # the criterion-5 dataset
    # short rounds, so that a run's median is taken over about eight of them;
    # 12 chain seeds tried stay within 1.9 chain sd (5 burn-in sweeps do not
    # suffice: one seed of 12 then lands 3.4 sd off)
    n_iter = 30
    burn_in = 10
    mean_tol_sd = 3.0

    def setup(self):
        from hawkes_vb import LinkFunction
        from hawkes_vb.adaptive import Model
        from hawkes_vb.cli import read_events_csv
        from hawkes_vb.vi import GaussianPrior, QuadratureGrid, cavi_fixed_model

        self.n_events = _simulate_to_csv(excitation_truth_section(), self.horizon_T,
                                         self.data_seed, self.path("events.csv"))
        events = read_events_csv(self.path("events.csv"), 1, self.horizon_T)
        model = Model(graph_delta=np.ones((1, 1), dtype=np.int8), bins_J=(4,),
                      memory_A=MEMORY_A)
        post = cavi_fixed_model(events, model, LinkFunction(**LINK),
                                [GaussianPrior.isotropic(5, 5.0)],
                                QuadratureGrid.default(self.horizon_T, MEMORY_A),
                                tol=1e-6)[0]
        self.vi_mean = post.mean
        _write_json(self.path("fit.json"), {
            "mode": "fit", "fit_method": "gibbs", "link": LINK,
            "memory_A": MEMORY_A, "dims_K": 1, "horizon_T": self.horizon_T,
            "events_csv": self.path("events.csv"), "basis": {"D": 2},
            "gibbs": {"n_iter": self.n_iter, "burn_in": self.burn_in, "thin": 1},
            "seed": self.seed, "out_dir": self.path("fit"),
        })

    def commands(self):
        return [["fit", "--config", self.path("fit.json")]]

    def check(self):
        return checks.check_gibbs(self.path("fit", "result.json"), self.vi_mean,
                                  self.n_iter - self.burn_in, self.mean_tol_sd)

    def events(self):
        return self.n_events


class SimulateK10(Workload):
    name = "simulate_k10"
    outputs = (("sim", "events.csv"), ("sim", "stats.json"))
    horizon_T = 800.0
    # events on (0, T]: seeds 0-11 give 83.5k-85.2k; the band is wide enough
    # for any seed and narrow enough to catch a wrong truth or a lost block
    events_band = (80000, 90000)

    def setup(self):
        _write_json(self.path("sim.json"), {
            "mode": "simulate", "link": LINK, "memory_A": MEMORY_A, "dims_K": 10,
            "horizon_T": self.horizon_T, "truth": sparse_truth_section(10),
            "seed": self.seed, "out_dir": self.path("sim"),
        })

    def commands(self):
        return [["simulate", "--config", self.path("sim.json")]]

    def check(self):
        return checks.check_simulation(self.path("sim", "events.csv"),
                                       self.path("sim", "stats.json"),
                                       self.events_band)

    def events(self):
        with open(self.path("sim", "stats.json")) as fh:
            return json.load(fh)["num_events_total"]


WORKLOADS = {w.name: w for w in (GraphK10, GibbsK1, SimulateK10)}
