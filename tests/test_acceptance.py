"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Heavy artifacts (the
T=500 dataset, the Gibbs chain, the adaptive sweeps) are module-scoped
fixtures shared across criteria.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import minimize

import _fixtures as fx
from hawkes_vb import (EventData, HawkesParams, HistogramBasis, SimConfig,
                       excursion_stats, pg, simulate)
from hawkes_vb.adaptive import (Model, enumerate_submodels, expected_l1_norm,
                                fully_adaptive, two_step)
from hawkes_vb.core import feature_matrix
from hawkes_vb.gibbs import GibbsConfig, conjugate_update, gibbs_sample
from hawkes_vb.metrics import evaluate
from hawkes_vb.vi import (GaussianPrior, QuadratureGrid, VIConfig, _DimensionProblem,
                          cavi_fixed_model)

LINK = fx.SIM_LINK
A = fx.MEMORY_A

_TRACES = []  # (label, elbo trace) pairs collected for criterion 6


def _report(num, ok, detail):
    print(f"\nCRITERION {num:2d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num}: {detail}"


def _evaluate(result, truth):
    ks = range(truth.dims_K)
    return evaluate([result.selected_posterior(k) for k in ks],
                    [result.selected_submodel(k) for k in ks],
                    result.selected_model().graph_delta, truth)


def _collect_traces(label, result):
    for k, posts in enumerate(result.posteriors):
        for i, p in enumerate(posts):
            _TRACES.append((f"{label}/dim{k}/cand{i}", p.elbo_trace))


@pytest.fixture(scope="module")
def sim2_events():
    # the canonical T=500 Excitation dataset shared by criteria 4 and 5;
    # the draw is a typical one (the per-coordinate VI-vs-Gibbs deviation
    # varies across draws, see the decisions ledger)
    return simulate(SimConfig(params=fx.excitation_1d(), link=LINK,
                              horizon_T=500.0, seed=3))


@pytest.fixture(scope="module")
def vi_gibbs(sim2_events):
    model = Model(graph_delta=np.ones((1, 1), dtype=np.int8), bins_J=(4,),
                  memory_A=A)
    prior = [GaussianPrior.isotropic(5, 5.0)]
    t0 = time.perf_counter()
    quad = QuadratureGrid.default(500.0, A)
    post = cavi_fixed_model(sim2_events, model, LINK, prior, quad, tol=1e-6)[0]
    t_vi = time.perf_counter() - t0
    t0 = time.perf_counter()
    chain = gibbs_sample(sim2_events, GibbsConfig(n_iter=5000, burn_in=1000, seed=1),
                         LINK, model, prior)
    t_gibbs = time.perf_counter() - t0
    _TRACES.append(("sim2/vi", post.elbo_trace))
    return post, chain, t_vi, t_gibbs


@pytest.fixture(scope="module")
def two_step_runs():
    out = {}
    for exc, horizon in ((True, 500.0), (False, 700.0)):
        runs = []
        truth = fx.sparse_truth(4, excitation=exc)
        for seed in range(5):
            ev = simulate(SimConfig(params=truth, link=LINK,
                                    horizon_T=horizon, seed=seed))
            t0 = time.perf_counter()
            res = two_step(ev, LINK, 2, GaussianPrior.isotropic,
                           VIConfig(tol=1e-4, threads=2), memory_A=A)
            wall = time.perf_counter() - t0
            runs.append((res, _evaluate(res.step2, truth), wall))
            _collect_traces(f"k4-{'exc' if exc else 'inh'}-s{seed}", res.step1)
            _collect_traces(f"k4-{'exc' if exc else 'inh'}-s{seed}b", res.step2)
        out[exc] = (truth, runs)
    return out


def test_criterion_01_pg_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    draws = pg.pg_sample_arr(np.zeros(100_000), rng)
    ok = True
    details = []
    for x in (-3.0, 0.0, 0.7, 3.0):
        vals = np.exp(pg.log_g(draws, x))
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        dev = abs(vals.mean() - 1.0 / (1.0 + math.exp(-x)))
        # at x = 0 the integrand is the constant 1/2 and the identity is exact
        ok &= dev <= max(5.0 * se, 1e-12)
        details.append(f"x={x}: dev {dev:.2e} vs 5se {5 * se:.2e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    _report(1, ok, f"sigmoid mixture identity, 1e5 draws: {'; '.join(details)}; "
                   f"{elapsed:.2f}s (<5s)")


def test_criterion_02_pg_sampler_mean():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    details = []
    for c in (0.0, 0.5, 2.0, 10.0):
        draws = pg.pg_sample_arr(np.full(10**6, c), rng)
        se = draws.std(ddof=1) / 1000.0
        dev = abs(draws.mean() - pg.pg_mean(c))
        ok &= dev < 4.0 * se
        details.append(f"c={c}: {dev / se:.2f}se")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(2, ok, f"PG(1,c) sampler vs analytic mean, 1e6 draws: "
                   f"{'; '.join(details)}; {elapsed:.1f}s (<30s)")


def test_criterion_03_simulator_sanity():
    basis = HistogramBasis(A, 1)
    params = HawkesParams.build([10.0], [[None]], basis)
    rate = LINK(10.0)
    horizon = 20.0
    counts = [simulate(SimConfig(params=params, link=LINK, horizon_T=horizon,
                                 seed=s)).total() for s in range(200)]
    target = rate * horizon
    se = math.sqrt(target / 200.0)
    dev = abs(float(np.mean(counts)) - target)
    long_run = simulate(SimConfig(params=params, link=LINK, horizon_T=1100.0,
                                  seed=1000))
    gaps = np.diff(long_run.times[0][long_run.times[0] >= 0.0])
    assert gaps.size >= 10**4
    p_ks = stats.kstest(gaps[:10**4 + 1], "expon", args=(0.0, 1.0 / rate)).pvalue
    ok = dev < 3.0 * se and p_ks > 0.01
    _report(3, ok, f"homogeneous reduction: mean count dev {dev / se:.2f}se "
                   f"(<3), KS p={p_ks:.3f} (>0.01) on 1e4 gaps")


def test_criterion_04_table1_scale(sim2_events):
    st = excursion_stats(sim2_events, A)
    n, g = st.num_events[0], st.num_global_excursions
    ok = 4200 <= n <= 6300 and 1250 <= g <= 1870
    _report(4, ok, f"K=1 Excitation T=500: {n} events in [4200,6300], "
                   f"{g} excursions in [1250,1870]")


def test_criterion_05_vi_gibbs_agreement(vi_gibbs):
    post, chain, t_vi, t_gibbs = vi_gibbs
    gm, gs = chain.mean(0), chain.sd(0)
    dev = np.abs(post.mean - gm) / gs
    ok = bool(np.all(dev < 0.5)) and t_vi < 0.1 * t_gibbs \
        and (t_vi + t_gibbs) < 1800.0
    _report(5, ok, f"VI vs Gibbs (K=1,J=4,T=500): max |mean diff| "
                   f"{float(dev.max()):.3f} Gibbs sd (<0.5); "
                   f"VI {t_vi:.2f}s vs Gibbs {t_gibbs:.1f}s "
                   f"(ratio {t_vi / t_gibbs:.3f} < 0.1)")


def test_criterion_06_elbo_monotone(vi_gibbs, adaptive_runs, two_step_runs):
    bad = []
    for label, trace in _TRACES:
        tr = np.asarray(trace)
        if tr.size < 2:
            continue
        drops = np.diff(tr) < -1e-6 * np.abs(tr[:-1])
        if np.any(drops):
            bad.append(label)
    ok = not bad and len(_TRACES) > 50
    _report(6, ok, f"ELBO non-decreasing (1e-6 rel) across {len(_TRACES)} "
                   f"CAVI traces" + (f"; violations: {bad[:3]}" if bad else ""))


@pytest.fixture(scope="module")
def adaptive_runs():
    truth = fx.selection_1d()
    subs = enumerate_submodels(1, 5)
    runs = []
    for seed in range(5):
        ev = simulate(SimConfig(params=truth, link=LINK, horizon_T=2000.0,
                                seed=seed))
        res = fully_adaptive(ev, [subs], LINK, GaussianPrior.isotropic,
                             VIConfig(tol=1e-4, threads=2), memory_A=A)
        _collect_traces(f"sel-s{seed}", res)
        runs.append(res)
    return truth, runs


def test_criterion_07_model_selection(adaptive_runs):
    truth, runs = adaptive_runs
    hits = sum(1 for res in runs
               if res.selected_submodel(0).column == (1,)
               and res.selected_submodel(0).num_bins == 2)
    ok = hits >= 4
    _report(7, ok, f"fully-adaptive selects the true model (delta=1, J=2) on "
                   f"{hits}/5 seeds at T=2000 (need >=4)")


def test_criterion_08_two_step_recovery(two_step_runs):
    ok = True
    details = []
    for exc, cap in ((True, 2 * 1.01), (False, 2 * 0.92)):
        truth, runs = two_step_runs[exc]
        good = sum(1 for _, rep, _ in runs
                   if rep.acc_graph == 1.0 and rep.acc_dim == 1.0)
        risks = [rep.risk_l1 for _, rep, _ in runs]
        walls = [w for _, _, w in runs]
        scen_ok = good >= 4 and max(risks) <= cap and max(walls) <= 300.0
        ok &= scen_ok
        details.append(f"{'exc' if exc else 'inh'}: acc 1.0 on {good}/5, "
                       f"risk max {max(risks):.2f} (<= {cap:.2f}), "
                       f"wall max {max(walls):.0f}s (<=300)")
    _report(8, ok, "K=4 sparse two-step: " + "; ".join(details))


def test_criterion_09_threshold_in_gap(two_step_runs):
    ok = True
    worst = None
    for exc in (True, False):
        truth, runs = two_step_runs[exc]
        edges = truth.graph().astype(bool)
        for res, _, _ in runs:
            s, thr = res.graph.s_hat, res.graph.threshold
            sep = s[edges].min() > thr > s[~edges].max()
            ok &= bool(sep)
            margin = min(s[edges].min() - thr, thr - s[~edges].max())
            if worst is None or margin < worst:
                worst = margin
    _report(9, ok, f"auto threshold separates edge norms from noise on all "
                   f"10 K=4 runs; worst margin {worst:.3f}")


def test_criterion_10_risk_decreases_with_horizon():
    truth = fx.sparse_truth(10)
    ok = True
    details = []
    for seed in range(3):
        risks = {}
        for horizon in (50.0, 800.0):
            ev = simulate(SimConfig(params=truth, link=LINK, horizon_T=horizon,
                                    seed=seed))
            res = two_step(ev, LINK, 2, GaussianPrior.isotropic,
                           VIConfig(tol=1e-4, threads=2), memory_A=A)
            risks[horizon] = _evaluate(res.step2, truth).risk_l1
        ok &= risks[800.0] < risks[50.0]
        details.append(f"seed{seed}: {risks[50.0]:.2f} -> {risks[800.0]:.2f}")
    _report(10, ok, f"K=10 risk strictly decreases from T=50 to T=800 on "
                    f"every seed: {'; '.join(details)}")


def test_criterion_11_oracle_equivalence():
    # (a) CAVI fixed point vs direct ELBO maximisation on a 2-parameter toy
    ev = EventData(dims_K=1, horizon_T=3.0, times=(np.array([0.4, 1.1, 2.3]),))
    quad = QuadratureGrid.default(3.0, A)
    prior = GaussianPrior.isotropic(2, 5.0)
    basis, n = HistogramBasis(A, 1), ev.times[0].size  # a column per event, then per node
    feats = basis.features(feature_matrix(ev, basis, [0], np.append(ev.times[0], quad.points)))
    problem = _DimensionProblem(feats, n, quad.weights, LINK, prior, 3.0)
    model = Model(graph_delta=np.ones((1, 1), dtype=np.int8), bins_J=(1,),
                  memory_A=A)
    posts = cavi_fixed_model(ev, model, LINK, [prior], quad,
                             max_iter=1000, tol=1e-14)

    def unpack(x):
        mean = x[:2]
        low = np.array([[math.exp(x[2]), 0.0], [x[3], math.exp(x[4])]])
        return mean, low @ low.T

    def neg_elbo(x):
        mean, cov = unpack(x)
        return -problem.elbo(mean, cov, problem.moments(mean, cov))

    res = minimize(neg_elbo,
                   np.array([1.0, 0.1, math.log(0.5), 0.0, math.log(0.5)]),
                   method="Nelder-Mead",
                   options={"maxiter": 6000, "xatol": 1e-10, "fatol": 1e-12})
    opt_mean, opt_cov = unpack(res.x)
    dev_a = max(float(np.max(np.abs(opt_mean - posts[0].mean))),
                float(np.max(np.abs(opt_cov - posts[0].cov))))

    # (b) Gibbs conjugate step vs direct linear solve
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(5, 60))
    marks = rng.random(60) + 0.05
    is_event = rng.random(60) < 0.5
    pk = GaussianPrior(mean=rng.normal(size=5), cov=np.diag(rng.random(5) + 0.5))
    mean_c, _ = conjugate_update(feats, marks, is_event, LINK.alpha, LINK.eta, pk)
    prec = np.linalg.inv(pk.cov) + LINK.alpha**2 * (feats * marks) @ feats.T
    rhs = feats @ (LINK.alpha * np.where(is_event, 0.5, -0.5)
                   + LINK.alpha**2 * LINK.eta * marks) \
        + np.linalg.inv(pk.cov) @ pk.mean
    dev_b = float(np.max(np.abs(mean_c - np.linalg.solve(prec, rhs))))

    # (c) expected L1 norm vs Monte Carlo
    draws = rng.normal(2.0, 1.0, size=10**6)
    dev_c = abs(expected_l1_norm(np.array([2.0]), np.eye(1))
                - float(np.abs(draws).mean()))

    ok = dev_a < 1e-3 and dev_b < 1e-10 and dev_c < 1e-2
    _report(11, ok, f"oracles: CAVI vs direct max {dev_a:.2e} (<1e-3); "
                    f"conjugate vs solve {dev_b:.2e} (<1e-10); "
                    f"folded-normal vs MC {dev_c:.2e} (<1e-2)")
