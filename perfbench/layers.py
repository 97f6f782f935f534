"""Per-layer spans of the traced run and the metrics derived from them.

Layers are the package modules.  Each wrapper replaces the module attribute
that the calling module looks up at call time (``cli.simulate`` is what
``cli.cmd_simulate`` calls, ``vi.feature_matrix`` what the VI feature cache
calls), so calls are timed from the benchmark's own files and no program file
changes.  The wrappers are installed only for traced rounds.
"""

import importlib
import os
import warnings

import numpy as np

from perfbench.spans import self_seconds, total_seconds

# Counts that must repeat exactly for a seed (and, for pg.draws, a backend).
EXACT_COUNTS = ("vi.cavi_iters", "adaptive.candidates", "pg.draws",
                "simulate.events", "cli.tie_jitters")


def _feature_hook(tracer):
    def hook(args, kwargs, result):
        tracer.add("core.feature_bytes", result.nbytes)
    return hook


def _pg_draw_hook(tracer):
    def hook(args, kwargs, result):
        tracer.add("pg.draws", int(np.size(result)))
    return hook


def _conjugate_hook(tracer):
    def hook(args, kwargs, result):
        is_event = np.asarray(args[2], dtype=bool)
        tracer.add("gibbs.latent_points", int(np.count_nonzero(~is_event)))
    return hook


def _gibbs_hook(tracer):
    def hook(args, kwargs, result):
        tracer.add("gibbs.sweeps", result.n_iter)
    return hook


def _fully_adaptive_hook(tracer):
    """Candidates, CAVI iterations and a computed CAVI flop estimate.

    One CAVI iteration of a candidate with d parameters, N own events and
    n_q quadrature nodes costs about (6 d^2 + 12 d)(N + n_q) + 3 d^3 flops:
    the covariance products and precision accumulation of the update and of
    the bound, plus two Cholesky factorisations and an inverse.
    """

    def hook(args, kwargs, result):
        events = args[0]
        quad = kwargs.get("quad")
        n_q = 0 if quad is None else int(quad.n_gq)
        tracer.note("vi.quad_nodes", n_q)
        n_own = [int(np.count_nonzero(t >= 0.0)) for t in events.times]
        candidates = iters = flops = 0
        for k, dim in enumerate(result.per_dim):
            for sm, post in zip(dim.submodels, result.posteriors[k]):
                d = sm.param_dim
                candidates += 1
                iters += post.iterations
                flops += post.iterations * ((6 * d * d + 12 * d) * (n_own[k] + n_q)
                                            + 3 * d ** 3)
        tracer.add("adaptive.candidates", candidates)
        tracer.add("vi.cavi_iters", iters)
        tracer.add("vi.cavi_flops", flops)
    return hook


def _read_events_hook(tracer):
    def hook(args, kwargs, result):
        tracer.add("cli.events_csv_bytes", os.path.getsize(args[0]))
    return hook


def _simulate_hook(tracer):
    """Events drawn, and the candidates the constant sigmoid bound expects."""

    def hook(args, kwargs, result):
        config = args[0]
        k_dims = config.params.dims_K
        links = config.link if isinstance(config.link, (list, tuple)) \
            else [config.link] * k_dims
        burn_in = config.params.memory_A if config.burn_in is None else config.burn_in
        bound = sum(lk.theta for lk in links)
        tracer.add("simulate.events", int(sum(t.size for t in result.times)))
        tracer.add("simulate.expected_candidates",
                   bound * (config.horizon_T + burn_in))
    return hook


def _risk_hook(tracer):
    def hook(args, kwargs, result):
        tracer.add("metrics.risk_l1", float(result[0]))
    return hook


# (module, attribute, span name, counter hook)
TRACED = (
    ("hawkes_vb.cli", "load_config", "cli.load_config", None),
    ("hawkes_vb.cli", "read_events_csv", "cli.read_events_csv", _read_events_hook),
    ("hawkes_vb.cli", "write_events_csv", "cli.write_events_csv", None),
    ("hawkes_vb.cli", "simulate", "simulate.simulate", _simulate_hook),
    ("hawkes_vb.cli", "excursion_stats", "simulate.excursion_stats", None),
    ("hawkes_vb.cli", "gibbs_sample", "gibbs.gibbs_sample", _gibbs_hook),
    ("hawkes_vb.adaptive", "fully_adaptive", "adaptive.fully_adaptive",
     _fully_adaptive_hook),
    ("hawkes_vb.adaptive", "norm_matrix", "adaptive.norm_matrix", None),
    ("hawkes_vb.adaptive", "detect_gap_threshold", "adaptive.detect_gap_threshold",
     None),
    ("hawkes_vb.vi", "feature_matrix", "core.feature_matrix", _feature_hook),
    ("hawkes_vb.vi", "pg_mean", "pg.pg_mean", None),
    ("hawkes_vb.gibbs", "pg_sample_arr", "pg.pg_sample_arr", _pg_draw_hook),
    ("hawkes_vb.gibbs", "feature_matrix", "core.feature_matrix", _feature_hook),
    ("hawkes_vb.gibbs", "conjugate_update", "gibbs.conjugate_update",
     _conjugate_hook),
    ("hawkes_vb.metrics", "l1_risk", "metrics.l1_risk", _risk_hook),
)


def _counting_ties(tracer):
    """Wrap ``read_events_csv`` to count its tie-jitter warnings."""

    def wrapper(fn):
        def read(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            tracer.add("cli.tie_jitters",
                       sum(1 for w in caught if str(w.message).startswith("tie at")))
            return result
        return read
    return wrapper


def install(tracer):
    """Wrap every traced function; ``tracer.restore()`` undoes it."""
    cli = importlib.import_module("hawkes_vb.cli")
    tracer.patch(cli, "read_events_csv", _counting_ties(tracer))
    for module_name, attr, name, hook in TRACED:
        module = importlib.import_module(module_name)
        tracer.wrap(module, attr, name, None if hook is None else hook(tracer))


def round_metrics(tracer, round_no):
    """Every per-layer metric of one traced round."""
    spans = tracer.spans_of(round_no)
    c = tracer.counters

    def named(name):
        return sorted((s for s in spans if s.name == name), key=lambda s: s.start)

    def secs(name):
        return total_seconds(named(name))

    def ratio(num, den):
        return num / den if den else 0.0

    steps = [s.end - s.start for s in named("adaptive.fully_adaptive")]
    steps_cpu = sum(s.cpu_end - s.cpu_start for s in named("adaptive.fully_adaptive"))
    feature_s = secs("core.feature_matrix")
    draw_s = secs("pg.pg_sample_arr")
    gibbs = named("gibbs.gibbs_sample")
    gibbs_s = total_seconds(gibbs)
    iters = c.get("vi.cavi_iters", 0)
    return {
        "cli.load_config_s": secs("cli.load_config"),
        "cli.read_events_s": secs("cli.read_events_csv"),
        "cli.write_events_s": secs("cli.write_events_csv"),
        "cli.tie_jitters": c.get("cli.tie_jitters", 0),
        "cli.events_csv_bytes": c.get("cli.events_csv_bytes", 0),
        "core.feature_s": feature_s,
        "core.feature_calls": len(named("core.feature_matrix")),
        "core.feature_bytes": c.get("core.feature_bytes", 0),
        "adaptive.step1_s": steps[0] if steps else 0.0,
        "adaptive.step2_s": steps[1] if len(steps) > 1 else 0.0,
        "adaptive.graph_s": secs("adaptive.norm_matrix")
        + secs("adaptive.detect_gap_threshold"),
        "adaptive.candidates": c.get("adaptive.candidates", 0),
        "adaptive.cpu_per_wall": ratio(steps_cpu, sum(steps)),
        "vi.cavi_iters": iters,
        "vi.s_per_cavi_iter": ratio(sum(steps) - feature_s, iters),
        "vi.cavi_flops": c.get("vi.cavi_flops", 0),
        "vi.pg_mean_s": secs("pg.pg_mean"),
        "vi.quad_nodes": c.get("vi.quad_nodes", 0),
        "pg.draws": c.get("pg.draws", 0),
        "pg.draw_s": draw_s,
        "pg.draws_per_s": ratio(c.get("pg.draws", 0), draw_s),
        "gibbs.latent_points": c.get("gibbs.latent_points", 0),
        "gibbs.conjugate_s": secs("gibbs.conjugate_update"),
        "gibbs.self_s": sum(self_seconds(s, spans) for s in gibbs),
        "gibbs.sweeps_per_s": ratio(c.get("gibbs.sweeps", 0), gibbs_s),
        "simulate.simulate_s": secs("simulate.simulate"),
        "simulate.events": c.get("simulate.events", 0),
        "simulate.accept_ratio": ratio(c.get("simulate.events", 0),
                                       c.get("simulate.expected_candidates", 0)),
        "simulate.excursion_s": secs("simulate.excursion_stats"),
        "metrics.eval_s": secs("metrics.l1_risk"),
        "metrics.risk_l1": c.get("metrics.risk_l1", 0.0),
    }
