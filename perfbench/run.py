"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload graph_k10 --seed 1 --seconds 20 --trace 0

Run from any directory; the program is imported from ``src/`` next to this
directory, unbuilt.  The set-up runs three times and ``setup_s`` is the
median.  Then rounds of the workload's commands run until ``--seconds`` have
passed and at least three rounds have run.  With ``--trace 0`` every round is untraced and the last line is the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds alternate,
the per-layer metrics come from the traced rounds, and ``trace.overhead_s``
is the traced minus the untraced median round time.  Both modes print every
end-to-end metric by name first.  The last line of standard output is one
JSON object; the exit code is 1 when an output check failed.

A record of the run (environment, rounds, metrics) and, when traced, its
spans go to ``.perfbench_out/`` at the repository root.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 3
# A median of three rounds ignores one slowed by the host; graph_k10's rounds
# take about 14 s, so without this floor a run would hold only two.
MIN_ROUNDS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "HAWKES_VB_THREADS")

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import hawkes_vb.cli; "
                 "print(time.perf_counter() - t)")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds():
    """Seconds a fresh interpreter takes to import the command-line module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def environment():
    import numpy
    import scipy

    import hawkes_vb
    import hawkes_vb.cli  # noqa: F401  (compiles its bytecode before set-up is timed)

    env = {"backend": hawkes_vb.BACKEND, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    env.update({name: os.environ.get(name) for name in THREAD_VARS})
    return env


def source_digest():
    """Digest of the program sources, keying counts that must repeat."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "hawkes_vb")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_round(workload):
    """Run the workload's commands in order, stopping at the first failure."""
    from perfbench.workloads import Command

    commands = []
    for argv in workload.commands():
        cmd = Command(argv)
        commands.append(cmd)
        if not cmd.ok:
            return commands, [cmd.describe()]
    return commands, workload.check()


def check_counts(key, counts, problems):
    """Counts of one seed, code and backend must repeat across runs."""
    path = os.path.join(OUT, "counts.json")
    try:
        with open(path) as fh:
            ledger = json.load(fh)
    except (OSError, ValueError):
        ledger = {}
    seen = ledger.get(key)
    if seen is None:
        ledger[key] = counts
        os.makedirs(OUT, exist_ok=True)
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(ledger, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    elif seen != counts:
        problems.append(f"counts differ from an earlier run of {key}: "
                        f"{seen} != {counts}")


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def measure(workload, seconds, trace, tracer):
    """Set up ``SETUP_REPS`` times, then run at least ``MIN_ROUNDS`` rounds
    and more until ``seconds`` have passed.

    With ``trace``, odd rounds are traced.
    Returns the set-up times, one summary per round and the problems found.
    """
    from perfbench import layers

    setup_times = []
    for _ in range(SETUP_REPS):
        imported = import_seconds()
        t0 = time.perf_counter()
        workload.setup()
        setup_times.append(imported + time.perf_counter() - t0)

    rounds, problems, digests = [], [], None
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        traced = trace and len(rounds) % 2 == 1
        if traced:
            tracer.begin_round(len(rounds))
            layers.install(tracer)
        try:
            commands, found = run_round(workload)
        finally:
            tracer.restore()
        info = {"traced": traced, "commands": len(commands),
                "wall_s": sum(c.seconds for c in commands),
                "cpu_s": sum(c.cpu_seconds for c in commands),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if not found:
            now = [file_digest(workload.path(*p)) for p in workload.outputs]
            digests = digests or now
            if now != digests:
                found = ["outputs differ from the first round's"]
            else:
                info["events_per_s"] = workload.events() / commands[0].seconds
        info["failed"] = len(commands) if found else 0
        if traced:
            info["layers"] = layers.round_metrics(tracer, len(rounds))
        problems.extend(f"round {len(rounds)}: {p}" for p in found)
        rounds.append(info)
    return setup_times, rounds, problems


def _median(key, rows):
    vals = [r[key] for r in rows if key in r]
    return statistics.median(vals) if vals else 0.0


def end_to_end_values(setup_times, rounds):
    plain = [r for r in rounds if not r["traced"] and not r["failed"]]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": _median("wall_s", plain),
        "cpu_s": _median("cpu_s", plain),
        "events_per_s": _median("events_per_s", plain),
        # after set-up and one round, as a user running each command once sees
        # it; later rounds in the same process raise it by heap fragmentation
        "peak_rss_mb": rounds[0]["peak_rss_mb"],
    }


def per_layer_values(rounds, wall_s, problems):
    """Median of each layer metric over the traced rounds, and the overhead."""
    from perfbench import layers

    traced = [r["layers"] for r in rounds if r["traced"]]
    for name in layers.EXACT_COUNTS:
        if len({lay[name] for lay in traced}) > 1:
            problems.append(f"{name} differs between traced rounds")
    values = {}
    for name in traced[0]:
        vals = [lay[name] for lay in traced]
        exact = all(isinstance(v, int) for v in vals)
        values[name] = (statistics.median_low if exact else statistics.median)(vals)
    values["trace.overhead_s"] = (
        _median("wall_s", [r for r in rounds if r["traced"] and not r["failed"]])
        - wall_s)
    return values


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hawkes_vb", "cli.py")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import layers
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    tracer = Tracer()
    try:
        setup_times, rounds, problems = measure(
            WORKLOADS[args.workload](args.seed, work), args.seconds, bool(args.trace),
            tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r["commands"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    values = end_to_end_values(setup_times, rounds)
    if args.trace:
        values.update(per_layer_values(rounds, values["wall_s"], problems))
        if not problems:
            key = f"{args.workload}/seed{args.seed}/{env['backend']}/{source_digest()}"
            check_counts(key, {n: values[n] for n in layers.EXACT_COUNTS}, problems)

    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"({sum(r['traced'] for r in rounds)} traced), {attempted} commands, "
          f"{failed} failed, {SETUP_REPS} set-ups")
    for m in end_to_end + (per_layer if args.trace else []):
        print(f"  {m['name']:<24} {values[m['name']]:>16.6g} {m['unit']:<6} "
              f"({m['better']} is better)")
    for p in problems:
        print(f"CHECK FAILED {p}")

    reported = per_layer if args.trace else end_to_end
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in reported}}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                             f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "env": env, "setup_samples": setup_times,
                   "rounds": rounds, "problems": problems, "values": values,
                   "result": result}, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.json", "w") as fh:
            json.dump([s._asdict() for s in tracer.spans], fh)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
