"""Compare two sets of benchmark records, metric by metric.

    python3 perfbench/compare.py OLD_RECORD... -- NEW_RECORD...

Records are the JSON files ``run.py`` writes to ``.perfbench_out/``.  For
each workload and metric it prints the median of each side and the change,
and marks a change worse than the bound in ``BENCHMARK.json``.  A comparison
whose sides differ in backend, core count, versions or thread settings is
flagged, because its numbers do not compare like with like.  Exits 1 when a
bound is exceeded or the environments differ.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    out = {}
    for path in paths:
        with open(path) as fh:
            rec = json.load(fh)
        out.setdefault(rec["workload"], []).append(rec)
    return out


def env_differences(old, new):
    """Environment keys whose values differ between the two sides."""
    keys = set()
    for a in old:
        for b in new:
            keys |= {k for k in set(a["env"]) | set(b["env"])
                     if a["env"].get(k) != b["env"].get(k)}
    return sorted(keys)


def main(argv):
    if "--" not in argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    cut = argv.index("--")
    old, new = load(argv[:cut]), load(argv[cut + 1:])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"] + spec["per_layer"]
    status = 0
    for workload in sorted(set(old) & set(new)):
        diff = env_differences(old[workload], new[workload])
        print(f"{workload}: {len(old[workload])} old, {len(new[workload])} new records")
        if diff:
            status = 1
            print(f"  ENVIRONMENT DIFFERS in {', '.join(diff)}: not like for like")
        for m in metrics:
            a = [r["values"][m["name"]] for r in old[workload] if m["name"] in r["values"]]
            b = [r["values"][m["name"]] for r in new[workload] if m["name"] in r["values"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            worse = change if m["better"] == "lower" else -change
            flag = ""
            if "bound" in m and worse > m["bound"]:
                flag = f"  WORSE than bound {m['bound']:.0%}"
                status = 1
            print(f"  {m['name']:<24} {ma:>14.6g} -> {mb:>14.6g} {m['unit']:<6} "
                  f"{change:+8.1%}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
