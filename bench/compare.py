"""Compare two sets of benchmark results, or summarise one.

    python3 bench/compare.py BASE [CHANGE]

BASE and CHANGE are directories of result files written by
``bench/run.py --out`` (or lists of such files, separated by commas).
For every workload and end-to-end metric it prints each side's median,
quartiles and spread (interquartile distance over the median).  With two
sets it labels the change:

- better: the change wins at least nine tenths of the pairs of runs
  (paired by seed where both sets used the same seeds, else in order),
  ties counting for neither, and the medians differ by more than the
  base's interquartile distance;
- worse: the change's median is worse than the base's by more than the
  metric's bound in BENCHMARK.json, and either the base's spread is within
  the bound or every run of the change is worse than every run of the base;
- unresolved: neither.

The exit code is 1 when any result reports ``correct: false``, when the
share of failed operations differs between the sets, or when a metric is
worse; otherwise 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(spec):
    paths = []
    for part in spec.split(","):
        path = Path(part)
        paths.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    runs = {}
    for path in paths:
        record = json.loads(path.read_text().strip().splitlines()[-1])
        if record.get("trace") == 0:
            runs.setdefault(record["workload"], []).append(record)
    for records in runs.values():
        records.sort(key=lambda r: r["seed"])
    return runs


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def label(base, change, lower_better, bound):
    a, b = summary(base), summary(change)
    sign = -1 if lower_better else 1
    pairs = list(zip(base, change))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    if (pairs and wins >= 0.9 * len(pairs)
            and abs(b["median"] - a["median"]) > a["q3"] - a["q1"]):
        return "better"
    worsening = sign * (a["median"] - b["median"]) / a["median"]
    all_worse = all(sign * (y - x) < 0 for x in base for y in change)
    if worsening > bound and (a["spread"] <= bound or all_worse):
        return "worse"
    return "unresolved"


def paired(base_runs, change_runs):
    """Runs of both sets in pairs: by seed when the seed lists match."""
    if [r["seed"] for r in base_runs] == [r["seed"] for r in change_runs]:
        return base_runs, change_runs
    n = min(len(base_runs), len(change_runs))
    return base_runs[:n], change_runs[:n]


def failed_share(runs):
    return (sum(r["result"]["failed"] for r in runs),
            sum(r["result"]["attempted"] for r in runs))


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    sets = [load(a) for a in argv]
    status = 0
    for runs in sets:
        for workload, records in runs.items():
            bad = [r["seed"] for r in records if not r["result"]["correct"]]
            if bad:
                print(f"{workload}: incorrect results for seeds {bad}")
                status = 1
    for workload in sorted(sets[0]):
        base = sets[0][workload]
        change = sets[1].get(workload) if len(sets) == 2 else None
        print(f"{workload}: {len(base)} base runs"
              + (f", {len(change)} change runs" if change else ""))
        if change:
            base, change = paired(base, change)
            fa, aa = failed_share(base)
            fb, ab = failed_share(change)
            if fa * ab != fb * aa:
                print(f"  failed share differs: {fa}/{aa} against {fb}/{ab}")
                status = 1
        for metric in metrics:
            name = metric["name"]
            a = [r["result"]["metrics"][name]["value"] for r in base]
            sa = summary(a)
            line = (f"  {name:<16} {sa['median']:12.5g} [{sa['q1']:.5g}, {sa['q3']:.5g}]"
                    f" spread {sa['spread']:.3f}")
            if change:
                b = [r["result"]["metrics"][name]["value"] for r in change]
                sb = summary(b)
                verdict = label(a, b, metric["better"] == "lower", metric["bound"])
                moved = (sb["median"] - sa["median"]) / sa["median"]
                line += (f" -> {sb['median']:12.5g} [{sb['q1']:.5g}, {sb['q3']:.5g}]"
                         f" spread {sb['spread']:.3f}  {verdict} ({moved:+.1%})")
                if verdict == "worse":
                    status = 1
            else:
                if name != "setup_s" and sa["spread"] > metric["bound"]:
                    line += f"  spread beyond bound {metric['bound']}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
