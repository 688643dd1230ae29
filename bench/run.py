"""dualtab benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload families|verify|cli --seed N \\
        --seconds S --trace 0|1 [--out FILE]

Run from the root of a source checkout; dualtab is imported from ./src.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See bench/README.md for what each metric means.
"""

import time

# Taken before anything else runs, so that a set-up probe can report when
# its interpreter finished starting.
T_START = time.perf_counter_ns()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, self_times, write  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Set-up probes per run, spread evenly over the measured time.
PROBES = 8
# Fewest whole rounds per run: a per-problem median needs three samples,
# and the traced run alternates untraced and traced rounds.
MIN_ROUNDS = {0: 3, 1: 4}

# Machine speed.  The shared machine runs the same code up to 40% slower in
# some minutes than in others, in CPU time as much as in wall time, and a
# whole run lands in one such stretch.  So a fixed piece of work that no
# change to dualtab can alter is timed between problems at least every
# CALIBRATE_EVERY_NS of a round, and every problem time is scaled by its
# reference time over the calibration's median time in the same round;
# set-up probes are scaled by a bare interpreter start timed just before
# each.  Times are given at one reference speed, about this machine's usual
# one; the unscaled figures are printed on the details line.
CALIBRATE_EVERY_NS = 50_000_000
# The library workloads calibrate with a Python loop; cli, whose time is
# process start-up, with a bare interpreter start.
REFERENCE_NS = {"loop": 1_000_000, "process": 45_000_000}

LAYER_SPANS = ("terms.parse", "terms.prepare", "frontends.encode",
               "engine.search", "engine.extract", "engine.json",
               "semantics.oracle", "semantics.check", "kripke.oracle")


def die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_dualtab():
    """Import dualtab.cli from this checkout's sources; returns the time the
    import took in ns."""
    if not (SRC / "dualtab" / "__init__.py").is_file():
        die(f"no dualtab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    started = time.perf_counter_ns()
    import dualtab.cli  # noqa: F401
    took = time.perf_counter_ns() - started
    if Path(dualtab.cli.__file__).resolve().parent != SRC / "dualtab":
        die(f"imported dualtab from {dualtab.cli.__file__}, not from {SRC}")
    return took


def probe(args):
    """Set-up probe: import, build the inputs, warm up, report, exit."""
    import_ns = load_dualtab()
    import workloads as wl

    problems, warmup = wl.build(args.workload, args.seed, str(SRC), str(ROOT),
                                args.tiny)
    for p in warmup:
        p.solve(wl.NullTracer(), wl.Counts())
    print(json.dumps({"start_ns": T_START, "import_ns": import_ns,
                      "ready_ns": time.perf_counter_ns()}), flush=True)


def run_probe(args, wl):
    """One set-up probe, unscaled and scaled by a bare interpreter start
    timed just before it: start-up is most of a probe's time."""
    argv = [sys.executable, str(BENCH / "run.py"), "--probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    scale = REFERENCE_NS["process"] / calibration_ns("process", wl)
    spawned = time.perf_counter_ns()
    code, out, err, _ = wl.run_process(argv, None, str(ROOT))
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}: {err.strip()[-2000:]}")
    record = json.loads(out.splitlines()[-1])
    raw = {"setup": record["ready_ns"] - spawned,
           "interpreter": record["start_ns"] - spawned,
           "import": record["import_ns"]}
    return raw, {k: v * scale for k, v in raw.items()}


def calibration_ns(kind, wl):
    """Time of one pass of the fixed speed calibration of ``kind``."""
    if kind == "process":
        start = time.perf_counter_ns()
        wl.run_process([sys.executable, "-c", "pass"], None, str(ROOT))
        return time.perf_counter_ns() - start
    # the garbage collector is off, so that the loop's time does not depend
    # on how much the workload left on the heap
    gc.disable()
    try:
        start = time.perf_counter_ns()
        counts = {}
        for i in range(1000):
            key = ((i * 7919) % 1009, i & 15)
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        return time.perf_counter_ns() - start
    finally:
        gc.enable()


def tail_percentile(values):
    """Highest whole percentile with at least ten samples above it, or None
    below forty samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 40:
        return None
    for pct in range(99, 49, -1):
        rank = -(-pct * n // 100)  # nearest-rank index, 1-based
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def measure(args):
    load_dualtab()
    import workloads as wl

    problems, warmup = wl.build(args.workload, args.seed, str(SRC), str(ROOT),
                                args.tiny, replay=bool(args.trace))
    null = wl.NullTracer()
    for p in warmup:
        p.solve(null, wl.Counts())

    budget = args.seconds * 1_000_000_000
    kind = "process" if args.workload == "cli" else "loop"
    samples = {p.pid: [] for p in problems}  # (raw ns, round)
    probes, rounds = [], []
    busy = attempted = failed = 0
    errors = []
    incorrect = []

    def note(kind, pid, exc):
        if len(errors) < 5:
            errors.append(f"{kind} on problem {pid}: "
                          + "".join(traceback.format_exception_only(exc)).strip())

    while busy < budget or len(rounds) < MIN_ROUNDS[args.trace]:
        traced = args.trace == 1 and len(rounds) % 2 == 1
        tr = Tracer() if traced else null
        counts = wl.Counts()
        wall = 0
        calibrations = []
        calibrated = 0
        for p in problems:
            if len(probes) < PROBES and busy + wall >= len(probes) * budget // PROBES:
                probes.append(run_probe(args, wl))
            if not calibrations or time.perf_counter_ns() - calibrated >= CALIBRATE_EVERY_NS:
                calibrations.append(calibration_ns(kind, wl))
                calibrated = time.perf_counter_ns()
            started = time.perf_counter_ns()
            try:
                with tr.problem(p.pid):
                    p.solve(tr, counts)
            except wl.CheckFailed as exc:
                incorrect.append(p.pid)
                note("check failed", p.pid, exc)
            except Exception as exc:  # a failed operation; keep measuring
                failed += 1
                note("error", p.pid, exc)
            took = time.perf_counter_ns() - started
            attempted += 1
            wall += took
            if not traced:
                samples[p.pid].append((took, len(rounds)))
        busy += wall
        rounds.append({"traced": traced, "wall": wall, "counts": counts,
                       "spans": tr.spans if traced else None,
                       "calibration": statistics.median(calibrations),
                       "scale": REFERENCE_NS[kind] / statistics.median(calibrations)})
    while len(probes) < PROBES:
        probes.append(run_probe(args, wl))

    for line in errors:
        print(f"bench: {line}", file=sys.stderr)
    # identical inputs must give identical trees, so every round's counts repeat
    repeat = all(r["counts"] == rounds[0]["counts"] for r in rounds)
    if not repeat:
        print("bench: work counts differ between rounds", file=sys.stderr)
    correct = not incorrect and repeat

    # every time at the speed of the round it was taken in
    scaled = {pid: [t * rounds[r]["scale"] for t, r in ts]
              for pid, ts in samples.items()}
    scaled_probes = [scaled for _, scaled in probes]
    all_samples = [t for ts in scaled.values() for t in ts]
    info = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
            "problems": len(problems), "samples": len(all_samples),
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "calibration_us": [round(r["calibration"] / 1e3, 1) for r in rounds]}
    tail = tail_percentile(all_samples)
    if tail is not None:
        info["tail"] = {"percentile": tail[0], "latency_ms": tail[1] / 1e6}

    if args.trace:
        traced_rounds = [r for r in rounds if r["traced"]]
        metrics, detail = layer_metrics(problems, rounds, traced_rounds,
                                        scaled_probes, list(wl.FAMILY_SIZES))
        info["per_problem"] = detail
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        write(trace_file, [r["spans"] for r in traced_rounds])
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = end_to_end(args, problems, scaled, scaled_probes)
        raw = end_to_end(args, problems,
                         {pid: [t for t, _ in ts] for pid, ts in samples.items()},
                         [raw for raw, _ in probes])
        info["unscaled"] = {k: raw[k]["value"]
                            for k in ("setup_s", "decided_per_s", "latency_p50_ms")}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps({**info, "trace": args.trace,
                                              "result": result}) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, problems, samples, probes):
    typical_round = sum(statistics.median(ts) for ts in samples.values())
    if args.workload == "cli":
        peak_kib = max(p.peak_rss_kib for p in problems)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    all_samples = [t for ts in samples.values() for t in ts]
    return {
        "setup_s": _metric(statistics.median(p["setup"] for p in probes) / 1e9, "s"),
        "decided_per_s": _metric(len(problems) / (typical_round / 1e9), "1/s"),
        "latency_p50_ms": _metric(statistics.median(all_samples) / 1e6, "ms"),
        "peak_rss_mb": _metric(peak_kib / 1024, "MB"),
    }


def layer_metrics(problems, rounds, traced_rounds, probes, families):
    """Per-layer metrics: self time per round (median over traced rounds),
    per-step and per-process costs, and the work counts."""
    family_of = {p.pid: p.family for p in problems}
    per_round = []
    search_by_pid = {}
    process_ns = []
    for r in traced_rounds:
        scale = r["scale"]
        totals = self_times(r["spans"])
        counts = r["counts"]
        search_ns = totals.get("engine.search", 0) * scale
        row = {f"{name}_ms": totals.get(name, 0) * scale / 1e6 for name in LAYER_SPANS}
        row["engine.us_per_step"] = search_ns / 1e3 / max(counts.steps, 1)
        fam_ns = dict.fromkeys(families, 0)
        fam_steps = dict.fromkeys(families, 0)
        for name, start, end, _, pid in r["spans"]:
            took = (end - start) * scale
            if name == "engine.search":
                search_by_pid.setdefault(pid, []).append(took)
                if family_of[pid]:
                    fam_ns[family_of[pid]] += took
            elif name == "cli.process":
                process_ns.append(took)
        for pid, steps in counts.steps_by_pid.items():
            if family_of[pid]:
                fam_steps[family_of[pid]] += steps
        for fam in families:
            row[f"engine.us_per_step.{fam}"] = (fam_ns[fam] / 1e3 / fam_steps[fam]
                                                if fam_steps[fam] else 0.0)
        per_round.append(row)

    metrics = {}
    for name in per_round[0]:
        unit = "us" if name.startswith("engine.us_per_step") else "ms"
        metrics[name] = _metric(statistics.median(row[name] for row in per_round), unit)
    counts = traced_rounds[0]["counts"]
    metrics["terms.nodes"] = _metric(counts.nodes, "count")
    metrics["engine.steps"] = _metric(counts.steps, "count")
    metrics["engine.branches"] = _metric(counts.branches, "count")
    metrics["engine.variables"] = _metric(counts.variables, "count")
    metrics["engine.json_kb"] = _metric(counts.json_bytes / 1024, "kB")
    metrics["semantics.oracle_calls"] = _metric(counts.oracle_calls, "count")
    metrics["semantics.checked_formulas"] = _metric(counts.checked_formulas, "count")
    metrics["cli.interpreter_ms"] = _metric(
        statistics.median(p["interpreter"] for p in probes) / 1e6, "ms")
    metrics["cli.import_ms"] = _metric(
        statistics.median(p["import"] for p in probes) / 1e6, "ms")
    metrics["cli.process_ms"] = _metric(
        statistics.median(process_ns) / 1e6 if process_ns else 0.0, "ms")
    plain = statistics.median(r["wall"] * r["scale"] for r in rounds if not r["traced"])
    traced = statistics.median(r["wall"] * r["scale"] for r in traced_rounds)
    metrics["trace.overhead_ms"] = _metric((traced - plain) / 1e6, "ms")

    detail = []
    for p in problems if len(problems) <= 50 else ():
        steps = counts.steps_by_pid.get(p.pid, 0)
        ns = statistics.median(search_by_pid[p.pid]) if p.pid in search_by_pid else 0
        detail.append({"problem": p.label, "steps": steps,
                       "search_ms": ns / 1e6,
                       "us_per_step": ns / 1e3 / steps if steps else None})
    return metrics, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("families", "verify", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the result, with run details, here")
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the benchmark's own test")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.probe:
        probe(args)
    else:
        measure(args)


if __name__ == "__main__":
    main()
