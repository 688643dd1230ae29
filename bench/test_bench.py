"""The benchmark's own test: every workload at its tiny size, untraced and
traced, must pass every check; the comparison command must accept two
sets of those results.

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace, out):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_checks_pass(workload, trace, tmp_path):
    result = run(workload, 7, trace, tmp_path / "result.json")
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_compare_two_sets(tmp_path):
    for side in ("base", "change"):
        for seed in (1, 2):
            for workload in WORKLOADS:
                run(workload, seed, 0, tmp_path / side / f"{workload}-{seed}.json")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "compare.py"), str(tmp_path / "base"),
         str(tmp_path / "change")],
        cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode in (0, 1), proc.stderr
    for workload in WORKLOADS:
        assert f"{workload}: 2 base runs, 2 change runs" in proc.stdout
    labels = [line.split()[-2] for line in proc.stdout.splitlines()
              if "->" in line]
    assert len(labels) == len(WORKLOADS) * len(SPEC["end_to_end"])
    assert set(labels) <= {"better", "worse", "unresolved"}
    assert "incorrect" not in proc.stdout and "failed share" not in proc.stdout


def test_corpus_is_the_acceptance_corpus():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    from conftest import build_corpus
    import workloads

    assert workloads.acceptance_corpus() == build_corpus()
    assert len(workloads.modal_sweep()) == 1848
