"""Smoke test of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs untraced and traced at the ``tiny`` scale.  The test
checks that each metric named in BENCHMARK.json is emitted with its unit,
that every output oracle passes, and that two traced runs report the same
exact counts.  A last case checks that the oracles catch a wrong digest and
a wrong matrix series.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny",
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_emits_every_end_to_end_metric(workload):
    result = run_bench(workload, trace=0)
    check_result(result, SPEC["end_to_end"])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["ops_ok"] == 1.0
    for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "first_line_s", "work_per_s"):
        assert values[name] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_between_runs(workload):
    first, second = run_bench(workload, trace=1), run_bench(workload, trace=1)
    for result in (first, second):
        check_result(result, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }
    assert first["metrics"]["trace.spans"]["value"] > 0


def test_traced_layers_are_reached():
    forms = run_bench("forms", trace=1)["metrics"]
    assert forms["closed_forms.expand.terms"]["value"] > 0
    assert forms["series.mul.calls"]["value"] > 0
    assert forms["distinction.verdicts"]["value"] > 0
    check = run_bench("ball-check", trace=1)["metrics"]
    # The F4 and C4 checks each enumerate their radius-6 ball a second time to calibrate.
    assert check["weyl.elements"]["value"] == 660 + 2 * (341 + 372)
    assert check["kernels.expand_frontier.calls"]["value"] > 0
    export = run_bench("ball-export", trace=1)["metrics"]
    assert export["weyl.export_jsonl.lines"]["value"] == 161
    hecke = run_bench("hecke-reps", trace=1)["metrics"]
    assert hecke["hecke.rep_elements"]["value"] == 28 + 25
    assert hecke["hecke.eval_rep_on_word.calls"]["value"] == 28 + 25


def test_oracles_reject_wrong_output():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import reps
        import workloads
        from gyoja import hecke
        from gyoja.series import one

        op = workloads.CLI_WORKLOADS["forms"]["tiny"][0]
        capture = workloads.Capture()
        capture.add(b"1 + t1\n")
        assert workloads.oracle_failure(op, 0, capture) is not None
        assert workloads.oracle_failure(op, 3, capture) == "exit code 3"

        case = reps.generate(1, ("C2",), 3, 2)[1]  # dimension 2
        series = hecke.gyoja_series(case.ball, case.rep)
        assert reps.oracle_failure(case, series) is None
        series[0, 0] = series[0, 0] + one(case.system.m, case.ball.radius)
        assert reps.oracle_failure(case, series) is not None
    finally:
        del sys.path[:2]
