"""The benchmark's hecke-reps cases and their oracle, run small.

``perfbench/test_smoke.py`` lies outside the tier-1 test paths, so a
series operation that only the benchmark's oracle uses (``+`` and a scalar
``*`` on ``TruncatedSeries``) would otherwise break unseen until the
benchmark runs.  This test loads ``perfbench/reps.py`` by path, without
changing it, and runs its oracle on a few cases of small balls and on the
benchmark's own full-scale cases.  The last test runs the benchmark's
hecke-reps child, ``perfbench/inproc.py``, at its tiny scale, so a change to
what :mod:`gyoja.hecke` hands that script fails here rather than only when
the benchmark checks its outputs.  The CLI workloads' children (ball-export,
ball-check and forms) run the same way.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gyoja.hecke import gyoja_series, validate_rep

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def reps():
    module = _load("reps")
    yield module
    del sys.modules[module.__name__]


@pytest.fixture(scope="module")
def workloads():
    module = _load("workloads")
    yield module
    del sys.modules[module.__name__]


def test_benchmark_reps_validate_and_pass_their_oracle(reps):
    cases = reps.generate(7, types=("C2", "G2"), radius=4, per_type=3)
    assert [(case.label, len(case.signs)) for case in cases] == [(label, d) for label in ("C2", "G2") for d in (1, 2, 3)]
    for case in cases:
        assert validate_rep(case.rep, case.system).ok
        assert reps.oracle_failure(case, gyoja_series(case.ball, case.rep)) is None


def test_benchmark_full_cases_validate_and_pass_their_oracle(reps, workloads):
    cases = reps.generate(1, **workloads.HECKE_SIZES["full"])
    assert len(cases) == 18
    for case in cases:
        assert validate_rep(case.rep, case.system).ok
        assert reps.oracle_failure(case, gyoja_series(case.ball, case.rep)) is None


def _assert_child_runs_clean(workload: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    args = [sys.executable, "perfbench/inproc.py", "--workload", workload, "--seed", "1", "--scale", "tiny"]
    proc = subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["ops"] and [op["error"] for op in result["ops"]] == [None] * len(result["ops"])


def test_benchmark_hecke_reps_child_runs_clean():
    _assert_child_runs_clean("hecke-reps")


@pytest.mark.parametrize("workload", ["ball-export", "ball-check", "forms"])
def test_benchmark_cli_workload_child_runs_clean(workload):
    # these children run gyoja.cli.main in process, so a changed command,
    # option or exit code fails here as it would in the benchmark
    _assert_child_runs_clean(workload)
