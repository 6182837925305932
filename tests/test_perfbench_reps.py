"""The benchmark's hecke-reps cases and their oracle, run small.

``perfbench/test_smoke.py`` lies outside the tier-1 test paths, so a
series operation that only the benchmark's oracle uses (``+`` and a scalar
``*`` on ``TruncatedSeries``) would otherwise break unseen until the
benchmark runs.  This test loads ``perfbench/reps.py`` by path, without
changing it, and runs its oracle on a few cases of small balls.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from gyoja.hecke import gyoja_series, validate_rep

REPS = Path(__file__).resolve().parent.parent / "perfbench" / "reps.py"


@pytest.fixture(scope="module")
def reps():
    spec = importlib.util.spec_from_file_location("perfbench_reps", REPS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up there
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_benchmark_reps_validate_and_pass_their_oracle(reps):
    cases = reps.generate(7, types=("C2", "G2"), radius=4, per_type=3)
    assert [(case.label, len(case.signs)) for case in cases] == [(label, d) for label in ("C2", "G2") for d in (1, 2, 3)]
    for case in cases:
        assert validate_rep(case.rep, case.system).ok
        assert reps.oracle_failure(case, gyoja_series(case.ball, case.rep)) is None
