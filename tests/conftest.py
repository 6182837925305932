import json
import os
import pathlib
import signal
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

# pytest finds the package through ``pythonpath`` in pyproject.toml; the CLI
# tests' child processes find it through PYTHONPATH.
_SRC = str(pathlib.Path(__file__).parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

from gyoja.cartan import build_affine_system, parse_cartan_type
from gyoja.weyl import enumerate_ball

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

# Per-test time limit, so that a hang fails one test instead of the run; the
# slowest test takes a few seconds.
TEST_TIME_LIMIT_S = 120


def _time_limit_passed(signum, frame):
    raise TimeoutError(f"test still running after {TEST_TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def _time_limit():
    if not hasattr(signal, "SIGALRM"):  # not on Windows
        yield
        return
    previous = signal.signal(signal.SIGALRM, _time_limit_passed)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

_BALLS: dict[tuple[str, int], object] = {}


def get_ball(label: str, radius: int):
    """Session-cached ball; reuses the largest one enumerated for the type."""
    for (lbl, r), ball in _BALLS.items():
        if lbl == label and r >= radius:
            return ball
    system = build_affine_system(parse_cartan_type(label))
    ball = enumerate_ball(system, radius)
    _BALLS[(label, radius)] = ball
    return ball


@pytest.fixture(scope="session")
def ball():
    return get_ball


@pytest.fixture(scope="session")
def golden_counts():
    with open(GOLDEN_DIR / "counts.json", encoding="utf-8") as fp:
        return json.load(fp)


def system_of(label: str):
    return build_affine_system(parse_cartan_type(label))
