"""The four benchmark workloads, their sizes and their output oracles.

Shared by the orchestrator (``run.py``), which runs the CLI operations as
child processes, and the in-process runner (``inproc.py``), which runs the
same operations through ``gyoja.cli.main`` for the traced passes and runs
hecke-reps in every mode.  Nothing here imports gyoja.

Each workload exists at two scales: ``full`` is what the benchmark measures,
``tiny`` is what the smoke test runs.  The seed only affects hecke-reps; the
CLI workloads are fixed mathematical instances.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS: dict[str, str] = json.loads((HERE / "digests.json").read_text())

# How much output the oracles keep in memory besides the digest.
HEAD_BYTES = 1 << 16


@dataclass(frozen=True)
class Op:
    """One CLI invocation, its oracle and the work items it completes."""

    args: tuple[str, ...]
    oracle: str  # "digest", "identical", "exit0" or "version"
    items: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.args)


def _op(command: str, oracle: str, items: int = 0) -> Op:
    return Op(tuple(command.split()), oracle, items)


VERSION_OP = _op("--version", "version")

# Items: elements for ball-export and ball-check, expanded coefficients for
# forms.  They are properties of the instances, fixed by the digests.
CLI_WORKLOADS: dict[str, dict[str, list[Op]]] = {
    "ball-export": {
        "full": [_op("enumerate --type C3 --degree 45 --format jsonl", "digest", 50341)],
        "tiny": [_op("enumerate --type C3 --degree 6 --format jsonl", "digest", 161)],
    },
    "ball-check": {
        "full": [
            _op("check --type E8 --degree 10", "identical", 68224),
            _op("check --type F4 --degree 28", "identical", 84629),
            _op("check --type C4 --degree 30", "identical", 134062),
        ],
        "tiny": [
            _op("check --type E8 --degree 4", "identical", 660),
            _op("check --type F4 --degree 6", "identical", 341),
            _op("check --type C4 --degree 6", "identical", 372),
        ],
    },
    "forms": {
        "full": [
            _op("expand --type C4 --degree 60", "digest", 1778),
            _op("expand --type C3 --degree 90", "digest", 2887),
            _op("expand --type F4 --degree 80", "digest", 708),
            _op("classify --all-types --qo 2,3,4,5,7 --expect-paper", "exit0"),
        ],
        "tiny": [
            _op("expand --type C4 --degree 10", "digest", 95),
            _op("expand --type C3 --degree 10", "digest", 80),
            _op("expand --type F4 --degree 10", "digest", 49),
            _op("classify --all-types --qo 2,3,4,5,7 --expect-paper", "exit0"),
        ],
    },
}

# hecke-reps: representations per type on balls of the given radius.  Nine
# per type is one of each (dimension, q_o) pair of reps.DIMENSIONS x reps.Q_OS.
HECKE_SIZES = {
    "full": {"types": ("C2", "G2"), "radius": 16, "per_type": 9},
    "tiny": {"types": ("C2", "G2"), "radius": 4, "per_type": 1},
}

WORKLOADS = ("ball-export", "ball-check", "forms", "hecke-reps")


class Capture:
    """Running sha256, byte count and head of one operation's stdout."""

    def __init__(self) -> None:
        self.hash = hashlib.sha256()
        self.bytes = 0
        self.head = bytearray()

    def add(self, chunk: bytes) -> None:
        self.hash.update(chunk)
        self.bytes += len(chunk)
        if len(self.head) < HEAD_BYTES:
            self.head += chunk[: HEAD_BYTES - len(self.head)]


def oracle_failure(op: Op, exit_code: int, capture: Capture) -> str | None:
    """Why the operation's output is wrong, or None when it passes."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if op.oracle == "digest":
        expected = DIGESTS.get(op.key)
        if expected is None:
            return "no reference digest recorded"
        if capture.hash.hexdigest() != expected:
            return "stdout digest differs from the reference"
    elif op.oracle == "identical":
        if not any(line.startswith(b"identical:") for line in capture.head.splitlines()):
            return "no 'identical:' line"
    elif op.oracle == "version":
        if not capture.head.startswith(b"gyoja "):
            return "no version line"
    return None
