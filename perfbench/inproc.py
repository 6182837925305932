"""Run one pass of a workload inside this process, traced or not.

Usage (from the repository root, with ``src`` on PYTHONPATH)::

    python3 perfbench/inproc.py --workload forms --seed 1 --trace 1 --spans out.jsonl

For ball-export, ball-check and forms each operation is a call of
``gyoja.cli.main(argv)`` with stdout replaced by a hashing sink, so the
output oracles see the same bytes a child process would print.  hecke-reps
has no CLI command: its setup enumerates the balls and generates the seeded
representations, and its timed section validates each representation and
forms its matrix generating series.  ``--types C2`` limits it to one of the
types, as the untraced hecke-reps passes do.

The last line of stdout is one JSON object with the pass's timings and the
oracle outcome of every operation.  With ``--trace 1`` the spans of the
timed section are written to ``--spans`` when the pass ends.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

import workloads
from spans import Tracer


class HashSink:
    """Text stream that hashes and counts what is written instead of printing it."""

    def __init__(self) -> None:
        self.capture = workloads.Capture()

    @property
    def bytes(self) -> int:
        return self.capture.bytes

    def write(self, text: str) -> int:
        self.capture.add(text.encode("utf-8"))
        return len(text)

    def flush(self) -> None:
        pass


def cli_pass(workload: str, scale: str, tracer: Tracer | None) -> dict:
    from gyoja import cli

    if tracer:
        tracer.install()
    ops = workloads.CLI_WORKLOADS[workload][scale]
    results = []
    start = perf_counter()
    if tracer:
        tracer.active = True
    for op_id, op in enumerate(ops):
        sink = HashSink()
        saved, sys.stdout = sys.stdout, sink
        if tracer:
            tracer.op = op_id
        try:
            code = cli.main(list(op.args))
        except SystemExit as exc:  # argparse exits on --version and --help
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # report the operation as failed, keep going
            code = f"{type(exc).__name__}: {exc}"
        finally:
            sys.stdout = saved
        error = code if isinstance(code, str) else workloads.oracle_failure(op, code, sink.capture)
        results.append({"op": op.key, "error": error})
    wall = perf_counter() - start
    if tracer:
        tracer.active = False
    return {
        "wall_s": wall,
        "items": sum(op.items for op in ops),
        "ops": results,
    }


def hecke_pass(seed: int, scale: str, types: tuple[str, ...] | None, tracer: Tracer | None) -> dict:
    t0 = perf_counter()
    import reps
    from gyoja import hecke

    sizes = dict(workloads.HECKE_SIZES[scale])
    if types:
        sizes["types"] = types
    cases = reps.generate(seed, **sizes)
    setup = perf_counter() - t0
    if tracer:
        tracer.install()
        tracer.active = True
    outputs = []
    start = perf_counter()
    for op_id, case in enumerate(cases):
        if tracer:
            tracer.op = op_id
        try:
            report = hecke.validate_rep(case.rep, case.system)
            series = hecke.gyoja_series(case.ball, case.rep)
            outputs.append((None if report.ok else f"validation: {report}", series))
        except Exception as exc:  # report the operation as failed, keep going
            outputs.append((f"{type(exc).__name__}: {exc}", None))
        if op_id == 0:
            # The parent times the first byte on this pipe as first_line_s.
            print("first series done", flush=True)
    wall = perf_counter() - start
    if tracer:
        tracer.active = False
    results = []
    for case, (error, series) in zip(cases, outputs):
        if error is None:
            error = reps.oracle_failure(case, series)
        name = f"{case.label} dim {len(case.signs)} q_o {case.q_o}"
        results.append({"op": name, "error": error})
    return {
        "setup_s": setup,
        "wall_s": wall,
        "items": sum(case.ball.total for case in cases),
        "ops": results,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where a traced pass writes its spans")
    parser.add_argument("--types", default=None, help="hecke-reps: comma-separated subset of the types")
    args = parser.parse_args()
    if args.trace and not args.spans:
        parser.error("--trace 1 needs --spans")
    tracer = Tracer() if args.trace else None
    if args.workload == "hecke-reps":
        types = tuple(args.types.split(",")) if args.types else None
        result = hecke_pass(args.seed, args.scale, types, tracer)
    else:
        result = cli_pass(args.workload, args.scale, tracer)
    if tracer:
        tracer.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
