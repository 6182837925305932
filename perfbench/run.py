#!/usr/bin/env python3
"""gyoja benchmark: four closed-loop workloads, end to end and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload ball-check --seed 1 --seconds 30 --trace 0

One client runs each workload's operations one after another, at most one
child process at a time.  ``--trace 0`` runs the CLI operations as child
processes (hecke-reps as one child process per type running ``inproc.py``) and
reports the end-to-end metrics; ``--trace 1`` alternates traced and
untraced in-process passes and reports the per-layer metrics.  A pass is
repeated while the next one still fits in ``--seconds``; each metric is the
median over the passes.  The last line of stdout is the result object; the
lines before it give the machine facts and the sample counts, and the same
record is written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

GYOJA_MAIN = "import sys\nfrom gyoja.cli import main\nsys.exit(main())"
SETUP_REPEATS = 7
DEADLINE_S = 170.0  # every child is killed by then, so a run ends within 180 s
STARTED = perf_counter()


class Child:
    """Outcome of one child process: timings, rusage and captured stdout."""

    def __init__(self, argv: list[str], env: dict[str, str]) -> None:
        self.capture = workloads.Capture()
        self.first = None
        t0 = perf_counter()
        with open(OUT / "child.stderr", "w+b") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
            killer = threading.Timer(max(1.0, DEADLINE_S - (t0 - STARTED)), proc.kill)
            killer.start()
            try:
                fd = proc.stdout.fileno()
                while chunk := os.read(fd, 1 << 16):
                    if self.first is None:
                        self.first = perf_counter() - t0
                    self.capture.add(chunk)
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall = perf_counter() - t0
            proc.returncode = self.code = os.waitstatus_to_exitcode(status)
            self.cpu = usage.ru_utime + usage.ru_stime
            self.rss_mb = usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux
            err.seek(0)
            self.stderr = err.read()[-2000:].decode("utf-8", "replace")

    def last_json(self) -> dict:
        lines = self.capture.head.decode("utf-8", "replace").strip().splitlines()
        return json.loads(lines[-1])


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, name: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{name}: {error}")


def child_env() -> dict[str, str]:
    # Inherited PYTHON* settings such as PYTHONUNBUFFERED would change how the
    # CLI writes its output, so children get only the ones set here.
    env = {k: v for k, v in os.environ.items() if not k.startswith(("GYOJA_", "PYTHON"))}
    env.update(PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8", PYTHONHASHSEED="0")
    return env


def gyoja(args: tuple[str, ...], env) -> Child:
    return Child([sys.executable, "-c", GYOJA_MAIN, *args], env)


def inproc(args: argparse.Namespace, env, trace: int, spans_path: Path | None = None, types: str | None = None) -> Child:
    argv = [
        sys.executable, str(HERE / "inproc.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale, "--trace", str(trace),
    ]
    if spans_path is not None:
        argv += ["--spans", str(spans_path)]
    if types is not None:
        argv += ["--types", types]
    return Child(argv, env)


def child_failure(child: Child) -> str | None:
    if child.code != 0:
        return f"exit code {child.code}: {child.stderr.strip()[-300:]}"
    return None


def time_left(start: float, seconds: float, passes: int) -> bool:
    """True when one more pass of the mean length still ends within ``seconds``."""
    now = perf_counter()
    if now - STARTED > DEADLINE_S - 10:
        return False
    elapsed = now - start
    return elapsed + elapsed / passes <= seconds


def inproc_pass(args, env, tally: Tally, trace: int, spans_path=None, types=None) -> tuple[Child, dict | None]:
    """One child running inproc.py; its operations go into the tally."""
    child = inproc(args, env, trace, spans_path, types)
    error = child_failure(child)
    if error is not None:
        tally.record(f"{args.workload} pass", error)
        return child, None
    result = child.last_json()
    for op in result["ops"]:
        tally.record(op["op"], op["error"])
    return child, result


def run_untraced(args, env, tally: Tally) -> tuple[dict, dict]:
    passes = []
    setups = []
    if args.workload != "hecke-reps":
        for _ in range(SETUP_REPEATS):
            child = gyoja(workloads.VERSION_OP.args, env)
            tally.record("--version", workloads.oracle_failure(workloads.VERSION_OP, child.code, child.capture))
            setups.append(child.wall)
    start = perf_counter()
    while True:
        children = []
        if args.workload == "hecke-reps":
            # One child per type, so that each pass has two starts to time.
            types = workloads.HECKE_SIZES[args.scale]["types"]
            results = []
            for label in types:
                child, result = inproc_pass(args, env, tally, trace=0, types=label)
                if result is None:
                    break
                children.append(child)
                results.append(result)
            if len(results) < len(types):
                break
            setups.append(sum(r["setup_s"] for r in results))
            wall = sum(r["wall_s"] for r in results)
            items = sum(r["items"] for r in results)
        else:
            ops = workloads.CLI_WORKLOADS[args.workload][args.scale]
            t0 = perf_counter()
            for op in ops:
                child = gyoja(op.args, env)
                tally.record(op.key, workloads.oracle_failure(op, child.code, child.capture))
                children.append(child)
            wall = perf_counter() - t0
            items = sum(op.items for op in ops)
        passes.append(
            {
                "wall": wall,
                "cpu": sum(c.cpu for c in children),
                "rss": max(c.rss_mb for c in children),
                "first": sum(c.first if c.first is not None else c.wall for c in children),
                "items": items,
            }
        )
        if not time_left(start, args.seconds, len(passes)):
            break
    if not passes or not setups:
        return {}, {"passes": len(passes), "setups": len(setups)}
    wall = statistics.median(p["wall"] for p in passes)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss"] for p in passes),
        "setup_s": statistics.median(setups),
        "first_line_s": statistics.median(p["first"] for p in passes),
        "work_per_s": passes[0]["items"] / wall,
    }
    return metrics, {"passes": len(passes), "setups": len(setups), "per_pass": passes}


def run_traced(args, env, tally: Tally, names: list[str]) -> tuple[dict, dict]:
    traced: list[dict] = []
    traced_walls: list[float] = []
    untraced_walls: list[float] = []
    for old in OUT.glob(f"spans-{args.workload}-*.jsonl"):
        old.unlink()
    start = perf_counter()
    k = 0
    while True:
        trace = 1 - k % 2  # traced, untraced, traced, ...
        path = OUT / f"spans-{args.workload}-{k}.jsonl" if trace else None
        _, result = inproc_pass(args, env, tally, trace, path)
        k += 1
        if result is None:
            break
        if trace:
            traced.append(spans.layer_metrics(spans.read_spans(path), names))
            traced_walls.append(result["wall_s"])
        else:
            untraced_walls.append(result["wall_s"])
        if k >= 3 and not time_left(start, args.seconds, k):
            break
    if len(traced) < 2 or not untraced_walls:
        return {}, {"traced_passes": len(traced), "untraced_passes": len(untraced_walls)}
    # Exact counts must repeat between traced passes; times are medians.
    metrics = {}
    for name, value in traced[0].items():
        values = [t[name] for t in traced]
        if name.endswith("_s") or name.endswith(".s"):
            metrics[name] = statistics.median(values)
        else:
            if any(v != value for v in values):
                tally.record(f"count {name}", f"differs between traced passes: {values}")
            metrics[name] = value
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics, {"traced_passes": len(traced), "untraced_passes": len(untraced_walls)}


def machine_facts(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "loadavg_start": list(os.getloadavg()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is for the smoke test")
    args = parser.parse_args()

    if not (SRC / "gyoja" / "cli.py").is_file():
        print(f"error: no gyoja source tree at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    facts = machine_facts(args)
    env = child_env()
    tally = Tally()
    if args.trace:
        values, samples = run_traced(args, env, tally, [m["name"] for m in wanted])
    else:
        values, samples = run_untraced(args, env, tally)
    if tally.attempted:
        values["ops_ok"] = (tally.attempted - tally.failed) / tally.attempted
    facts["loadavg_end"] = list(os.getloadavg())

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing or tally.attempted == 0:
        for message in tally.messages:
            print(f"failed: {message}", file=sys.stderr)
        print(f"error: no measurement for {missing or 'any operation'}", file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"facts": facts, "samples": samples, "failures": tally.messages, "result": result}
    (OUT / f"run-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for message in tally.messages:
        print(f"failed: {message}", file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(json.dumps({"samples": {k: v for k, v in samples.items() if k != "per_pass"}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
