"""Seeded mutation sample: how many single-site mutants of the library does tier-1 kill?

Each seed draws one mutation site uniformly over every site of the chosen
modules of ``src/gyoja``, copies the tree to a temporary directory, applies
that one mutation there through the AST, and runs tier-1 on the copy with
``-x`` and a limit of ``TIMEOUT_S`` seconds.  A site is one of:

* a comparison flip: ``<`` <-> ``<=``, ``>`` <-> ``>=``, ``==`` <-> ``!=``,
  ``is`` <-> ``is not``, ``in`` <-> ``not in``;
* ``+`` <-> ``-`` and ``*`` <-> ``//``, in a binary operation or an augmented
  assignment;
* an integer constant + 1, or one - 1 (two sites per constant).

The mutated module is written back with ``ast.unparse``, which drops comments
and reformats.  So before any mutant, the control runs tier-1 on a copy with
the chosen modules only unparsed; if that fails, nothing else runs and the
exit code is 1.  Then one JSON line per mutant is printed, in seed order:
seed, module, line, mutation and outcome (``killed``, ``survived`` or
``timeout``).  At most ``--workers`` test runs go at once.

Usage::

    python tools/mutation_sample.py --modules cartan,closed_forms --seeds 0-19
    python tools/mutation_sample.py --seeds 0,5,9 --workers 2

The tool is outside tier-1 (``testpaths`` is ``tests``); its operators are
unit-tested in ``tests/test_mutation_sample.py``.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "gyoja"
TIER_1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
TIMEOUT_S = 600  # per tier-1 run; an unmutated run takes about 25 s

_COMPARISON_FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}
_OPERATOR_SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult}
_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=", ast.Is: "is",
    ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in", ast.Add: "+", ast.Sub: "-", ast.Mult: "*",
    ast.FloorDiv: "//",
}


def sites(source: str) -> list[tuple[int, int, int, str]]:
    """Every mutation site of a module: (node index in ``ast.walk`` order, slot, line, description).

    The slot is the operator's index in a comparison, or the step, +1 or -1,
    of an integer constant; 0 for an operator swap.
    """
    out = []
    for index, node in enumerate(ast.walk(ast.parse(source))):
        if isinstance(node, ast.Compare):
            for slot, op in enumerate(node.ops):
                flipped = _COMPARISON_FLIPS[type(op)]
                out.append((index, slot, node.lineno, f"{_SYMBOLS[type(op)]} -> {_SYMBOLS[flipped]}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _OPERATOR_SWAPS:
            swapped = _OPERATOR_SWAPS[type(node.op)]
            out.append((index, 0, node.lineno, f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[swapped]}"))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                out.append((index, step, node.lineno, f"{node.value} -> {node.value + step}"))
    return out


def mutate(source: str, index: int, slot: int) -> str:
    """The module with the one site (``index``, ``slot``) of :func:`sites` mutated, unparsed."""
    tree = ast.parse(source)
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == index)
    if isinstance(node, ast.Compare):
        node.ops[slot] = _COMPARISON_FLIPS[type(node.ops[slot])]()
    elif isinstance(node, ast.Constant):
        node.value += slot
    else:
        node.op = _OPERATOR_SWAPS[type(node.op)]()
    return ast.unparse(tree)


def _copy_tree(target: Path) -> None:
    ignored = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "out", ".bench_build")
    shutil.copytree(ROOT, target, ignore=ignored)


def run_tier_1(rewrites: dict[str, str]) -> str:
    """Tier-1 on a copy of the tree with ``rewrites`` (module name -> source): killed, survived or timeout."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        _copy_tree(tree)
        for module, text in rewrites.items():
            (tree / PACKAGE / f"{module}.py").write_text(text + "\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONPATH"] = str(tree / "src")
        child = subprocess.Popen(
            TIER_1, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
        )
        try:
            code = child.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)  # pytest and every process it started
            child.wait()
            return "timeout"
    return "survived" if code == 0 else "killed"


def _seeds(text: str) -> list[int]:
    out = []
    for field in text.split(","):
        lo, _, hi = field.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    every = sorted(p.stem for p in (ROOT / PACKAGE).glob("*.py") if p.stem != "__init__")
    parser.add_argument("--modules", default=",".join(every), help="comma-separated modules of src/gyoja")
    parser.add_argument("--seeds", default="0-19", help="seeds, as ranges and single values: 0-19 or 0,5,9")
    parser.add_argument("--workers", type=int, default=1, help="test runs at once (default 1)")
    args = parser.parse_args(argv)
    modules = args.modules.split(",")
    if not set(modules) <= set(every) or args.workers < 1:
        parser.error(f"modules must be among {','.join(every)}, and --workers at least 1")
    sources = {m: (ROOT / PACKAGE / f"{m}.py").read_text() for m in modules}
    control = run_tier_1({m: ast.unparse(ast.parse(text)) for m, text in sources.items()})
    if control != "survived":
        print(f"control: the unparsed tree does not pass tier-1 ({control})", file=sys.stderr)
        return 1
    everywhere = [(m, *site) for m in modules for site in sites(sources[m])]
    drawn = {seed: everywhere[random.Random(seed).randrange(len(everywhere))] for seed in _seeds(args.seeds)}

    def run(seed: int) -> dict:
        module, index, slot, line, mutation = drawn[seed]
        outcome = run_tier_1({module: mutate(sources[module], index, slot)})
        return {"seed": seed, "module": module, "line": line, "mutation": mutation, "outcome": outcome}

    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        for record in pool.map(run, drawn):
            print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
