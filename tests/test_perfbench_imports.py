"""The benchmark scripts under ``perfbench/`` name only what the package has.

The tier-1 suite never runs the benchmark, so a deleted or renamed public
name would only show when the benchmark is next run.  This test reads each
script with ``ast`` instead: every ``from gyoja... import X`` must resolve,
and so must every attribute chain read through a name bound that way (such
as ``hecke.gyoja_series`` or ``hecke.MatrixRep.make``).  The span targets of
``perfbench/spans.py`` are strings looked up at run time, where a missing
one is skipped by design, so they are not checked here.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = sorted(PERFBENCH.glob("*.py"))

Reference = tuple[str, tuple[str, ...]]  # (module, attribute chain)


def _is_gyoja(module: str | None) -> bool:
    return module is not None and (module == "gyoja" or module.startswith("gyoja."))


def _chain(node: ast.Attribute) -> list[str] | None:
    """``a.b.c`` as ["a", "b", "c"]; None unless the chain starts at a plain name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None


def gyoja_references(path: Path) -> list[tuple[Reference, int]]:
    """Each gyoja import of a script and each attribute chain read through one, with its line."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound: dict[str, Reference] = {}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_gyoja(node.module):
            for alias in node.names:
                bound[alias.asname or alias.name] = ref = (node.module, (alias.name,))
                refs.append((ref, node.lineno))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_gyoja(alias.name):
                    module = alias.name if alias.asname else alias.name.split(".")[0]
                    bound[alias.asname or module] = ref = (module, ())
                    refs.append(((alias.name, ()), node.lineno))
    for node in ast.walk(tree):
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in bound:
            module, attrs = bound[chain[0]]
            refs.append(((module, attrs + tuple(chain[1:])), node.lineno))
    return refs


def resolve(ref: Reference):
    module, attrs = ref
    obj = importlib.import_module(module)
    for attr in attrs:
        if isinstance(obj, ModuleType) and not hasattr(obj, attr):
            obj = importlib.import_module(f"{obj.__name__}.{attr}")  # a submodule not yet imported
        else:
            obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("path", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_perfbench_names_resolve(path):
    missing = []
    for (module, attrs), line in gyoja_references(path):
        try:
            resolve((module, attrs))
        except (AttributeError, ImportError):
            missing.append(f"{path.name}:{line}: {module}:{'.'.join(attrs)}")
    assert not missing, "perfbench names what the package lacks:\n" + "\n".join(missing)


def test_reference_scan_sees_the_known_uses():
    refs = {ref for path in SCRIPTS for ref, _ in gyoja_references(path)}
    assert {
        ("gyoja", ("hecke", "gyoja_series")),
        ("gyoja", ("hecke", "MatrixRep", "make")),
        ("gyoja", ("cli", "main")),
        ("gyoja.series", ("one",)),
        ("gyoja.series", ("TruncatedSeries",)),
    } <= refs
    with pytest.raises(AttributeError):
        resolve(("gyoja.series", ("TruncatedSeries", "no_such_method")))
