import ast
import importlib
from pathlib import Path

import gyoja


def test_every_exported_name_resolves():
    modules = [gyoja] + [
        importlib.import_module(f"gyoja.{name}")
        for name in ("cartan", "closed_forms", "counting", "distinction", "hecke", "limits", "series", "weyl")
    ]
    missing = [(m.__name__, name) for m in modules for name in m.__all__ if not hasattr(m, name)]
    assert missing == []


def test_lazy_names_are_the_defining_modules_objects():
    # gyoja resolves the counting, weyl and hecke names through its module __getattr__.
    for name, module in gyoja._LAZY.items():
        assert name in gyoja.__all__ and name in dir(gyoja)
        assert getattr(gyoja, name) is getattr(importlib.import_module(f"gyoja.{module}"), name)
    assert gyoja.ResourceLimitExceeded is gyoja.weyl.ResourceLimitExceeded
    assert gyoja.weyl.element_cap is gyoja.limits.element_cap


def test_no_module_imports_a_private_name_of_another():
    # an underscored name belongs to its module: a second module that needs
    # it gets a public name, so the dependency shows in the interface
    found = []
    for path in sorted(Path(gyoja.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("gyoja")):
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                ]
    assert found == []
