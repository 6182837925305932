import importlib

import gyoja


def test_every_exported_name_resolves():
    modules = [gyoja] + [
        importlib.import_module(f"gyoja.{name}")
        for name in ("cartan", "closed_forms", "distinction", "hecke", "series", "weyl")
    ]
    missing = [(m.__name__, name) for m in modules for name in m.__all__ if not hasattr(m, name)]
    assert missing == []
