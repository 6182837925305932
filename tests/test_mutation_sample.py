"""The operators of ``tools/mutation_sample.py``, each applied to a small source."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import mutation_sample  # noqa: E402

SOURCE = "def f(a, b):\n    a += 2\n    if a < b and a in (b,):\n        return a * b - 1\n    return a // b\n"


def test_sites_cover_every_operator_once_per_slot():
    found = [(line, mutation) for _, _, line, mutation in mutation_sample.sites(SOURCE)]
    assert sorted(found) == sorted(
        [
            (2, "+ -> -"),
            (2, "2 -> 3"),
            (2, "2 -> 1"),
            (3, "< -> <="),
            (3, "in -> not in"),
            (4, "- -> +"),
            (4, "* -> //"),
            (4, "1 -> 2"),
            (4, "1 -> 0"),
            (5, "// -> *"),
        ]
    )


@pytest.mark.parametrize(
    "mutation, expected",
    [
        ("+ -> -", "a -= 2"),
        ("2 -> 3", "a += 3"),
        ("2 -> 1", "a += 1"),
        ("< -> <=", "if a <= b and a in (b,):"),
        ("in -> not in", "if a < b and a not in (b,):"),
        ("- -> +", "return a * b + 1"),
        ("* -> //", "return a // b - 1"),
        ("1 -> 2", "return a * b - 2"),
        ("1 -> 0", "return a * b - 0"),
        ("// -> *", "return a * b"),
    ],
)
def test_each_mutation_changes_only_its_site(mutation, expected):
    (index, slot), = [(i, s) for i, s, _, m in mutation_sample.sites(SOURCE) if m == mutation]
    mutant = mutation_sample.mutate(SOURCE, index, slot)
    unparsed = mutation_sample.ast.unparse(mutation_sample.ast.parse(SOURCE))
    assert len(unparsed.splitlines()) == len(mutant.splitlines())
    changed = [new.strip() for old, new in zip(unparsed.splitlines(), mutant.splitlines()) if old != new]
    assert changed == [expected]


def test_comparison_flips_are_their_own_inverse():
    for op, flipped in mutation_sample._COMPARISON_FLIPS.items():
        assert mutation_sample._COMPARISON_FLIPS[flipped] is op


def test_seed_ranges():
    assert mutation_sample._seeds("0-3,7,9-9") == [0, 1, 2, 3, 7, 9]
