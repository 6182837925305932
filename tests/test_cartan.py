import json
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from _oracles import (
    alcove_point,
    borel_stated_list,
    coxeter_matrix_by_generator_orders,
    euclidean_pairing_matrix,
    exponents_table,
    longest_multilength_by_root_closure,
    root_closure,
)

from gyoja import cartan
from gyoja.cartan import (
    INFINITE_BOND,
    CartanType,
    SignCharacter,
    borel_discrete_series_list,
    build_affine_system,
    conjugacy_partition,
    exponents,
    parse_cartan_type,
    steinberg_character,
    tables_document,
)
from gyoja.cli import ALL_TYPES
from gyoja.distinction import distinction_value

ALL_LABELS = ["A1", "A2", "A3", "B3", "B4", "C2", "C3", "C4", "D4", "D5", "E6", "E7", "E8", "F4", "G2"]
RANK_SWEEP_LABELS = (
    [f"A{n}" for n in range(1, 13)]
    + [f"B{n}" for n in range(3, 13)]
    + [f"C{n}" for n in range(2, 13)]
    + [f"D{n}" for n in range(4, 13)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
BOREL_SWEEP_LABELS = RANK_SWEEP_LABELS + [f"{fam}{n}" for fam in "BC" for n in range(13, 31)]

# classical constants used as independent checks on the exponent tables
POSITIVE_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}
WEYL_GROUP_ORDER = {
    "A1": 2, "A2": 6, "A3": 24, "B3": 48, "B4": 384, "C2": 8, "C3": 48, "C4": 384,
    "D4": 192, "D5": 1920, "E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12,
}


def test_parse_labels():
    assert parse_cartan_type("g2") == CartanType("G", 2)
    assert parse_cartan_type("C3").label == "C3"
    assert parse_cartan_type("E7").rank == 7
    with pytest.raises(ValueError):
        parse_cartan_type("X9")
    with pytest.raises(ValueError):
        parse_cartan_type("G")


def test_rank_constraints():
    with pytest.raises(ValueError, match="C2"):
        CartanType("B", 2)  # alias of C2, rejected with an explanation
    with pytest.raises(ValueError, match="A3"):
        CartanType("D", 3)
    with pytest.raises(ValueError):
        CartanType("A", 0)
    with pytest.raises(ValueError):
        CartanType("E", 5)
    with pytest.raises(ValueError):
        CartanType("F", 3)
    with pytest.raises(ValueError):
        CartanType("G", 3)
    CartanType("A", 1)
    CartanType("C", 2)
    CartanType("B", 3)
    CartanType("D", 4)


def test_g2_diagram_and_classes():
    s = build_affine_system(parse_cartan_type("G2"))
    assert s.num_gens == 3
    assert s.coxeter_matrix[0][1] == 3
    assert s.coxeter_matrix[1][2] == 6
    assert s.coxeter_matrix[0][2] == 2
    assert s.partition.classes == ((0, 1), (2,))
    assert s.m == 2


def test_a2_diagram():
    s = build_affine_system(parse_cartan_type("A2"))
    assert s.num_gens == 3
    assert all(s.coxeter_matrix[i][j] == 3 for i in range(3) for j in range(3) if i != j)
    assert s.m == 1


def test_c3_chain():
    s = build_affine_system(parse_cartan_type("C3"))
    assert s.coxeter_matrix[0][1] == 4
    assert s.coxeter_matrix[1][2] == 3
    assert s.coxeter_matrix[2][3] == 4
    assert s.coxeter_matrix[0][2] == s.coxeter_matrix[0][3] == s.coxeter_matrix[1][3] == 2
    assert set(map(frozenset, s.partition.classes)) == {
        frozenset({0}), frozenset({1, 2}), frozenset({3})
    }
    # canonical order: size descending, then smallest node
    assert s.partition.classes == ((1, 2), (0,), (3,))


def test_a1_infinite_bond():
    s = build_affine_system(parse_cartan_type("A1"))
    assert s.coxeter_matrix[0][1] == INFINITE_BOND
    assert coxeter_matrix_by_generator_orders(s)[0][1] == INFINITE_BOND
    assert s.partition.classes == ((0,), (1,))


@pytest.mark.parametrize("label", list(dict.fromkeys(ALL_TYPES + ["A9", "D8", "B12", "A15", "E7"])))
def test_coxeter_matrix_matches_generator_orders(label):
    s = build_affine_system(parse_cartan_type(label))
    assert s.coxeter_matrix == coxeter_matrix_by_generator_orders(s)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_longest_multilength_counts_positive_roots(label):
    ctype = parse_cartan_type(label)
    s = build_affine_system(ctype)
    finite = s.longest_multilength(range(1, s.num_gens))
    assert sum(finite) == POSITIVE_ROOT_COUNT[ctype.family](ctype.rank)
    assert s.longest_multilength([]) == (0,) * s.m
    for node in range(s.num_gens):
        unit = [0] * s.m
        unit[s.partition.class_of[node]] = 1
        assert s.longest_multilength([node]) == tuple(unit)
    with pytest.raises(ValueError):
        s.longest_multilength(range(s.num_gens))
    with pytest.raises(ValueError):
        s.longest_multilength([-1])
    with pytest.raises(ValueError):
        s.longest_multilength([s.num_gens])


@pytest.mark.parametrize(
    "label,nodes,expected",
    [
        ("B3", (1, 2, 3), (6, 3)),  # 6 long roots, 3 short
        ("B3", (0, 1, 2), (6, 0)),  # type A3 on long nodes
        ("C3", (1, 2, 3), (6, 0, 3)),  # short roots in the chain class, long in {s_3}
        ("C3", (0, 1, 2), (6, 3, 0)),  # the mirror image, long roots in {s_0}
        ("C2", (0, 1), (2, 2, 0)),
        ("F4", (1, 2, 3, 4), (12, 12)),
        ("F4", (0, 1, 2, 3), (12, 4)),  # type B4: 12 long, 4 short
        ("G2", (1, 2), (3, 3)),
        ("E8", tuple(range(8)), (64,)),  # E7 plus the isolated affine node
    ],
)
def test_longest_multilength_splits_roots_by_class(label, nodes, expected):
    assert build_affine_system(parse_cartan_type(label)).longest_multilength(nodes) == expected


@pytest.mark.parametrize(
    "label",
    ["A1", "A2", "A3", "A5", "B3", "B4", "B6", "C2", "C3", "C4", "C5", "D4", "D5", "D7", "E6", "E7", "E8", "F4", "G2"],
)
def test_longest_multilength_matches_the_root_closure(label):
    s = build_affine_system(parse_cartan_type(label))
    for size in range(s.num_gens):
        for nodes in combinations(range(s.num_gens), size):
            assert s.longest_multilength(nodes) == longest_multilength_by_root_closure(s, nodes), nodes


@pytest.mark.parametrize("label", RANK_SWEEP_LABELS)
def test_raised_roots_are_the_positive_half_of_the_closure(label):
    P = cartan._pairing_matrix(parse_cartan_type(label))
    raised = cartan._positive_roots(P)
    closure = root_closure(P)
    assert [(rc, cc) for rc, cc, *_ in raised] == [(rc, cc) for rc, cc in closure if min(rc) >= 0]
    assert len(closure) == 2 * len(raised)
    for rc, _, pairs, _ in raised:
        assert pairs == tuple(sum(p * x for p, x in zip(row, rc)) for row in P), rc


def test_root_raising_stops_on_a_pairing_matrix_not_of_finite_type():
    # D4 with its fork bond 1-3 made double has infinitely many positive roots
    P = [list(row) for row in cartan._pairing_matrix(parse_cartan_type("D4"))]
    P[1][3] = -2
    with pytest.raises(AssertionError, match="not of finite type"):
        cartan._positive_roots(tuple(map(tuple, P)))


def test_numbers_game_stops_on_a_cartan_matrix_not_of_finite_type():
    # a fresh D4 system, not the cached one, with its fork bond 2-4 made
    # double: the game on J = {1, 2, 3, 4} then fires without end
    s = cartan.AffineCoxeterSystem(parse_cartan_type("D4"))
    a = [list(row) for row in s.extended_cartan]
    a[2][4] = -2
    s.extended_cartan = tuple(map(tuple, a))
    with pytest.raises(AssertionError, match="W_J not finite"):
        s.longest_multilength([1, 2, 3, 4])


def test_the_bounds_raise_under_python_O():
    # an assert statement would vanish under -O; both bounds raise explicitly
    code = (
        "import sys, test_cartan as t; "
        "t.test_root_raising_stops_on_a_pairing_matrix_not_of_finite_type(); "
        "t.test_numbers_game_stops_on_a_cartan_matrix_not_of_finite_type(); "
        "print(sys.flags.optimize)"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], cwd=Path(__file__).parent, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout) == (0, "1\n"), done.stderr


@pytest.mark.parametrize("label", RANK_SWEEP_LABELS + ["A30", "B30", "C30", "D30"])
def test_diagram_pairing_matches_the_euclidean_realization(label):
    ctype = parse_cartan_type(label)
    assert cartan._pairing_matrix(ctype) == euclidean_pairing_matrix(ctype)


def test_f4_partition():
    s = build_affine_system(parse_cartan_type("F4"))
    chain = [s.coxeter_matrix[i][i + 1] for i in range(4)]
    assert chain == [3, 3, 4, 3]
    assert s.partition.classes == ((0, 1, 2), (3, 4))


def test_single_generator_partition():
    part = conjugacy_partition(((1,),))
    assert part.classes == ((0,),)


def test_partition_counts_match_known_list():
    expected_m = {
        "A1": 2, "A2": 1, "A3": 1, "B3": 2, "B4": 2, "C2": 3, "C3": 3, "C4": 3,
        "D4": 1, "D5": 1, "E6": 1, "E7": 1, "E8": 1, "F4": 2, "G2": 2,
    }
    for label in ALL_LABELS:
        assert build_affine_system(parse_cartan_type(label)).m == expected_m[label]


def test_generators_are_involutions():
    for label in ALL_LABELS:
        s = build_affine_system(parse_cartan_type(label))
        eye = np.eye(s.rank, dtype=np.int64)
        for i in range(s.num_gens):
            M = np.array(s.gen_linear[i])
            v = np.array(s.gen_translation[i])
            assert np.array_equal(M @ M, eye), (label, i)
            assert not (M @ v + v).any(), (label, i)


def test_alcove_point_is_rho_over_h():
    # <alpha_i, D*p> = D/h for every simple root, with h = 1 + height(theta)
    for label in ALL_LABELS:
        s = build_affine_system(parse_cartan_type(label))
        h = sum(s.highest_root) + 1
        scale, point = alcove_point(s)
        assert np.array_equal(h * (np.array(s.pairing).T @ point), np.full(s.rank, scale)), label
        ctype = parse_cartan_type(label)
        assert len(cartan._positive_roots(s.pairing)) == POSITIVE_ROOT_COUNT[ctype.family](ctype.rank), label


def test_generator_reflections_fix_a_hyperplane():
    for label in ALL_LABELS:
        s = build_affine_system(parse_cartan_type(label))
        eye = np.eye(s.rank, dtype=np.int64)
        for i in range(s.num_gens):
            assert np.linalg.matrix_rank(np.array(s.gen_linear[i]) - eye) == 1, (label, i)


def test_cn_partition_stable_under_end_swap():
    # the diagram automorphism i <-> n - i maps the partition to itself
    for label in ("C2", "C3", "C4"):
        s = build_affine_system(parse_cartan_type(label))
        n = s.rank
        swapped = {frozenset(n - i for i in cls) for cls in s.partition.classes}
        assert swapped == set(map(frozenset, s.partition.classes))


def test_coxeter_matrix_is_symmetric_with_expected_entries():
    for label in ALL_LABELS:
        s = build_affine_system(parse_cartan_type(label))
        cm = s.coxeter_matrix
        g = s.num_gens
        for i in range(g):
            assert cm[i][i] == 1
            for j in range(g):
                assert cm[i][j] == cm[j][i]
                if i != j:
                    assert cm[i][j] in (2, 3, 4, 6, INFINITE_BOND)
        has_infinite = any(
            cm[i][j] == INFINITE_BOND for i in range(g) for j in range(g) if i != j
        )
        assert has_infinite == (label == "A1")


def test_exponent_examples():
    assert exponents(parse_cartan_type("A2")) == (1, 2)
    assert exponents(parse_cartan_type("A1")) == (1,)
    assert exponents(parse_cartan_type("D4")) == (1, 3, 3, 5)
    assert exponents(parse_cartan_type("G2")) == (1, 5)
    assert exponents(parse_cartan_type("E8")) == (1, 7, 11, 13, 17, 19, 23, 29)


@pytest.mark.parametrize("label", RANK_SWEEP_LABELS)
def test_exponents_from_root_heights_match_the_table(label):
    ctype = parse_cartan_type(label)
    assert exponents(ctype) == exponents_table(ctype.family, ctype.rank)


def test_exponent_invariants():
    for label in ALL_LABELS:
        t = parse_cartan_type(label)
        exps = exponents(t)
        assert len(exps) == t.rank
        assert sum(exps) == POSITIVE_ROOT_COUNT[t.family](t.rank), label
        order = 1
        for e in exps:
            order *= e + 1
        assert order == WEYL_GROUP_ORDER[label], label


def test_borel_list_examples():
    g2 = borel_discrete_series_list(parse_cartan_type("G2"))
    assert [c.signs for c in g2] == [(-1, -1), (-1, 1)]
    c4 = borel_discrete_series_list(parse_cartan_type("C4"))
    assert [c.signs for c in c4] == [(-1, -1, -1), (-1, -1, 1), (-1, 1, -1), (-1, 1, 1)]
    e7 = borel_discrete_series_list(parse_cartan_type("E7"))
    assert [c.signs for c in e7] == [(-1,)]


def test_borel_list_c2_carries_plus_on_end_classes():
    # canonical class order for C2 is ({s_0}, {s_1}, {s_2}); the chain class
    # {s_1} always gets -1
    c2 = borel_discrete_series_list(parse_cartan_type("C2"))
    assert [c.signs for c in c2] == [(-1, -1, -1), (-1, -1, 1), (1, -1, -1)]


@pytest.mark.parametrize("label", BOREL_SWEEP_LABELS)
def test_derived_discrete_series_are_borels_stated_list(label):
    ctype = parse_cartan_type(label)
    assert [c.signs for c in borel_discrete_series_list(ctype)] == borel_stated_list(ctype)


def test_discrete_series_threshold_between_c3_and_c4():
    # eps = (-1, +1, +1) sums the classes' w_c to a vector with a coordinate
    # of 0 in C3, where Borel's sum diverges, and to a negative one in C4
    eps = SignCharacter((-1, 1, 1))

    def total(label):
        s = build_affine_system(parse_cartan_type(label))
        w = cartan._class_weights(cartan._positive_roots(s.pairing), s.pairing, s.partition.class_of, s.m)
        return [sum(e * x for e, x in zip(eps.signs, coords)) for coords in zip(*w)]

    assert max(total("C3")) == 0 and eps not in borel_discrete_series_list(parse_cartan_type("C3"))
    assert max(total("C4")) < 0 and eps in borel_discrete_series_list(parse_cartan_type("C4"))


def test_borel_list_shapes():
    for label in ALL_LABELS:
        t = parse_cartan_type(label)
        chars = borel_discrete_series_list(t)
        m = build_affine_system(t).m
        assert chars[0] == steinberg_character(t)
        assert all(len(c.signs) == m for c in chars)
        if m == 1:
            assert len(chars) == 1


def test_sign_character_validation():
    with pytest.raises(ValueError):
        SignCharacter((0, 1))
    with pytest.raises(ValueError):
        SignCharacter(())
    assert SignCharacter((-1, 1)).is_steinberg is False
    assert SignCharacter((-1, -1)).is_steinberg is True


def test_sign_character_stores_a_tuple_of_ints():
    from_list = SignCharacter([-1, 1])
    from_gen = SignCharacter(s for s in (-1, 1))
    assert from_list.signs == from_gen.signs == (-1, 1)
    assert from_list == from_gen == SignCharacter((-1, 1))
    assert hash(from_list) == hash(SignCharacter((-1, 1)))
    with pytest.raises(ValueError, match=r"got \(1, 0\)"):
        SignCharacter(s for s in (1, 0))
    g2 = parse_cartan_type("G2")
    assert distinction_value(g2, from_list, 2) == Fraction(3, 2)


def test_tables_document_schema():
    doc = tables_document(parse_cartan_type("G2"))
    assert doc["schema"] == "gyoja-cartan-tables"
    assert doc["schema_version"] == 1
    assert doc["type"] == "G2"
    assert doc["m"] == 2
    assert doc["class_partition"] == [[0, 1], [2]]
    assert doc["exponents"] == [1, 5]
    assert doc["coxeter_matrix"] == [[1, 3, 2], [3, 1, 6], [2, 6, 1]]
    assert len(doc["generator_actions"]) == 3
    assert doc["discrete_series_characters"] == [[-1, -1], [-1, 1]]
    # document round-trips through JSON and is deterministic
    text = json.dumps(doc, indent=2)
    assert json.loads(text) == doc
    assert text == json.dumps(tables_document(parse_cartan_type("G2")), indent=2)


def test_build_is_memoized():
    a = build_affine_system(parse_cartan_type("F4"))
    b = build_affine_system(parse_cartan_type("F4"))
    assert a is b
