import random
from fractions import Fraction

import numpy as np
import pytest

from _oracles import assert_stored_form, ball_elements, brute_force_elements, random_validated_rep
from conftest import get_ball, system_of
from gyoja.cartan import SignCharacter, parse_cartan_type, steinberg_character
from gyoja.counting import (
    char_value_e_s,
    char_value_e_w,
    character_series,
    count_multilengths,
    parse_sign_vector,
)
from gyoja.hecke import (
    MatrixRep,
    counting_series,
    eval_rep_on_word,
    gyoja_series,
    partial_sums_at_point,
    validate_rep,
)
from gyoja.series import TruncatedSeries


def test_trivial_hecke_character_passes():
    g2 = system_of("G2")
    rep = MatrixRep.make([[[4]]] * g2.num_gens, q_o=2)
    assert validate_rep(rep, g2).ok


def test_quadratic_violation_detected():
    g2 = system_of("G2")
    rep = MatrixRep.make([[[2]]] * g2.num_gens, q_o=2)
    report = validate_rep(rep, g2)
    assert not report.ok
    assert any("quadratic" in v for v in report.violations)


def test_braid_violation_detected():
    g2 = system_of("G2")
    # eigenvalues are fine (-1 and q) but the pair (1,2) with bond 6 breaks
    mats = [np.diag([-1, 4]), np.diag([-1, 4]), [[4, 0], [1, -1]]]
    rep = MatrixRep.make(mats, q_o=2)
    report = validate_rep(rep, g2)
    assert any("braid" in v for v in report.violations)


def test_validation_report_text():
    g2 = system_of("G2")
    trivial = MatrixRep.make([[[4]]] * g2.num_gens, q_o=2)
    assert str(validate_rep(trivial, g2)) == "all quadratic and braid relations hold"
    rep = MatrixRep.make([np.diag([-1, 4]), [[2, 0], [1, -1]], [[4, 0], [1, -1]]], q_o=2)
    assert str(validate_rep(rep, g2)) == (
        "quadratic relation fails at generator 1; "
        "braid relation fails for pair (0,1) with bond 3; "
        "braid relation fails for pair (0,2) with bond 2; "
        "braid relation fails for pair (1,2) with bond 6"
    )


def test_sign_character_reps_always_validate():
    for label in ("A1", "C2", "G2"):
        system = system_of(label)
        m = system.m
        for bits in range(2**m):
            eps = SignCharacter(tuple(1 if bits & (1 << i) else -1 for i in range(m)))
            rep = MatrixRep.from_sign_character(eps, system.partition, 3)
            assert validate_rep(rep, system).ok


def test_eval_on_identity_is_identity():
    system = system_of("C2")
    ball = get_ball("C2", 2)
    rep = MatrixRep.from_sign_character(steinberg_character(parse_cartan_type("C2")), system.partition, 2)
    identity = next(ball_elements(ball))
    assert identity.length == 0
    out = eval_rep_on_word(rep, identity.geodesic)
    assert out.shape == (1, 1) and out[0, 0] == 1


def test_eval_is_reduced_word_independent_for_sample_reps():
    rng = random.Random(1234)
    for label in ("C2", "G2"):
        system = system_of(label)
        by_element = brute_force_elements(system, 5)
        for i in range(10):
            rep = random_validated_rep(rng, system, dim=(i % 3) + 1, q_o=rng.choice((2, 3)))
            assert validate_rep(rep, system).ok
            for _, words in by_element.values():
                ref = eval_rep_on_word(rep, words[0])
                for word in words[1:]:
                    assert (eval_rep_on_word(rep, word) == ref).all()


def test_char_value_examples():
    g2 = parse_cartan_type("G2")
    st = steinberg_character(g2)
    assert char_value_e_w(st, (3, 2), 2) == (-1) ** 5
    assert char_value_e_w(st, (0, 0), 7) == 1
    # generator in the short-root singleton class, eps = (-1, +1): value q = q_o^2
    assert char_value_e_w(SignCharacter((-1, 1)), (0, 1), 2) == 4
    with pytest.raises(ValueError):
        char_value_e_w(st, (1, 1), 1)
    with pytest.raises(ValueError):
        char_value_e_w(st, (1, 1, 1), 2)


@pytest.mark.parametrize("multilength", [(-1, 0), (0, -2), (1.5, 0), (0, Fraction(1))])
def test_char_value_e_w_rejects_a_multilength_that_is_not_integers_of_at_least_0(multilength):
    with pytest.raises(ValueError, match="multilength must be integers >= 0"):
        char_value_e_w(SignCharacter((-1, 1)), multilength, 2)


@pytest.mark.parametrize("signs", [(-1,), (-1, 1, 1)])
def test_character_series_rejects_a_sign_vector_of_another_length(signs):
    growth = count_multilengths(system_of("G2"), 4)
    with pytest.raises(ValueError, match="multilength / sign vector dimension mismatch"):
        character_series(growth, SignCharacter(signs), 2)
    with pytest.raises(ValueError, match="sign vector length does not match the class count"):
        MatrixRep.from_sign_character(SignCharacter(signs), system_of("G2").partition, 2)


@pytest.mark.parametrize("q_o", [1, Fraction(5, 2), 0, -3])
def test_sign_character_values_need_an_integer_qo_of_at_least_2(q_o):
    eps = SignCharacter((-1, 1))
    with pytest.raises(ValueError, match="q_o must be >= 2"):
        char_value_e_s(eps, 1, q_o)
    with pytest.raises(ValueError, match="q_o must be >= 2"):
        char_value_e_w(eps, (0, 0), q_o)
    with pytest.raises(ValueError, match="q_o must be >= 2"):
        MatrixRep.from_sign_character(eps, system_of("G2").partition, q_o)
    with pytest.raises(ValueError, match="q_o must be >= 2"):
        MatrixRep.make([[[-1]], [[-1]], [[-1]]], q_o)


def test_sign_character_series_has_int_coefficients():
    system = system_of("G2")
    eps = SignCharacter((-1, 1))
    assert [type(char_value_e_s(eps, i, 3)) for i in range(2)] == [int, int]
    series = character_series(count_multilengths(system, 6), eps, 3)
    assert series.coeffs and all(type(c) is int for c in series.coeffs.values())
    total = TruncatedSeries(system.m, 6, {}) + series
    assert total == series and all(type(c) is int for c in total.coeffs.values())


def test_char_value_agrees_with_1x1_matrix_path():
    for label in ("C2", "G2"):
        system = system_of(label)
        ball = get_ball(label, 4)
        for eps_bits in range(2**system.m):
            eps = SignCharacter(
                tuple(1 if eps_bits & (1 << i) else -1 for i in range(system.m))
            )
            rep = MatrixRep.from_sign_character(eps, system.partition, 2)
            for el in ball_elements(ball):
                if el.length > 4:
                    break
                assert eval_rep_on_word(rep, el.geodesic)[0, 0] == char_value_e_w(eps, el.multilength, 2)


def test_a1_counting_series_degree_3():
    ball = get_ball("A1", 3)
    expected = TruncatedSeries(
        2, 3, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2, (2, 1): 1, (1, 2): 1}
    )
    assert counting_series(ball, 3) == expected


def test_degree_zero_coefficient_is_identity():
    system = system_of("C2")
    ball = get_ball("C2", 3)
    eps = SignCharacter((-1, -1, 1))
    zero_exp = (0,) * system.m
    assert gyoja_series(ball, eps, q_o=2, bound=3).coefficient(zero_exp) == 1
    rng = random.Random(7)
    rep = random_validated_rep(rng, system, dim=2, q_o=2)
    mat_series = gyoja_series(ball, rep, bound=3)
    for i in range(2):
        for j in range(2):
            assert mat_series[i, j].coefficient(zero_exp) == (1 if i == j else 0)


def test_denominator_one_rep_series_has_int_coefficients():
    rep = random_validated_rep(random.Random(11), system_of("G2"), dim=2, q_o=2)
    assert rep.denominator == 1
    coefficients = [c for entry in gyoja_series(get_ball("G2", 6), rep).flat for _, c in entry.terms()]
    assert coefficients and all(type(c) is int for c in coefficients)


def test_sign_character_series_matches_1x1_matrix_series():
    for label in ("C2", "G2"):
        system = system_of(label)
        ball = get_ball(label, 4)
        eps = SignCharacter((-1,) * (system.m - 1) + (1,))
        rep = MatrixRep.from_sign_character(eps, system.partition, 2)
        scalar = gyoja_series(ball, eps, q_o=2, bound=4)
        matrix = gyoja_series(ball, rep, bound=4)
        assert matrix[0, 0] == scalar


def test_non_commuting_rep_series_matches_geodesic_products():
    # s0 -> s2 preserves the C2 bonds (4, 4, 2), so T0 = T2 is allowed
    system = system_of("C2")
    t0 = [[4, 8], [0, -1]]
    rep = MatrixRep.make([t0, [[-1, 0], [1, 4]], t0], q_o=2)
    assert validate_rep(rep, system).ok
    a, b = rep.matrices[0], rep.matrices[1]
    assert not (a.dot(b) == b.dot(a)).all()
    ball = get_ball("C2", 8)
    values = [(el, eval_rep_on_word(rep, el.geodesic)) for el in ball_elements(ball) if el.length <= 8]
    for bound in (0, 1, 5, 8):
        acc = {}
        for el, mat in values:
            if el.length <= bound:
                acc[el.multilength] = acc[el.multilength] + mat if el.multilength in acc else mat
        series = gyoja_series(ball, rep, bound=bound)
        for i in range(2):
            for j in range(2):
                expected = TruncatedSeries(system.m, bound, {ml: mat[i, j] for ml, mat in acc.items()})
                assert series[i, j] == expected


def test_steinberg_series_specializes_to_alternating_sums():
    ball = get_ball("A1", 8)
    st = steinberg_character(parse_cartan_type("A1"))
    sums = partial_sums_at_point(ball.system, st, 2, radius=ball.radius)
    acc = Fraction(0)
    expected = []
    for k, count in enumerate(ball.counts):
        acc += count * Fraction(-1, 2) ** k
        expected.append(acc)
    assert sums == expected


def test_a1_steinberg_partial_sums_prefix():
    st = steinberg_character(parse_cartan_type("A1"))
    sums = partial_sums_at_point(system_of("A1"), st, 2, radius=4)
    assert sums[:5] == [
        Fraction(1),
        Fraction(0),
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(3, 8),
    ]


def test_partial_sums_start_at_one():
    for label, eps in (("A1", (-1, -1)), ("G2", (-1, 1)), ("C2", (-1, -1, 1))):
        sums = partial_sums_at_point(system_of(label), SignCharacter(eps), 3, radius=2)
        assert sums[0] == 1


def test_partial_sums_of_a_ball_are_those_of_its_system_and_radius():
    ball = get_ball("G2", 5)
    eps = SignCharacter((-1, 1))
    assert partial_sums_at_point(ball, eps, 2) == partial_sums_at_point(ball.system, eps, 2, radius=ball.radius)
    with pytest.raises(ValueError, match="radius"):
        partial_sums_at_point(ball.system, eps, 2)


def test_b3_nonsteinberg_partial_sums_trend_to_zero():
    sums = partial_sums_at_point(system_of("B3"), SignCharacter((-1, 1)), 2, radius=10)
    assert abs(sums[10]) < Fraction(1, 16) < abs(sums[0])


def test_parse_sign_vector():
    assert parse_sign_vector("[-1,1]").signs == (-1, 1)
    assert parse_sign_vector("-1, -1, 1").signs == (-1, -1, 1)
    with pytest.raises(ValueError):
        parse_sign_vector("[1, zebra]")
    with pytest.raises(ValueError):
        parse_sign_vector("[0,1]")
    for text in ("[-1,,1]", "[-1,1,]", "-1,1,", "[-1,1", "-1,1]"):
        with pytest.raises(ValueError, match="cannot parse sign vector"):
            parse_sign_vector(text)


def test_gyoja_series_needs_qo_for_characters():
    ball = get_ball("A1", 2)
    with pytest.raises(ValueError):
        gyoja_series(ball, SignCharacter((-1, -1)))


def test_bound_cannot_exceed_radius():
    ball = get_ball("A1", 3)
    with pytest.raises(ValueError):
        counting_series(ball, 20)


@pytest.mark.parametrize(
    "matrices",
    [
        [],
        [[4]],
        [[[4, 0], [1]]],
        [[[]]],
        [[[1, 2, 3], [4, 5, 6]]],
        [[[4]], [[4, 0], [0, -1]], [[4]]],
        [np.diag([-1, 4]), [[4]], np.diag([-1, 4])],
    ],
    ids=["empty-list", "row-not-matrix", "ragged-rows", "empty-row", "2x3", "2x2-among-1x1", "1x1-among-2x2"],
)
def test_make_rejects_malformed_matrices(matrices):
    with pytest.raises(ValueError):
        MatrixRep.make(matrices, q_o=2)


@pytest.mark.parametrize(
    "matrices, params, message",
    [
        ([[[0.1]]], {"q_o": 2}, r"generator 0 matrix entry 0\.1 is not an exact rational"),
        ([[[4]], [[np.float64(-1.0)]]], {"q_o": 2}, r"generator 1 matrix entry .* is not an exact rational"),
        ([[[1]]], {"q_o": 2.0}, r"q_o must be >= 2 .*, got 2\.0"),
    ],
    ids=["float-entry", "numpy-float-entry", "float-q_o"],
)
def test_make_rejects_inexact_input(matrices, params, message):
    with pytest.raises(ValueError, match=message):
        MatrixRep.make(matrices, **params)


def test_make_accepts_numpy_integers_as_python_ints():
    big = np.int64(2**40)
    rep = MatrixRep.make([[[big]], [[np.int64(-1)]], [[big]]], q_o=np.int64(2**20))
    assert rep == MatrixRep.make([[[2**40]], [[-1]], [[2**40]]], q_o=2**20)
    assert all(type(x) is int for num in rep.numerators for row in num for x in row)
    assert type(rep.q.numerator) is int and rep.q == 2**40
    # int64 numerators would wrap around here
    assert eval_rep_on_word(rep, (0, 2, 0, 2))[0, 0] == 2**160


def test_make_stores_plain_int_tuples():
    rep = MatrixRep.make([np.array([[Fraction(1, 2), 3], [0, np.int64(-1)]], dtype=object), [[4, 0], [0, 4]]], q_o=2)
    assert rep.denominator == 2
    # a list never equals a tuple, so this pins tuples at every level
    assert rep.numerators == (((1, 6), (0, -2)), ((8, 0), (0, 8)))
    assert {type(x) for num in rep.numerators for row in num for x in row} == {int}


def test_reps_compare_and_hash_by_value():
    mats = [[[4, 8], [0, -1]], [[-1, 0], [1, 4]], [[4, 8], [0, -1]]]
    rep = MatrixRep.make(mats, q_o=2)
    same = MatrixRep.make([np.array(m) for m in mats], q_o=np.int64(2))
    assert rep == same and hash(rep) == hash(same)
    assert len({rep, same}) == 1
    one_entry = MatrixRep.make(mats[:2] + [[[4, 8], [0, -2]]], q_o=2)
    assert rep != one_entry
    only_q = MatrixRep.make(mats, q_o=3)
    assert rep.numerators == only_q.numerators
    assert rep != only_q
    assert rep != "not a rep"


def test_gyoja_series_rejects_q_o_with_a_matrix_rep():
    # a matrix rep carries its own q, so a q_o beside it is refused, not ignored
    rep = MatrixRep.make([[[4]], [[-1]], [[4]]], q_o=2)
    with pytest.raises(ValueError, match="q_o applies only to a sign character"):
        gyoja_series(get_ball("C2", 4), rep, q_o=999)
    with pytest.raises(TypeError, match="cannot form a series for str"):
        gyoja_series(get_ball("C2", 4), "x")


@pytest.mark.parametrize("label, expected, count", [("A1", 2, 3), ("G2", 3, 2)])
def test_gyoja_series_rejects_a_rep_with_the_wrong_generator_count(label, expected, count):
    rep = MatrixRep.make([[[-1]]] * count, q_o=2)
    with pytest.raises(ValueError, match=f"expected {expected} generator matrices, got {count}"):
        gyoja_series(get_ball(label, 4), rep)
    assert str(validate_rep(rep, system_of(label))) == f"expected {expected} generator matrices, got {count}"


@pytest.mark.parametrize("letter", [-1, 3, 10, 1.0])
def test_eval_rejects_letters_out_of_range(letter):
    rep = MatrixRep.make([[[4]], [[-1]], [[4]]], q_o=2)
    with pytest.raises(ValueError, match=rf"generator index {letter} out of range for 3 "):
        eval_rep_on_word(rep, (0, letter, 1))


def _fraction_product(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def test_non_unimodular_conjugate_uses_the_denominator():
    # det P = 2, so P·D_s·P⁻¹ has halves wherever the two characters differ on s
    p = [[1, 1], [-1, 1]]
    p_inv = [[Fraction(1, 2), Fraction(-1, 2)], [Fraction(1, 2), Fraction(1, 2)]]
    q_o, radius = 2, 6
    system = system_of("G2")
    ball = get_ball("G2", radius)
    signs = (SignCharacter((-1, -1)), SignCharacter((1, -1)))
    gens = []
    for s in range(system.num_gens):
        cls = system.partition.class_of[s]
        diag = [[0, 0], [0, 0]]
        for k, eps in enumerate(signs):
            diag[k][k] = eps.signs[cls] * q_o ** (eps.signs[cls] + 1)
        gens.append(_fraction_product(_fraction_product(p, diag), p_inv))
    rep = MatrixRep.make(gens, q_o=q_o)
    assert rep.denominator == 2
    assert [mat.tolist() for mat in rep.matrices] == gens
    assert validate_rep(rep, system).ok

    scalars = [gyoja_series(ball, eps, q_o=q_o, bound=radius) for eps in signs]
    series = gyoja_series(ball, rep, bound=radius)
    for i in range(2):
        for j in range(2):
            expected = TruncatedSeries(system.m, radius, {})
            for k in range(2):
                expected = expected + scalars[k] * (p[i][k] * p_inv[k][j])
            assert series[i, j] == expected
            assert_stored_form(series[i, j])
    assert any(c.denominator > 1 for c in series[0, 1].coeffs.values())

    one = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    for _, words in brute_force_elements(system, radius).values():
        for word in words:
            expected = one
            for s in word:
                expected = _fraction_product(expected, gens[s])
            assert eval_rep_on_word(rep, word).tolist() == expected
