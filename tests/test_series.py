import doctest
import random
from fractions import Fraction

import pytest

import gyoja.series as series_module
from _oracles import assert_stored_form, random_validated_rep
from conftest import get_ball, system_of
from gyoja.cartan import SignCharacter, parse_cartan_type
from gyoja.closed_forms import diagram_growth_series, growth_closed_form
from gyoja.counting import character_series, count_multilengths
from gyoja.hecke import counting_series, gyoja_series
from gyoja.series import TruncatedSeries, one


def test_module_doctests():
    assert doctest.testmod(series_module) == (0, 3)


def test_variable_mismatch_rejected():
    # a key is read in base bound + 1 with one digit per variable, so series
    # with another variable count or bound share no key codec
    for x, y in ((one(1, 3), one(2, 3)), (one(2, 3), one(1, 3)), (one(2, 3), one(2, 4)), (one(2, 4), one(2, 3))):
        with pytest.raises(ValueError, match="shape mismatch"):
            x + y
        with pytest.raises(ValueError, match="shape mismatch"):
            x.first_difference(y)


def test_coefficient_rejects_a_vector_of_another_shape():
    # read as a key, (1,) would be the key of (0, 1), and (1, -5, 4) of the
    # constant term of a 3-variable series to degree 3 (16 - 20 + 4 = 0)
    a = TruncatedSeries(2, 3, {(0, 1): 7})
    assert (a.coefficient((0, 1)), a.coefficient((1, 0)), a.coefficient((4, 0))) == (7, 0, 0)
    b = TruncatedSeries(3, 3, {(0, 0, 0): 5})
    for series, exp in ((a, (1,)), (a, (0, 0, 1)), (a, (2, -1)), (b, (1, -5, 4))):
        with pytest.raises(ValueError, match="bad exponent vector"):
            series.coefficient(exp)


def test_absent_coefficient_of_an_integer_series_is_an_int():
    growth = count_multilengths(system_of("C2"), 4)
    absent, present = growth.coefficient((4, 0, 0)), growth.coefficient((1, 2, 1))
    assert (absent, present) == (0, 5) and (type(absent), type(present)) == (int, int)
    assert type(one(2, 3).levels[0][0]) is int


def test_only_scalars_multiply():
    a = TruncatedSeries(2, 3, {(0, 0): Fraction(2, 3), (1, 1): -1, (2, 0): 5})
    assert a * 3 == TruncatedSeries(2, 3, {(0, 0): 2, (1, 1): -3, (2, 0): 15})
    assert a * Fraction(3, 2) == TruncatedSeries(2, 3, {(0, 0): 1, (1, 1): Fraction(-3, 2), (2, 0): Fraction(15, 2)})
    for other in (one(2, 3), 0.5):
        with pytest.raises(TypeError):
            a * other
    with pytest.raises(TypeError):
        2 * a


def test_shape_rejected():
    with pytest.raises(ValueError, match="at least one variable"):
        TruncatedSeries(0, 3, {})
    with pytest.raises(ValueError, match="bound"):
        TruncatedSeries(1, -1, {})


def test_bad_exponents_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(2, 3, {(1,): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(1, 3, {(-1,): 1})


def _random_series(rng: random.Random, nvars: int, bound: int) -> TruncatedSeries:
    coeffs = {}
    for _ in range(rng.randrange(1, 6)):
        exp = tuple(rng.randrange(0, bound + 1) for _ in range(nvars))
        if sum(exp) > bound:
            continue
        coeffs[exp] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
    return TruncatedSeries(nvars, bound, coeffs)


def test_ring_axioms_on_random_inputs():
    rng = random.Random(20260808)
    for _ in range(200):
        nvars = rng.choice([1, 2, 3])
        bound = rng.randrange(2, 6)
        a = _random_series(rng, nvars, bound)
        b = _random_series(rng, nvars, bound)
        c = _random_series(rng, nvars, bound)
        r = Fraction(rng.randrange(-6, 7), rng.randrange(1, 5))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a + b) * r == a * r + b * r
        assert a * r * 2 == a * r + a * r


def test_permute_variables():
    a = TruncatedSeries(3, 4, {(2, 1, 0): 5})
    assert a.permute_variables((1, 0, 2)) == TruncatedSeries(3, 4, {(1, 2, 0): 5})
    with pytest.raises(ValueError):
        a.permute_variables((0, 0, 1))


def test_rendering_canonical():
    s = TruncatedSeries(2, 2, {(1, 1): 2, (0, 1): 1, (0, 0): 1, (1, 0): 1})
    assert str(s) == "1 + t1 + t2 + 2·t1·t2"
    assert str(TruncatedSeries(2, 2, {})) == "0"
    assert str(TruncatedSeries(1, 3, {(1,): Fraction(-1, 2), (0,): 1})) == "1 - 1/2·t"
    assert str(TruncatedSeries(1, 4, {(3,): 1})) == "t^3"


def test_first_difference():
    a = TruncatedSeries(2, 3, {(0, 0): 1, (1, 1): 2})
    b = TruncatedSeries(2, 3, {(0, 0): 1, (1, 1): 3, (2, 0): 1})
    assert a.first_difference(b) in {(1, 1), (2, 0)}
    assert a.first_difference(b) == (2, 0)  # degree 2, t1-dominant first
    assert a.first_difference(a) is None


def test_coefficient_and_degree_slice():
    a = TruncatedSeries(2, 3, {(1, 1): 2, (2, 0): 1, (0, 0): 1})
    assert a.coefficient((1, 1)) == 2
    assert a.coefficient((3, 0)) == 0
    assert {e: c for e, c in a.coeffs.items() if sum(e) == 2} == {(1, 1): 2, (2, 0): 1}


def test_int_coefficients_stay_int():
    a = TruncatedSeries(2, 3, {(0, 0): 1, (1, 0): Fraction(4, 2), (0, 1): 0.5, (2, 2): 7})
    assert a.coeffs == {(0, 0): 1, (1, 0): 2, (0, 1): Fraction(1, 2)}
    assert [type(a.coeffs[e]) for e in ((0, 0), (1, 0), (0, 1))] == [int, Fraction, Fraction]
    assert str(a) == "1 + 2·t1 + 1/2·t2"


def test_numpy_integers_become_python_ints():
    import numpy as np

    a = TruncatedSeries(1, 3, {(np.int64(1),): np.int64(2**62)})
    assert (a * 4).coeffs == {(1,): 2**64}
    assert [(type(key), type(c)) for terms in a.levels.values() for key, c in terms.items()] == [(int, int)]


def test_every_producer_keeps_the_stored_form():
    system = system_of("C3")
    growth = count_multilengths(system, 8)
    eps = SignCharacter((-1, 1, -1))
    a = TruncatedSeries(3, 8, {(1, 0, 2): Fraction(1, 2), (0, 3, 0): -2, (0, 0, 0): 1})
    matrix = gyoja_series(get_ball("G2", 6), random_validated_rep(random.Random(5), system_of("G2"), 3, 2))
    produced = [
        growth,
        diagram_growth_series(parse_cartan_type("C3"), 8),
        growth_closed_form(parse_cartan_type("C3")).expand(8),
        character_series(growth, eps, 3),
        counting_series(get_ball("C3", 8)),
        growth + a,
        a + a * -1,  # every term cancels
        growth + growth * -1,
        a * Fraction(2, 3),
        a * 0,
        growth.permute_variables((2, 0, 1)),
        a.permute_variables((1, 2, 0)),
        *matrix.flat,
    ]
    for series in produced:
        assert_stored_form(series)
    assert (a + a * -1).levels == {} and (growth + growth * -1).levels == {}
