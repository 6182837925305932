import doctest
import random
from fractions import Fraction

import pytest

import gyoja.series as series_module
from gyoja.series import TruncatedSeries, monomial, one, variables, zero


def test_module_doctests():
    failures, _ = doctest.testmod(series_module)
    assert failures == 0


def test_binomial_product():
    (t,) = variables(1, 2)
    assert (one(1, 2) + t) * (one(1, 2) - t) == TruncatedSeries(1, 2, {(0,): 1, (2,): -1})


def test_multiplicative_identity():
    a = TruncatedSeries(2, 3, {(0, 0): Fraction(2, 3), (1, 1): -1, (2, 0): 5})
    assert a * one(2, 3) == a


def test_two_variable_binomials():
    t1, t2 = variables(2, 2)
    prod = (one(2, 2) + t1) * (one(2, 2) + t2)
    assert prod == TruncatedSeries(2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_variable_mismatch_rejected():
    with pytest.raises(ValueError):
        one(1, 3) + one(2, 3)
    with pytest.raises(ValueError):
        one(1, 3) * one(2, 3)


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
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_permute_variables():
    a = TruncatedSeries(3, 4, {(2, 1, 0): 5})
    assert a.permute_variables((1, 0, 2)) == TruncatedSeries(3, 4, {(1, 2, 0): 5})
    with pytest.raises(ValueError):
        a.permute_variables((0, 0, 1))


def test_rendering_canonical():
    t1, t2 = variables(2, 2)
    s = one(2, 2) + t1 + t2 + 2 * (t1 * t2)
    assert str(s) == "1 + t1 + t2 + 2·t1·t2"
    assert str(zero(2, 2)) == "0"
    (t,) = variables(1, 3)
    assert str(one(1, 3) - t * Fraction(1, 2)) == "1 - 1/2·t"
    assert str(monomial(1, 4, (3,))) == "t^3"


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
