import doctest
import hashlib
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest

import gyoja.closed_forms as closed_forms_module
from _oracles import truncated_product, truncated_value
from conftest import get_ball
from gyoja.cartan import build_affine_system, parse_cartan_type
from gyoja.closed_forms import (
    CalibrationResult,
    Factor,
    PoleError,
    TermLimitExceeded,
    bott_closed_form,
    calibrate_indexing,
    diagram_growth_series,
    growth_closed_form,
    macdonald_closed_form,
)
from gyoja.cli import ALL_TYPES
from gyoja.counting import count_multilengths
from gyoja.hecke import counting_series
from gyoja.limits import ResourceLimitExceeded
from gyoja.series import TruncatedSeries


def _factor_multiset(factors):
    out = {}
    for f in factors:
        out[str(f)] = out.get(str(f), 0) + 1
    return out


def test_factor_requires_unit_constant():
    for bad in ((0,), (-1,), (1, 0)):
        with pytest.raises(ValueError):
            Factor(1, bad)
    with pytest.raises(ValueError):
        Factor(1, (1,), 2)
    with pytest.raises(ValueError):
        Factor(1, (1,), 1, 1)
    f = Factor(1, (2,), -1)
    assert str(f) == "(1 - t^2)"
    assert f.terms == (((0,), 1), ((2,), -1))


def test_factor_terms_are_a_geometric_sum():
    f = Factor(2, (1, 2), -1, 3)
    assert f.terms == (((0, 0), 1), ((1, 2), -1), ((2, 4), 1))
    assert str(f) == "(1 - t1·t2^2 + t1^2·t2^4)"
    assert f == Factor(2, [1, 2], -1, 3) and hash(f) == hash(Factor(2, [1, 2], -1, 3))


def test_module_doctests():
    assert doctest.testmod(closed_forms_module) == (0, 2)


def test_bott_a2_factors_and_expansion():
    form = bott_closed_form(parse_cartan_type("A2"))
    assert _factor_multiset(form.numerator) == {"(1 - t^2)": 1, "(1 - t^3)": 1}
    assert _factor_multiset(form.denominator) == {"(1 - t)": 3, "(1 - t^2)": 1}
    assert form.expand(2) == TruncatedSeries(1, 2, {(0,): 1, (1,): 3, (2,): 6})


def test_bott_constant_term_is_one():
    for label in ("A2", "A3", "D4", "E6", "E7", "E8"):
        form = bott_closed_form(parse_cartan_type(label))
        assert form.expand(0) == TruncatedSeries(1, 0, {(0,): 1})


def test_bott_rejects_multiclass_types():
    with pytest.raises(ValueError):
        bott_closed_form(parse_cartan_type("G2"))
    with pytest.raises(ValueError):
        macdonald_closed_form(parse_cartan_type("A2"))


def test_a1_form_factors():
    form = macdonald_closed_form(parse_cartan_type("A1"))
    assert _factor_multiset(form.numerator) == {"(1 + t1)": 1, "(1 + t2)": 1}
    assert _factor_multiset(form.denominator) == {"(1 - t1·t2)": 1}


def test_g2_form_has_trinomial_factors():
    form = macdonald_closed_form(parse_cartan_type("G2"))
    assert _factor_multiset(form.numerator) == {
        "(1 + t1)": 1,
        "(1 + t1 + t1^2)": 1,
        "(1 + t2)": 1,
        "(1 + t1·t2 + t1^2·t2^2)": 1,
    }
    assert _factor_multiset(form.denominator) == {"(1 - t1^2·t2)": 1, "(1 - t1^3·t2^2)": 1}


def test_c2_form_instantiation():
    form = macdonald_closed_form(parse_cartan_type("C2"))
    assert _factor_multiset(form.numerator) == {
        "(1 - t1)": 1,
        "(1 - t1^2)": 1,
        "(1 + t2)": 1,
        "(1 + t3)": 1,
        "(1 + t1·t2)": 1,
        "(1 + t1·t3)": 1,
    }
    assert _factor_multiset(form.denominator) == {
        "(1 - t1)": 2,
        "(1 - t1·t2·t3)": 1,
        "(1 - t1^2·t2·t3)": 1,
    }


def test_a1_expansion_example():
    form = macdonald_closed_form(parse_cartan_type("A1"))
    assert form.expand(2) == TruncatedSeries(
        2, 2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 2}
    )


def test_expand_geometric_inverse():
    from gyoja.closed_forms import ClosedForm

    form = ClosedForm(1, (), (Factor(1, (1,), -1),))
    assert form.expand(3) == TruncatedSeries(1, 3, {(0,): 1, (1,): 1, (2,): 1, (3,): 1})


def test_evaluate_examples():
    a1 = macdonald_closed_form(parse_cartan_type("A1"))
    assert a1.evaluate_witnessed([Fraction(-1, 2), Fraction(-1, 2)])[0] == Fraction(1, 3)
    g2 = macdonald_closed_form(parse_cartan_type("G2"))
    assert g2.evaluate_witnessed([Fraction(-1, 2), Fraction(2)])[0] == Fraction(3, 2)
    b3 = macdonald_closed_form(parse_cartan_type("B3"))
    for q_o in (2, 3, 5):
        value, witness = b3.evaluate_witnessed([Fraction(-1, q_o), Fraction(q_o)])
        assert value == 0
        assert str(witness) == "(1 + t1·t2)"


def test_zero_requires_a_witness_factor():
    c3 = macdonald_closed_form(parse_cartan_type("C3"))
    value, witness = c3.evaluate_witnessed([Fraction(-1, 2), Fraction(-1, 2), Fraction(2)])
    assert value == 0 and witness is not None


def test_pole_error_names_the_factor():
    c2 = macdonald_closed_form(parse_cartan_type("C2"))
    # t1 = q_o makes 1 - t1^2*t2*t3 vanish with t2*t3 = 1/q_o^2
    with pytest.raises(PoleError) as exc_info:
        c2.evaluate_witnessed([Fraction(2), Fraction(-1, 2), Fraction(-1, 2)])
    assert "(1 - t1^2·t2·t3)" in str(exc_info.value)


def test_evaluate_rejects_wrong_dimension():
    a1 = macdonald_closed_form(parse_cartan_type("A1"))
    with pytest.raises(ValueError):
        a1.evaluate_witnessed([Fraction(1, 2)])


def test_evaluate_rejects_floats():
    a1 = macdonald_closed_form(parse_cartan_type("A1"))
    with pytest.raises(ValueError, match="exact rationals"):
        a1.evaluate_witnessed((0.1, 0.2))
    with pytest.raises(ValueError, match="exact rationals"):
        a1.evaluate_witnessed((Fraction(1, 2), 0.5))
    assert a1.evaluate_witnessed((2, Fraction(1, 3)))[0] == 12


def test_evaluate_witnessed_reads_numpy_coordinates_exactly():
    import numpy as np

    e8 = growth_closed_form(parse_cartan_type("E8"))
    value = Fraction(
        17840777533089687091642691715540857282421540709375, 267475063750837881481660207417764680571724574015692
    )
    assert e8.evaluate_witnessed((np.int64(-3),)) == e8.evaluate_witnessed((-3,)) == (value, None)


@pytest.mark.parametrize("label,degree", [("A1", 8), ("C2", 8), ("C3", 8), ("B3", 8), ("G2", 8), ("F4", 6)])
def test_expansion_matches_enumeration(label, degree):
    ctype = parse_cartan_type(label)
    ball = get_ball(label, degree)
    enumerated = counting_series(ball, degree)
    calibration = calibrate_indexing(ctype, 6)
    expanded = macdonald_closed_form(ctype).expand(degree).permute_variables(calibration.binding)
    assert expanded == enumerated


def test_bott_matches_enumeration():
    for label, degree in (("A2", 8), ("D4", 6)):
        ball = get_ball(label, degree)
        assert bott_closed_form(parse_cartan_type(label)).expand(degree) == counting_series(
            ball, degree
        )


@pytest.mark.parametrize(
    "label,degree",
    [("B4", 7), ("C4", 7), ("A3", 8), ("D5", 6), ("E6", 6), ("E7", 5), ("E8", 5)],
)
def test_expansion_matches_enumeration_remaining_types(label, degree):
    # every supported family and rank pattern, beyond the deep-degree suite
    ctype = parse_cartan_type(label)
    ball = get_ball(label, degree)
    enumerated = counting_series(ball, degree)
    system_m = ball.system.m
    if system_m == 1:
        expanded = bott_closed_form(ctype).expand(degree)
    else:
        binding = calibrate_indexing(ctype, 6).binding
        expanded = macdonald_closed_form(ctype).expand(degree).permute_variables(binding)
    assert expanded == enumerated


@pytest.mark.parametrize(
    "label,degree",
    # at degrees 1 and 2 a key digit reaches base - 1 = degree
    [(label, 12) for label in ALL_TYPES] + [("G2", 40)] + [(label, d) for label in ("A2", "G2", "C3") for d in (0, 1, 2)],
)
def test_expand_matches_reference_product(label, degree):
    form = growth_closed_form(parse_cartan_type(label))
    assert form.expand(degree) == truncated_product(form, degree)


def test_expand_term_cap():
    form = growth_closed_form(parse_cartan_type("C3"))
    with pytest.raises(TermLimitExceeded) as exc_info:
        form.expand(40, max_terms=100)
    assert isinstance(exc_info.value, ResourceLimitExceeded)
    assert "term cap 100" in str(exc_info.value)
    assert form.expand(40, max_terms=5_000_000) == form.expand(40)


@pytest.mark.parametrize("label,degree,cap,stopped_at", [("C3", 20, 50, 10), ("A1", 3000, 1000, 667), ("G2", 100, 500, 93)])
def test_expand_term_cap_degree(label, degree, cap, stopped_at):
    # the cap counts the nonzero terms stored up to each degree, after each factor
    with pytest.raises(TermLimitExceeded) as exc_info:
        growth_closed_form(parse_cartan_type(label)).expand(degree, max_terms=cap)
    assert exc_info.value.degree == stopped_at


def test_expand_memory_before_the_term_cap_is_bounded_per_term():
    # after dividing by (1 - t1), C3 stores about 12.5 terms per degree, so a
    # 60,000-term cap stops in the next division, far below the bound; the
    # traced peak is what the stored terms cost, under 160 B each
    form = growth_closed_form(parse_cartan_type("C3"))
    tracemalloc.start()
    try:
        with pytest.raises(TermLimitExceeded) as exc_info:
            form.expand(20000, max_terms=60_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc_info.value.degree == 4804
    assert peak < 160 * 60_000


def test_expand_work_before_the_term_cap_follows_the_terms():
    # A1 stores 1.5 terms per degree, so the cap fires at degree 667 whatever
    # the bound; only the degrees that hold terms may be allocated before it.
    form = growth_closed_form(parse_cartan_type("A1"))
    tracemalloc.start()
    try:
        with pytest.raises(TermLimitExceeded) as exc_info:
            form.expand(2 * 10**5, max_terms=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert exc_info.value.degree == 667
    assert peak < 1_000_000


def test_calibration_g2_unique_at_degree_8():
    result = calibrate_indexing(parse_cartan_type("G2"), 8)
    assert result.binding == (0, 1)
    assert result.matching == ((0, 1),)


def test_calibration_cn_symmetry():
    for label in ("C3", "C4"):
        result = calibrate_indexing(parse_cartan_type(label), 6)
        assert result.binding == (0, 1, 2)
        assert result.matching == ((0, 1, 2), (0, 2, 1))


def test_calibration_c2_is_not_identity():
    # all three C2 classes are singletons; the chain class {s_1} is second in
    # canonical order but plays the formula's t1 role
    result = calibrate_indexing(parse_cartan_type("C2"), 6)
    assert result.binding == (1, 0, 2)
    assert result.matching == ((1, 0, 2), (1, 2, 0))


def test_calibration_m1_identity():
    result = calibrate_indexing(parse_cartan_type("E6"), 4)
    assert result == CalibrationResult(parse_cartan_type("E6"), 4, (0,), ((0,),))


@pytest.mark.parametrize("label", ALL_TYPES)
def test_calibration_rejects_negative_degree(label):
    with pytest.raises(ValueError, match="degree must be >= 0"):
        calibrate_indexing(parse_cartan_type(label), -1)


def test_cn_evaluate_symmetric_in_last_two_coordinates():
    for label in ("C2", "C3", "C4"):
        form = macdonald_closed_form(parse_cartan_type(label))
        for point in ([Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)],
                      [Fraction(-1, 2), Fraction(2), Fraction(-1, 2)],
                      [Fraction(1, 2), Fraction(-1, 3), Fraction(1, 7)]):
            swapped = [point[0], point[2], point[1]]
            assert form.evaluate_witnessed(point)[0] == form.evaluate_witnessed(swapped)[0]


def test_expansion_value_converges_monotonically_at_positive_points():
    cases = [
        ("A1", [Fraction(1, 2), Fraction(1, 3)]),
        ("G2", [Fraction(1, 3), Fraction(1, 4)]),
        ("C2", [Fraction(1, 3), Fraction(1, 4), Fraction(1, 5)]),
        ("B3", [Fraction(1, 4), Fraction(1, 3)]),
        ("F4", [Fraction(1, 4), Fraction(1, 5)]),
    ]
    for label, point in cases:
        form = macdonald_closed_form(parse_cartan_type(label))
        value = form.evaluate_witnessed(point)[0]
        errors = [abs(value - truncated_value(form.expand(n), point)) for n in range(1, 8)]
        assert all(errors[i] > errors[i + 1] for i in range(len(errors) - 1)), label


def test_render_canonical():
    form = macdonald_closed_form(parse_cartan_type("A1"))
    assert str(form) == "(1 + t1)·(1 + t2) / (1 - t1·t2)"
    bott = bott_closed_form(parse_cartan_type("A2"))
    assert str(bott) == "(1 - t^2)·(1 - t^3) / (1 - t)^3·(1 - t^2)"


RENDERED_LABELS = "A1 A2 A3 B3 B4 C2 C3 C4 D4 E6 E7 E8 F4 G2 A9 B12 C12 D12".split()


def test_render_every_closed_form():
    text = "".join(f"{label}: {growth_closed_form(parse_cartan_type(label))}\n" for label in RENDERED_LABELS)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "c8842ef603f07833ad53e95be451c4007691e4de62892b5a1c5e0e0703745e18"


# ---------------------------------------------------------------------------
# The series derived from the diagram (Solomon's and Steinberg's identities)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "label,degree",
    # beyond ALL_TYPES: a longer cycle (A9), fork (D8, B12) and path (C12); at
    # C12/6, C30/6 and D12/8 most connected J have |J|(|J|+1)/2 > degree and are skipped
    [(label, 8) for label in ALL_TYPES]
    + [("A9", 5), ("D8", 5), ("B12", 4), ("C12", 4), ("C12", 6), ("C30", 6), ("D12", 8)],
)
def test_diagram_series_matches_counted_multilengths(label, degree):
    system = build_affine_system(parse_cartan_type(label))
    assert diagram_growth_series(system.ctype, degree) == count_multilengths(system, degree)


def test_diagram_series_forms_w0_only_within_the_degree(monkeypatch):
    # l(w0(J)) >= |J|(|J|+1)/2, so at degree 8 no J of 4 or more nodes needs t^{w0(J)}
    system = build_affine_system(parse_cartan_type("C12"))
    sizes = set()
    real = system.longest_multilength
    monkeypatch.setattr(system, "longest_multilength", lambda nodes: sizes.add(len(nodes)) or real(nodes))
    diagram_growth_series(system.ctype, 8)
    assert sizes == {1, 2, 3}


@pytest.mark.parametrize(
    "label,degree",
    [(label, 30) for label in ("A1", "B3", "B4", "C2", "C3", "C4", "F4", "G2")]
    + [(label, 14) for label in ("A2", "A3", "D4", "E6", "E7")]
    + [("E8", 10)],
)
def test_diagram_series_matches_closed_form(label, degree):
    # for the one-class types this checks exponents() through the Bott forms
    ctype = parse_cartan_type(label)
    expanded = growth_closed_form(ctype).expand(degree).permute_variables(calibrate_indexing(ctype).binding)
    assert diagram_growth_series(ctype, degree) == expanded


def test_calibration_imports_neither_weyl_nor_numpy():
    code = (
        "import sys\n"
        "import gyoja.distinction\n"
        "from gyoja.cartan import parse_cartan_type\n"
        "from gyoja.closed_forms import calibrate_indexing\n"
        "print(calibrate_indexing(parse_cartan_type('C4')).binding)\n"
        "print('gyoja.weyl' in sys.modules, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(0, 1, 2)\nFalse False\n"


_ANY2 = tuple(permutations(range(2)))
_ANY3 = tuple(permutations(range(3)))
_CN = ((0, 1, 2), ((0, 1, 2), (0, 2, 1)))

# (binding, matching) of calibrate_indexing(type, d) for d = 0..8, captured
# while calibration still compared against a counted ball.  Below degree 2
# the series cannot tell some classes apart, and the tie goes to the
# lexicographically first binding.
PINNED_CALIBRATIONS = {
    "A1": [((0, 1), _ANY2)] * 9,
    "B3": [((0, 1), _ANY2)] + [((0, 1), ((0, 1),))] * 8,
    "B4": [((0, 1), _ANY2)] + [((0, 1), ((0, 1),))] * 8,
    "C2": [((0, 1, 2), _ANY3)] * 2 + [((1, 0, 2), ((1, 0, 2), (1, 2, 0)))] * 7,
    "C3": [((0, 1, 2), _ANY3)] + [_CN] * 8,
    "C4": [((0, 1, 2), _ANY3)] + [_CN] * 8,
    "F4": [((0, 1), _ANY2)] + [((0, 1), ((0, 1),))] * 8,
    "G2": [((0, 1), _ANY2)] + [((0, 1), ((0, 1),))] * 8,
}


@pytest.mark.parametrize("label", sorted(PINNED_CALIBRATIONS))
def test_calibration_pinned_at_low_degrees(label):
    ctype = parse_cartan_type(label)
    got = [(r.binding, r.matching) for r in (calibrate_indexing(ctype, d) for d in range(9))]
    assert got == PINNED_CALIBRATIONS[label]


def _fraction_evaluation(form, point):
    """Value and witness with Fraction arithmetic term by term, or the vanishing denominator factor."""
    def value(f):
        return sum(c * prod(x**e for x, e in zip(point, exp)) for exp, c in f.terms)

    for f in form.denominator:
        if value(f) == 0:
            return "pole", f
    num = [value(f) for f in form.numerator]
    witness = next((f for f, v in zip(form.numerator, num) if v == 0), None)
    return prod(num) / prod(value(f) for f in form.denominator), witness


@pytest.mark.parametrize("label", ALL_TYPES)
def test_integer_evaluation_matches_fraction_reference(label):
    form = growth_closed_form(parse_cartan_type(label))
    grid = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2), Fraction(3, 7)]
    rng = random.Random(label)
    points = list(product(grid, repeat=form.nvars))
    points += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(form.nvars)) for _ in range(50)]
    poles = 0
    for point in points:
        expected = _fraction_evaluation(form, point)
        if expected[0] == "pole":
            poles += 1
            with pytest.raises(PoleError) as exc_info:
                form.evaluate_witnessed(point)
            assert exc_info.value.factor == expected[1]
            assert str(exc_info.value) == f"denominator factor {expected[1]} vanishes at ({', '.join(map(str, point))})"
        else:
            assert form.evaluate_witnessed(point) == expected
    assert poles > 0
