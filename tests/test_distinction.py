import json
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

import gyoja.cli as cli
import gyoja.distinction as distinction_module
from _oracles import ball_elements
from conftest import get_ball
from gyoja.cartan import (
    SignCharacter,
    borel_discrete_series_list,
    build_affine_system,
    parse_cartan_type,
    steinberg_character,
)
from gyoja.closed_forms import CalibrationResult, ClosedForm, Factor
from gyoja.counting import char_value_e_w
from gyoja.distinction import (
    BindingDependentVerdictError,
    DistinctionVerdict,
    NotDiscreteSeriesError,
    classify,
    distinction_value,
    distinction_value_witnessed,
    expected_distinguished,
    robustness_check,
)
from gyoja.hecke import partial_sums_at_point

SWEEP_TYPES = ["A1", "A2", "A3", "B3", "B4", "C2", "C3", "C4", "D4", "F4", "G2", "E6"]
SWEEP_QO = [2, 3, 4, 5, 7]


def test_evaluation_point_coordinates():
    point = distinction_module._point(SignCharacter((-1, 1, -1)), 3)
    assert point == (Fraction(-1, 3), Fraction(3), Fraction(-1, 3))
    with pytest.raises(ValueError):
        distinction_module._point(SignCharacter((-1,)), 1)


@pytest.mark.parametrize("q_o", [1, Fraction(5, 2)])
def test_evaluation_needs_an_integer_qo_of_at_least_2(q_o):
    g2 = parse_cartan_type("G2")
    with pytest.raises(ValueError, match="q_o must be >= 2"):
        distinction_value(g2, steinberg_character(g2), q_o)
    with pytest.raises(ValueError, match="q_o must be >= 2"):
        classify(g2, q_o)


def test_numpy_integer_qo_is_stored_as_a_python_int():
    g2 = parse_cartan_type("G2")
    verdicts = classify(g2, np.int64(3))
    assert verdicts == classify(g2, 3) and all(type(v.q_o) is int for v in verdicts)
    assert type(robustness_check(g2, steinberg_character(g2), np.int64(3)).q_o) is int


def test_a1_steinberg_spot_values():
    t = parse_cartan_type("A1")
    for q_o in (2, 3, 5):
        assert distinction_value(t, SignCharacter((-1, -1)), q_o) == Fraction(q_o - 1, q_o + 1)


def test_g2_extra_character_spot_value():
    assert distinction_value(parse_cartan_type("G2"), SignCharacter((-1, 1)), 2) == Fraction(3, 2)


def test_b3_zero_with_witness():
    value, witness = distinction_value_witnessed(parse_cartan_type("B3"), SignCharacter((-1, 1)), 3)
    assert value == 0
    assert witness == "(1 + t1·t2)"


def test_classify_g2():
    verdicts = classify(parse_cartan_type("G2"), 2)
    assert [v.epsilon.signs for v in verdicts] == [(-1, -1), (-1, 1)]
    assert all(v.distinguished for v in verdicts)
    assert all(v.multiplicity_interval == (1, 1) for v in verdicts)
    assert verdicts[0].is_steinberg and not verdicts[1].is_steinberg


def test_classify_c4():
    verdicts = classify(parse_cartan_type("C4"), 5)
    assert verdicts[0].is_steinberg and verdicts[0].distinguished
    zeros = {v.epsilon.signs: v.zero_witness for v in verdicts[1:]}
    assert zeros == {
        (-1, -1, 1): "(1 + t1·t3)",
        (-1, 1, -1): "(1 + t1·t2)",
        (-1, 1, 1): "(1 + t1·t2)",
    }
    assert all(not v.distinguished for v in verdicts[1:])


def test_classify_f4():
    verdicts = classify(parse_cartan_type("F4"), 2)
    assert [v.distinguished for v in verdicts] == [True, False]
    assert verdicts[1].zero_witness == "(1 + t1·t2)"


def test_classify_e7_steinberg_only():
    verdicts = classify(parse_cartan_type("E7"), 2)
    assert len(verdicts) == 1
    assert verdicts[0].is_steinberg and verdicts[0].distinguished


def test_full_sweep_matches_known_classification():
    for label in SWEEP_TYPES:
        ctype = parse_cartan_type(label)
        per_eps_verdicts: dict[tuple[int, ...], set[bool]] = {}
        for q_o in SWEEP_QO:
            for v in classify(ctype, q_o):
                assert v.distinguished == expected_distinguished(ctype, v.epsilon), (label, q_o, v)
                if not v.distinguished:
                    assert v.zero_witness is not None
                per_eps_verdicts.setdefault(v.epsilon.signs, set()).add(v.distinguished)
        # verdict stability: the same eps never changes verdict across q_o
        assert all(len(s) == 1 for s in per_eps_verdicts.values())


def test_multiplicity_contract():
    for label in SWEEP_TYPES:
        for v in classify(parse_cartan_type(label), 3):
            if v.distinguished:
                assert v.multiplicity_interval == (1, 1)
            else:
                assert v.multiplicity_interval == (0, 1)


def test_steinberg_positive_for_all_supported_types():
    for label in ["A1", "A2", "A3", "B3", "B4", "C2", "C3", "C4", "D4", "D5", "E6", "E7", "E8", "F4", "G2"]:
        ctype = parse_cartan_type(label)
        for q_o in (2, 3, 4, 5):
            assert distinction_value(ctype, steinberg_character(ctype), q_o) > 0, (label, q_o)


def test_verdict_invariants_enforced():
    g2 = parse_cartan_type("G2")
    with pytest.raises(AssertionError):  # a zero carries its witness
        DistinctionVerdict(ctype=g2, epsilon=SignCharacter((-1, -1)), q_o=2, value=Fraction(0), zero_witness=None)
    zero = DistinctionVerdict(g2, SignCharacter((-1, 1)), 2, Fraction(0), "(1 + t1)")
    assert (zero.distinguished, zero.multiplicity_interval, zero.is_steinberg) == (False, (0, 1), False)
    nonzero = DistinctionVerdict(g2, SignCharacter((-1, -1)), 2, Fraction(7, 33), None)
    assert (nonzero.distinguished, nonzero.multiplicity_interval, nonzero.is_steinberg) == (True, (1, 1), True)


def test_verdict_invariant_holds_under_python_O():
    code = (
        "from fractions import Fraction\n"
        "from gyoja.cartan import SignCharacter, parse_cartan_type\n"
        "from gyoja.distinction import DistinctionVerdict\n"
        "DistinctionVerdict(parse_cartan_type('C2'), SignCharacter((-1, -1, -1)), 2, Fraction(0), None)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode != 0
    assert "AssertionError: a zero verdict needs a zero witness" in proc.stderr


def test_high_rank_verdicts_match_the_classification():
    verdicts = [
        v
        for label in ("C12", "B12", "C20", "B20", "C30", "B30")
        for q_o in (2, 3)
        for v in classify(parse_cartan_type(label), q_o)
    ]
    assert len(verdicts) == 36
    for v in verdicts:
        assert v.distinguished == expected_distinguished(v.ctype, v.epsilon), v
        assert v.distinguished or v.zero_witness is not None, v


def test_off_list_characters_are_gated():
    g2 = parse_cartan_type("G2")
    with pytest.raises(NotDiscreteSeriesError):
        distinction_value(g2, SignCharacter((1, 1)), 2)
    with pytest.raises(NotDiscreteSeriesError):
        robustness_check(g2, SignCharacter((1, 1)), 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = distinction_value(g2, SignCharacter((1, 1)), 2, formal=True)
    # hand substitution: 3*7*3*21 / ((-7)*(-31))
    assert value == Fraction(189, 31)
    assert len(caught) == 1 and "formal" in str(caught[0].message)


def test_wrong_sign_vector_length_rejected():
    with pytest.raises(ValueError):
        distinction_value(parse_cartan_type("C3"), SignCharacter((-1, 1)), 2)


def test_robustness_g2():
    report = robustness_check(parse_cartan_type("G2"), SignCharacter((-1, 1)), 2)
    assert report.distinguished is True
    values = sorted(o.value for o in report.outcomes)
    assert values == [Fraction(-7, 2), Fraction(3, 2)]
    assert all(o.pole is None for o in report.outcomes)


def test_robustness_b3_zero_under_both_bindings():
    report = robustness_check(parse_cartan_type("B3"), SignCharacter((-1, 1)), 2)
    assert report.distinguished is False
    assert [o.value for o in report.outcomes] == [Fraction(0), Fraction(0)]


def test_robustness_steinberg_symmetric_point():
    for label in ("A1", "B4", "C3", "F4", "G2"):
        ctype = parse_cartan_type(label)
        report = robustness_check(ctype, steinberg_character(ctype), 2)
        assert report.distinguished is True
        values = {o.value for o in report.outcomes}
        assert len(values) == 1  # all coordinates equal, binding irrelevant


def test_robustness_c2_poles_are_skipped():
    report = robustness_check(parse_cartan_type("C2"), SignCharacter((-1, -1, 1)), 2)
    assert report.distinguished is False
    poles = {o.binding for o in report.outcomes if o.pole is not None}
    # the rebinding that sends the +1 end class to the coupled variable is
    # singular; the remaining four bindings all witness the zero
    assert poles == {(2, 0, 1), (2, 1, 0)}
    assert all(o.value == 0 for o in report.clean_outcomes)
    assert len(report.clean_outcomes) == 4


def test_robustness_every_borel_character():
    for label in ("A1", "B3", "B4", "C2", "C3", "C4", "F4", "G2"):
        ctype = parse_cartan_type(label)
        for eps in borel_discrete_series_list(ctype):
            report = robustness_check(ctype, eps, 2)
            assert report.distinguished == expected_distinguished(ctype, eps)


def test_robustness_m1_single_binding():
    report = robustness_check(parse_cartan_type("A2"), SignCharacter((-1,)), 2)
    assert report.distinguished is True and len(report.outcomes) == 1


def test_binding_dependent_verdict_is_a_hard_failure(monkeypatch):
    ctype = parse_cartan_type("C2")
    fake_form = ClosedForm(3, (Factor((0, 1, 1)),), ())
    monkeypatch.setattr(distinction_module, "growth_closed_form", lambda t: fake_form)
    monkeypatch.setattr(
        distinction_module,
        "calibrate_indexing",
        lambda t, degree=6: CalibrationResult(ctype, 6, (0, 1, 2), ((0, 1, 2),)),
    )
    with pytest.raises(BindingDependentVerdictError):
        robustness_check(ctype, SignCharacter((-1, -1, 1)), 2)


def test_char_value_reads_numpy_lengths_exactly():
    # a ball level's multilength rows are int64; q**40 = 4**40 does not fit in one
    assert char_value_e_w(SignCharacter((1, 1)), (np.int64(40), 0), 2) == 4**40


def test_cell_sums_reproduce_partial_sums():
    ball = get_ball("C2", 6)
    eps = SignCharacter((-1, -1, 1))
    sums = partial_sums_at_point(ball.system, eps, 2, radius=ball.radius)
    by_length = [Fraction(0)] * (ball.radius + 1)
    for el in ball_elements(ball):
        by_length[el.length] += char_value_e_w(eps, el.multilength, 2) * Fraction(1, 2) ** el.length
    by_hand = [sum(by_length[: k + 1]) for k in range(ball.radius + 1)]
    assert by_hand == sums


def test_partial_sums_converge_to_distinction_value():
    # Steinberg: strictly shrinking error; others: shrinking windowed max
    for label in ("A1", "C2", "G2"):
        ctype = parse_cartan_type(label)
        system = build_affine_system(ctype)
        for eps in borel_discrete_series_list(ctype):
            for q_o in (2, 3):
                value = distinction_value(ctype, eps, q_o)
                sums = partial_sums_at_point(system, eps, q_o, radius=14)
                errors = [abs(s - value) for s in sums]
                if eps.is_steinberg:
                    assert all(errors[k] > errors[k + 1] for k in range(14)), (label, q_o)
                else:
                    early = max(errors[3:8])
                    late = max(errors[10:15])
                    assert late < early, (label, eps, q_o)


def _classify_output(label, fmt, capsys):
    assert cli.main(["classify", "--type", label, "--qo", "2", "--format", fmt]) == 0
    return capsys.readouterr().out


def test_verdict_json_schema(capsys):
    doc = json.loads(_classify_output("B3", "json", capsys))
    assert (doc["schema"], doc["schema_version"], len(doc["verdicts"])) == ("gyoja-verdicts", 1, 2)
    st, v = doc["verdicts"]
    assert v == {
        "type": "B3",
        "rank": 3,
        "epsilon": [-1, 1],
        "q_o": 2,
        "value": "0",
        "distinguished": False,
        "multiplicity": [0, 1],
        "is_steinberg": False,
        "zero_witness": "(1 + t1·t2)",
    }
    assert "zero_witness" not in st


def test_markdown_table(capsys):
    lines = _classify_output("G2", "markdown", capsys).splitlines()
    assert lines[0].startswith("| type |")
    assert len(lines) == 4
    assert "| G2 | Steinberg | 2 | 7/33 | yes | [1, 1] |" in lines[2]
