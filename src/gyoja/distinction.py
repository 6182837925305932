"""Distinction of degree-1 discrete series via growth-series values.

For a sign character eps (one sign per generator class) the invariant
functional attached to the corresponding 1-dimensional module is, up to the
pairing, the number

    W(eps_1 * q_o^(eps_1), ..., eps_m * q_o^(eps_m)),

i.e. the multi-variable growth series evaluated at -1/q_o on the classes
sent to -1 and at q_o on the classes sent to q.  The module is distinguished
exactly when the value is nonzero, and then with multiplicity one: the rank
of a nonzero scalar bounds the multiplicity below, and the fixed-space
dimension (here 1) bounds it above.

Evaluation goes through the verbatim factor lists of
:mod:`gyoja.closed_forms`, so every zero verdict carries the name of an
exactly-vanishing numerator factor and evaluation at a pole is an error
rather than a value.  A zero is therefore always forced algebraically,
independent of q_o, which the test suite confirms across several q_o.

Characters outside the discrete-series list still define a point to plug
into the closed form, but the defining series need not converge there; such
inputs are accepted only with ``formal=True`` and emit a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import TYPE_CHECKING

from .cartan import (
    CartanType,
    SignCharacter,
    borel_discrete_series_list,
    build_affine_system,
)
from .closed_forms import PoleError, calibrate_indexing, growth_closed_form

if TYPE_CHECKING:
    from .weyl import GroupElement

__all__ = [
    "NotDiscreteSeriesError",
    "BindingDependentVerdictError",
    "EvaluationPoint",
    "DistinctionVerdict",
    "distinction_value",
    "distinction_value_witnessed",
    "classify",
    "expected_distinguished",
    "robustness_check",
    "RobustnessReport",
    "BindingOutcome",
    "coefficient_value_on_cell",
    "verdict_json_dict",
    "render_markdown_table",
]


class NotDiscreteSeriesError(ValueError):
    """The sign character is not on the discrete-series list (and formal=False)."""


class BindingDependentVerdictError(RuntimeError):
    """A distinguished/not verdict changed under a variable rebinding."""


@dataclass(frozen=True)
class EvaluationPoint:
    """Per-class coordinates eps_i * q_o^(eps_i), in canonical class order."""

    coordinates: tuple[Fraction, ...]

    @staticmethod
    def from_character(eps: SignCharacter, q_o: int) -> "EvaluationPoint":
        if q_o < 2:
            raise ValueError("q_o must be >= 2 (a residue field size)")
        return EvaluationPoint(tuple(s * Fraction(q_o) ** s for s in eps.signs))


@dataclass(frozen=True)
class DistinctionVerdict:
    """Outcome for one (type, character, q_o) triple."""

    ctype: CartanType
    epsilon: SignCharacter
    q_o: int
    value: Fraction
    zero_witness: str | None

    def __post_init__(self) -> None:
        if not self.distinguished:
            assert self.zero_witness is not None

    @property
    def distinguished(self) -> bool:
        return self.value != 0

    @property
    def multiplicity_lower(self) -> int:
        return 1 if self.distinguished else 0

    @property
    def multiplicity_upper(self) -> int:
        return 1

    @property
    def is_steinberg(self) -> bool:
        return self.epsilon.is_steinberg

    @property
    def multiplicity_interval(self) -> tuple[int, int]:
        return (self.multiplicity_lower, self.multiplicity_upper)


def _check_on_list(ctype: CartanType, eps: SignCharacter, formal: bool) -> None:
    system = build_affine_system(ctype)
    if len(eps.signs) != system.m:
        raise ValueError(
            f"{ctype.label} has {system.m} generator classes; got sign vector {eps}"
        )
    if eps in borel_discrete_series_list(ctype):
        return
    if not formal:
        raise NotDiscreteSeriesError(
            f"{eps} is not a discrete-series character of type {ctype.label}; "
            "pass formal=True to evaluate the closed form anyway"
        )
    warnings.warn(
        f"{eps} is not a discrete-series character of type {ctype.label}: the "
        "defining series need not converge; value is a formal evaluation of "
        "the closed form",
        stacklevel=3,
    )


def distinction_value_witnessed(
    ctype: CartanType, eps: SignCharacter, q_o: int, formal: bool = False
) -> tuple[Fraction, str | None]:
    """Exact value of the criterion and the vanishing factor when it is zero."""
    _check_on_list(ctype, eps, formal)
    point = EvaluationPoint.from_character(eps, q_o)
    coords = calibrate_indexing(ctype).point_for_classes(point.coordinates)
    value, witness = growth_closed_form(ctype).evaluate_witnessed(coords)
    return value, None if witness is None else str(witness)


def distinction_value(
    ctype: CartanType, eps: SignCharacter, q_o: int, formal: bool = False
) -> Fraction:
    return distinction_value_witnessed(ctype, eps, q_o, formal=formal)[0]


def classify(ctype: CartanType, q_o: int) -> list[DistinctionVerdict]:
    """One verdict per discrete-series sign character of the type."""
    verdicts = []
    for eps in borel_discrete_series_list(ctype):
        value, witness = distinction_value_witnessed(ctype, eps, q_o)
        verdicts.append(DistinctionVerdict(ctype, eps, q_o, value, witness))
    return verdicts


def expected_distinguished(ctype: CartanType, eps: SignCharacter) -> bool:
    """The known classification: Steinberg always, plus (-1, 1) in type G2."""
    if eps.is_steinberg:
        return True
    return ctype.family == "G" and eps.signs == (-1, 1)


# ---------------------------------------------------------------------------
# Indexing robustness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BindingOutcome:
    binding: tuple[int, ...]
    value: Fraction | None
    pole: str | None

    @property
    def distinguished(self) -> bool | None:
        return None if self.value is None else self.value != 0


@dataclass(frozen=True)
class RobustnessReport:
    ctype: CartanType
    epsilon: SignCharacter
    q_o: int
    outcomes: tuple[BindingOutcome, ...]
    distinguished: bool

    @property
    def clean_outcomes(self) -> tuple[BindingOutcome, ...]:
        return tuple(o for o in self.outcomes if o.pole is None)


def robustness_check(ctype: CartanType, eps: SignCharacter, q_o: int = 2) -> RobustnessReport:
    """Evaluate the criterion under every class-to-variable binding.

    The distinguished/not verdict must be independent of the binding; a
    disagreement means a transcribed-formula or partition bug and raises
    :class:`BindingDependentVerdictError`.  A binding at which the closed
    form has a pole (this happens for the non-Steinberg C2/C3 characters
    under the rebinding that sends the +1 class to the coupled variable,
    where the limit exists but the displayed form is singular) cannot
    produce a verdict; it is recorded and skipped, and the calibrated
    binding itself is required to be pole-free.
    """
    system = build_affine_system(ctype)
    m = system.m
    if len(eps.signs) != m:
        raise ValueError(f"{ctype.label} has {m} generator classes; got sign vector {eps}")
    point = EvaluationPoint.from_character(eps, q_o)
    form = growth_closed_form(ctype)
    calibrated = calibrate_indexing(ctype).binding
    outcomes = []
    for perm in permutations(range(m)):
        coords = tuple(point.coordinates[c] for c in perm)
        try:
            value, _ = form.evaluate_witnessed(coords)
            outcomes.append(BindingOutcome(perm, value, None))
        except PoleError as exc:
            if perm == calibrated:
                raise
            outcomes.append(BindingOutcome(perm, None, str(exc.factor)))
    verdicts = {o.distinguished for o in outcomes if o.pole is None}
    if len(verdicts) != 1:
        raise BindingDependentVerdictError(
            f"verdict for {ctype.label} {eps} at q_o={q_o} depends on the "
            f"class-to-variable binding: {outcomes}"
        )
    return RobustnessReport(ctype, eps, q_o, tuple(outcomes), verdicts.pop())


# ---------------------------------------------------------------------------
# Cell-by-cell coefficient values
# ---------------------------------------------------------------------------


def coefficient_value_on_cell(eps: SignCharacter, element: GroupElement, q_o: int) -> Fraction:
    """Contribution of one double-cell to the invariant functional.

    The cell indexed by w carries measure q_o^(l(w)), the normalized
    coefficient value on it is r(e_w) / q^(l(w)) with q = q_o^2, so the
    contribution is r(e_w) * q_o^(-l(w)).
    """
    from .hecke import char_value_e_w

    return char_value_e_w(eps, element.multilength, q_o) * Fraction(1, q_o) ** element.length


# ---------------------------------------------------------------------------
# Renderers
# ---------------------------------------------------------------------------

VERDICT_SCHEMA_VERSION = 1


def verdict_json_dict(v: DistinctionVerdict) -> dict:
    doc = {
        "type": v.ctype.label,
        "rank": v.ctype.rank,
        "epsilon": list(v.epsilon.signs),
        "q_o": v.q_o,
        "value": str(v.value),
        "distinguished": v.distinguished,
        "multiplicity": [v.multiplicity_lower, v.multiplicity_upper],
        "is_steinberg": v.is_steinberg,
    }
    if v.zero_witness is not None:
        doc["zero_witness"] = v.zero_witness
    return doc


def render_markdown_table(verdicts: list[DistinctionVerdict]) -> str:
    lines = [
        "| type | epsilon | q_o | value | distinguished | multiplicity | zero witness |",
        "|------|---------|-----|-------|---------------|--------------|--------------|",
    ]
    for v in verdicts:
        eps = "(" + ", ".join(f"{s:+d}" for s in v.epsilon.signs) + ")"
        name = "Steinberg" if v.is_steinberg else eps
        lines.append(
            f"| {v.ctype.label} | {name} | {v.q_o} | {v.value} | "
            f"{'yes' if v.distinguished else 'no'} | "
            f"[{v.multiplicity_lower}, {v.multiplicity_upper}] | "
            f"{v.zero_witness or ''} |"
        )
    return "\n".join(lines)
