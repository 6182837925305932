"""Product formulas for the (multi-variable) growth series of affine Weyl groups.

The growth series W(t) (one variable per generator conjugacy class) of an
irreducible affine Weyl group is a rational function with a classical
product expression:

* one class (simply-laced affine types): the single-variable product over
  the exponents of the finite Weyl group,
* two or three classes: Macdonald's type-by-type displays (A1, Bn, G2, F4
  with two variables; Cn with three).

Forms are kept verbatim as factor lists -- numerator and denominator are
multisets of polynomials with constant term +1 (binomials ``1 +- monomial``
and, in G2 and F4, a few longer monomial sums).
Nothing is expanded or simplified at construction time; equality of forms is
decided by truncated expansion, and evaluation walks the factors so that an
exact zero is always witnessed by a vanishing numerator factor, never by
cancellation.

:meth:`ClosedForm.expand` works in plain ints on one series held as a dict
per total degree.  Every factor has constant term +1 and integer
coefficients, so a numerator factor 1 + sum c*x^e is one shifted add of the
accumulator per non-constant term, and a denominator factor is exact
division, q[k] = a[k] - sum c*q[k - e], walked in increasing total degree so
that each q[k] is final before anything reads it.  A factor of length L
costs O(terms * L); a ``TruncatedSeries`` is built once, at the end.

The formula's variable order is a convention external to this module;
:func:`calibrate_indexing` pins the class-to-variable binding by matching
the expansion against the enumerated class-graded series.  (For Cn the end
node swap is a symmetry of the formula, so exactly two bindings match and
the canonical class order breaks the tie; for C2 in particular the matching
bindings send the chain class {s_1} to the first formula variable, which is
*not* the identity binding.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Sequence

from .cartan import CartanType, build_affine_system, exponents
from .series import TruncatedSeries, _divide_by, _merged, _multiply_by, _tail, from_counts, render_monomial
from .limits import ResourceLimitExceeded

__all__ = [
    "Factor",
    "ClosedForm",
    "PoleError",
    "CalibrationError",
    "TermLimitExceeded",
    "bott_closed_form",
    "macdonald_closed_form",
    "growth_closed_form",
    "calibrate_indexing",
    "CalibrationResult",
]

Exponent = tuple[int, ...]


class PoleError(ZeroDivisionError):
    """A denominator factor vanishes at the requested point."""

    def __init__(self, factor: "Factor", point: Sequence[Fraction]):
        pt = "(" + ", ".join(str(x) for x in point) + ")"
        super().__init__(f"denominator factor {factor} vanishes at {pt}")
        self.factor = factor
        self.point = tuple(point)


class CalibrationError(RuntimeError):
    """No class-to-variable binding matches the enumerated series."""


class TermLimitExceeded(ResourceLimitExceeded):
    """An expansion stored more terms than the cap allows by some total degree."""

    def __init__(self, degree: int, cap: int):
        super().__init__(degree - 1, cap)
        self.degree = degree

    def __str__(self) -> str:
        return f"term cap {self.cap} exceeded at total degree {self.degree}"


@dataclass(frozen=True)
class Factor:
    """Polynomial factor with constant term +1, e.g. (1 - t1^2*t2).

    ``terms`` maps exponent vectors to integer coefficients; the zero
    exponent must be present with coefficient +1, so the factor is
    invertible as a power series.
    """

    nvars: int
    terms: tuple[tuple[Exponent, int], ...]

    @staticmethod
    def make(nvars: int, terms: dict[Exponent, int]) -> "Factor":
        zero_exp = (0,) * nvars
        if terms.get(zero_exp) != 1:
            raise ValueError(f"factor constant term must be +1, got {terms.get(zero_exp)}")
        if any(len(e) != nvars or min(e) < 0 for e in terms):
            raise ValueError("malformed exponent vector in factor")
        items = tuple(sorted(((tuple(e), int(c)) for e, c in terms.items() if c != 0)))
        return Factor(nvars, items)

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for exp, c in self.terms:
            term = Fraction(c)
            for x, e in zip(point, exp):
                term *= x**e
            total += term
        return total

    def permute_variables(self, perm: Sequence[int]) -> "Factor":
        remap = {}
        for exp, c in self.terms:
            new = [0] * self.nvars
            for i, e in enumerate(exp):
                new[perm[i]] = e
            remap[tuple(new)] = c
        return Factor.make(self.nvars, remap)

    def __str__(self) -> str:
        names = ["t"] if self.nvars == 1 else [f"t{i + 1}" for i in range(self.nvars)]
        parts = []
        for exp, c in sorted(self.terms, key=lambda item: (sum(item[0]), tuple(-e for e in item[0]))):
            mono = render_monomial(names, exp)
            if not mono:
                parts.append(str(c))
            else:
                sign = "+ " if c > 0 else "- "
                mag = abs(c)
                parts.append(sign + (mono if mag == 1 else f"{mag}·{mono}"))
        return "(" + " ".join(parts) + ")"


def _count_terms(levels: list[dict], degrees: Iterable[int], cap: int | None) -> None:
    """Walk ``degrees`` in order; raise once the terms stored up to one pass ``cap``."""
    stored = 0
    for d in degrees:
        stored += len(levels[d])
        if cap is not None and stored > cap:
            raise TermLimitExceeded(d, cap)


def _mono(nvars: int, sign: int, **powers: int) -> Factor:
    """Factor 1 + sign * t1^a1*...*tm^am given powers as t1=, t2=, t3=."""
    exp = [0] * nvars
    for name, p in powers.items():
        exp[int(name[1:]) - 1] = p
    if not any(exp):
        raise ValueError("monomial part must be non-constant")
    return Factor.make(nvars, {(0,) * nvars: 1, tuple(exp): sign})


@dataclass(frozen=True)
class ClosedForm:
    """product(numerator) / product(denominator), factors verbatim."""

    nvars: int
    numerator: tuple[Factor, ...]
    denominator: tuple[Factor, ...]

    def __post_init__(self) -> None:
        for f in self.numerator + self.denominator:
            if f.nvars != self.nvars:
                raise ValueError("factor variable count mismatch")

    def expand(self, bound: int, max_terms: int | None = None) -> TruncatedSeries:
        """Truncated expansion to total degree ``bound``, in plain ints.

        Each numerator factor is one shifted add per non-constant term, each
        denominator factor one exact division (see ``series._divide_by``).
        With ``max_terms``, the stored terms are counted once per total
        degree, and :class:`TermLimitExceeded` is raised as soon as they
        pass the cap.
        """
        levels = [{(0,) * self.nvars: 1}] + [{} for _ in range(bound)]
        for f in self.numerator:
            _multiply_by(levels, _tail(f.terms))
            _count_terms(levels, range(bound + 1), max_terms)
        for f in self.denominator:
            _count_terms(levels, _divide_by(levels, _tail(f.terms)), max_terms)
        return TruncatedSeries(self.nvars, bound, _merged(levels))

    def evaluate_witnessed(self, point: Sequence[Fraction | int]) -> tuple[Fraction, Factor | None]:
        """Exact value and, when it is zero, the vanishing numerator factor.

        A pole (vanishing denominator factor) raises :class:`PoleError` even
        when a numerator factor vanishes as well; values are never inferred
        from cancellation.
        """
        pt = [Fraction(x) for x in point]
        if len(pt) != self.nvars:
            raise ValueError("point dimension mismatch")
        for f in self.denominator:
            if f.evaluate(pt) == 0:
                raise PoleError(f, pt)
        witness = None
        value = Fraction(1)
        for f in self.numerator:
            v = f.evaluate(pt)
            if v == 0 and witness is None:
                witness = f
            value *= v
        for f in self.denominator:
            value /= f.evaluate(pt)
        if witness is not None:
            assert value == 0
        return value, witness

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        return self.evaluate_witnessed(point)[0]

    def permute_variables(self, perm: Sequence[int]) -> "ClosedForm":
        return ClosedForm(
            self.nvars,
            tuple(f.permute_variables(perm) for f in self.numerator),
            tuple(f.permute_variables(perm) for f in self.denominator),
        )

    def cancel(self) -> "ClosedForm":
        """Remove factors common to the numerator and denominator multisets."""
        den = list(self.denominator)
        num: list[Factor] = []
        for f in self.numerator:
            try:
                den.remove(f)
            except ValueError:
                num.append(f)
        return ClosedForm(self.nvars, tuple(num), tuple(den))

    def __str__(self) -> str:
        def side(factors: tuple[Factor, ...]) -> str:
            if not factors:
                return "1"
            counts: dict[Factor, int] = {}
            for f in factors:
                counts[f] = counts.get(f, 0) + 1
            parts = []
            for f in sorted(counts, key=str):
                k = counts[f]
                parts.append(str(f) if k == 1 else f"{f}^{k}")
            return "·".join(parts)

        return f"{side(self.numerator)} / {side(self.denominator)}"


# ---------------------------------------------------------------------------
# The formulas
# ---------------------------------------------------------------------------


def bott_closed_form(ctype: CartanType) -> ClosedForm:
    """Single-variable growth series product over the exponents.

    W(t) = prod_i (1 - t^(e_i + 1)) / ((1 - t)(1 - t^(e_i))), one factor
    triple per exponent.  Only valid for the one-class affine types.  The
    formula is sometimes displayed with a subscripted t inside the product;
    it is read here with the single variable throughout, a choice pinned by
    the expansion-vs-enumeration tests.
    """
    system = build_affine_system(ctype)
    if system.m != 1:
        raise ValueError(f"{ctype.label} has m={system.m} generator classes; need m=1")
    num = []
    den = []
    for e in exponents(ctype):
        num.append(_mono(1, -1, t1=e + 1))
        den.append(_mono(1, -1, t1=1))
        den.append(_mono(1, -1, t1=e))
    return ClosedForm(1, tuple(num), tuple(den))


def macdonald_closed_form(ctype: CartanType) -> ClosedForm:
    """Multi-variable growth series display for the m in {2,3} affine types.

    Transcribed factor-by-factor; Bn and Cn are instantiated at the given
    rank, F4 keeps its i = 1..3 product block and trailing factors.
    """
    system = build_affine_system(ctype)
    m = system.m
    fam, n = ctype.family, ctype.rank
    if m == 1:
        raise ValueError(f"{ctype.label} has a single generator class; use bott_closed_form")

    if fam == "A":  # A1
        return ClosedForm(
            2,
            (_mono(2, 1, t1=1), _mono(2, 1, t2=1)),
            (Factor.make(2, {(0, 0): 1, (1, 1): -1}),),
        )
    if fam == "G":
        num = (
            _mono(2, 1, t1=1),
            Factor.make(2, {(0, 0): 1, (1, 0): 1, (2, 0): 1}),
            _mono(2, 1, t2=1),
            Factor.make(2, {(0, 0): 1, (1, 1): 1, (2, 2): 1}),
        )
        den = (
            Factor.make(2, {(0, 0): 1, (2, 1): -1}),
            Factor.make(2, {(0, 0): 1, (3, 2): -1}),
        )
        return ClosedForm(2, num, den)
    if fam == "B":
        num = [_mono(2, -1, t1=n)]
        den = [_mono(2, -1, t1=1) for _ in range(n)]
        num += [_mono(2, -1, t1=2 * i) for i in range(1, n)]
        for i in range(n):
            num.append(Factor.make(2, {(0, 0): 1, (i, 1): 1}))
            den.append(Factor.make(2, {(0, 0): 1, (n - 1 + i, 1): -1}))
        return ClosedForm(2, tuple(num), tuple(den))
    if fam == "F":
        num = []
        den = []
        for i in range(1, 4):
            num.append(_mono(2, -1, t1=i + 1))
            num.append(Factor.make(2, {(0, 0): 1, (i, 1): 1}))
            num.append(_mono(2, -1, t2=i))
            den.append(_mono(2, -1, t1=1))
            den.append(_mono(2, -1, t2=1))
        num += [
            Factor.make(2, {(0, 0): 1, (1, 2): 1}),
            Factor.make(2, {(0, 0): 1, (2, 2): 1}),
            Factor.make(2, {(0, 0): 1, (3, 3): 1}),
        ]
        den += [
            Factor.make(2, {(0, 0): 1, (3, 2): -1}),
            Factor.make(2, {(0, 0): 1, (4, 3): -1}),
            Factor.make(2, {(0, 0): 1, (5, 3): -1}),
            Factor.make(2, {(0, 0): 1, (6, 5): -1}),
        ]
        return ClosedForm(2, tuple(num), tuple(den))
    # Cn
    num = []
    den = []
    for i in range(n):
        num.append(_mono(3, -1, t1=i + 1))
        num.append(Factor.make(3, {(0, 0, 0): 1, (i, 1, 0): 1}))
        num.append(Factor.make(3, {(0, 0, 0): 1, (i, 0, 1): 1}))
        den.append(_mono(3, -1, t1=1))
        den.append(Factor.make(3, {(0, 0, 0): 1, (n - 1 + i, 1, 1): -1}))
    return ClosedForm(3, tuple(num), tuple(den))


def growth_closed_form(ctype: CartanType) -> ClosedForm:
    """The applicable product formula for any supported type."""
    system = build_affine_system(ctype)
    return bott_closed_form(ctype) if system.m == 1 else macdonald_closed_form(ctype)


# ---------------------------------------------------------------------------
# Class-to-variable calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of matching formula variables to generator classes.

    ``binding[j]`` is the class index bound to formula variable ``t_{j+1}``.
    ``matching`` lists every binding under which the expansion agrees with
    the enumerated series to the tested degree (more than one exactly when
    the formula has a variable symmetry).
    """

    ctype: CartanType
    degree: int
    binding: tuple[int, ...]
    matching: tuple[tuple[int, ...], ...]

    def point_for_classes(self, class_point: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """Reorder per-class coordinates into formula-variable order."""
        return tuple(class_point[c] for c in self.binding)


@lru_cache(maxsize=None)
def calibrate_indexing(ctype: CartanType, degree: int = 6) -> CalibrationResult:
    """Find the bijection classes <-> formula variables by series matching.

    Tries every permutation; a binding matches when the formula expansion,
    with variable t_j read as the class-``binding[j]`` variable, equals the
    enumerated class-graded series coefficient-for-coefficient up to
    ``degree``.  Ties (formula symmetries) are broken by lexicographic
    order on the binding, which prefers the canonical class order.
    """
    from .weyl import count_multilengths

    system = build_affine_system(ctype)
    m = system.m
    if m == 1:
        return CalibrationResult(ctype, degree, (0,), ((0,),))
    enumerated = from_counts(count_multilengths(system, degree), m, degree)
    formula = macdonald_closed_form(ctype).expand(degree)
    matching = []
    for perm in permutations(range(m)):
        # formula exponent e corresponds to class exponent vector e' with
        # e'[perm[j]] = e[j]
        if formula.permute_variables(perm) == enumerated:
            matching.append(perm)
    if not matching:
        raise CalibrationError(
            f"no class-to-variable binding reproduces the enumerated series for "
            f"{ctype.label} at degree {degree}; formula transcription or partition bug"
        )
    return CalibrationResult(ctype, degree, matching[0], tuple(matching))
