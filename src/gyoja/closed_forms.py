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

Evaluation works in integers too: at x_i = p_i / r_i a factor is one
integer over prod r_i^E_i (E_i its top degree in x_i), the values are
multiplied as one running numerator and denominator, and one ``Fraction``
is built per value.

The formula's variable order is a convention external to this module;
:func:`calibrate_indexing` pins the class-to-variable binding by matching
the expansion against the class-graded series that
:func:`diagram_growth_series` derives from the Coxeter data alone
(Solomon's identity for the finite parabolics, Steinberg's for the affine
group), so no group element is enumerated and this module shares no code
with the enumeration it is checked against.  (For Cn the end node swap is a
symmetry of the formula, so exactly two bindings match and the canonical
class order breaks the tie; for C2 in particular the matching bindings send
the chain class {s_1} to the first formula variable, which is *not* the
identity binding.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Iterable, Sequence

from .cartan import CartanType, build_affine_system, exponents
from .series import TruncatedSeries, _divide_by, _merged, _multiply_by, _tail, render_monomial, term_order, var_names
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
    "diagram_growth_series",
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
    """No class-to-variable binding matches the series derived from the diagram."""


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

    def _scaled_value(self, nums: Sequence[int], dens: Sequence[int]) -> tuple[int, int]:
        """The value at x_i = nums[i] / dens[i] as integers (N, R) with value N / R.

        R = prod dens[i]^E_i, where E_i is the top degree of x_i in the
        factor, so each term c * prod x_i^e_i adds c * prod nums[i]^e_i *
        dens[i]^(E_i - e_i) to N.  R > 0 when every dens[i] > 0.
        """
        tops = [max(exp[i] for exp, _ in self.terms) for i in range(self.nvars)]
        total = 0
        for exp, c in self.terms:
            for p, r, e, top in zip(nums, dens, exp, tops):
                c *= p**e * r ** (top - e)
            total += c
        scale = 1
        for r, top in zip(dens, tops):
            scale *= r**top
        return total, scale

    def __str__(self) -> str:
        names = var_names(self.nvars)
        parts = []
        for exp, c in sorted(self.terms, key=lambda item: term_order(item[0])):
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
        from cancellation.  Each factor's value is one integer over a power
        product of the coordinate denominators (``Factor._scaled_value``);
        one running numerator and denominator carry the product, and one
        ``Fraction`` is built at the end.
        """
        pt = [Fraction(x) for x in point]
        if len(pt) != self.nvars:
            raise ValueError("point dimension mismatch")
        nums, dens = [x.numerator for x in pt], [x.denominator for x in pt]
        below = [f._scaled_value(nums, dens) for f in self.denominator]
        for f, (v, _) in zip(self.denominator, below):
            if v == 0:
                raise PoleError(f, pt)
        witness = None
        top, bottom = 1, 1
        for f in self.numerator:
            v, r = f._scaled_value(nums, dens)
            if v == 0 and witness is None:
                witness = f
            top *= v
            bottom *= r
        for v, r in below:
            top *= r
            bottom *= v
        value = Fraction(top, bottom)
        if witness is not None:
            assert value == 0
        return value, witness

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        return self.evaluate_witnessed(point)[0]

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
# The series from the diagram alone
# ---------------------------------------------------------------------------


def diagram_growth_series(ctype: CartanType, degree: int) -> TruncatedSeries:
    """The class-graded growth series W(t) to total degree ``degree``, from the diagram alone.

    No group element is formed.  Write R_J = 1/W_J(t) for the parabolic
    subgroup W_J on a set J of generators, and Sigma(J) for the signed sum
    sum_{K in J} (-1)^|K| R_K.  For J a proper subset, W_J is finite and
    Solomon's identity is Sigma(J) = t^{w0(J)} R_J; splitting off the K = J
    term gives

        R_J = sum_{K strictly in J} (-1)^|K| R_K / (t^{w0(J)} - (-1)^|J|),

    with t^{w0(J)} from :meth:`AffineCoxeterSystem.longest_multilength`.
    The affine group W_S is infinite and no element has every generator as
    a descent, so Sigma(S) = 0 (Steinberg), which gives 1/W = R_S.

    The signed sums are formed without listing all subsets, whose number
    grows as 3^|S|.  R_K is the product of R_C over the components C of
    K, so for one node v of J, sorting K by the component C of v in K gives

        Sigma(J) = Sigma(J - v) + sum_{connected C, v in C in J} (-1)^|C| R_C Sigma(J - C - N(C)),

    N(C) the neighbours of C; for a connected J the term C = J is the
    unknown that Solomon's identity solves for.  The affine diagrams are
    paths, cycles (An) or trees with at most two branch nodes, so with v of
    least degree in J the number of sets and terms grows polynomially with
    |S|.  All series have integer coefficients, R_C has constant term 1 and
    every divisor is a binomial 1 +- x^e, so the arithmetic stays in plain
    ints, with the kernels of :mod:`gyoja.series`.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    system = build_affine_system(ctype)
    zero_exp = (0,) * system.m
    nodes = frozenset(range(system.num_gens))
    neighbours = {s: frozenset(t for t in nodes if system.coxeter_matrix[s][t] not in (1, 2)) for s in nodes}
    sums: dict[frozenset[int], dict[Exponent, int]] = {frozenset(): {zero_exp: 1}}
    inverses: dict[frozenset[int], dict[Exponent, int]] = {}

    def signed_sum(part: frozenset[int]) -> dict[Exponent, int]:
        if part in sums:
            return sums[part]
        v = min(part, key=lambda s: (len(neighbours[s] & part), s))
        out = dict(signed_sum(part - {v}))
        connected = _connected_sets_containing(v, part, neighbours)
        for comp in connected - {part}:
            signed_sum(comp)  # sets inverses[comp]
            levels = _by_degree(signed_sum(part - comp - _around(comp, neighbours)), degree)
            _multiply_by(levels, _tail(inverses[comp].items()))
            sign = -1 if len(comp) % 2 else 1
            for exp, c in _merged(levels).items():
                out[exp] = out.get(exp, 0) + sign * c
        if part in connected:
            sign = -1 if len(part) % 2 else 1
            if part == nodes:
                inverses[part] = {exp: -sign * c for exp, c in out.items() if c}
                out = {}  # Sigma(S) = 0
            else:
                levels = _by_degree({exp: -sign * c for exp, c in out.items()}, degree)
                for _ in _divide_by(levels, _tail([(system.longest_multilength(part), -sign)])):
                    pass
                inverses[part] = _merged(levels)
                for exp, c in inverses[part].items():
                    out[exp] = out.get(exp, 0) + sign * c
        sums[part] = out = {exp: c for exp, c in out.items() if c}
        return out

    signed_sum(nodes)
    inverse = inverses[nodes]
    if inverse.get(zero_exp) != 1:
        raise AssertionError("1/W must have constant term 1")
    levels = [{zero_exp: 1}] + [{} for _ in range(degree)]
    for _ in _divide_by(levels, _tail(inverse.items())):
        pass
    return TruncatedSeries(system.m, degree, _merged(levels))


def _around(part: frozenset[int], neighbours: dict[int, frozenset[int]]) -> frozenset[int]:
    """The nodes outside ``part`` joined to it."""
    return frozenset().union(*(neighbours[s] for s in part)) - part


def _connected_sets_containing(v: int, part: frozenset[int], neighbours: dict[int, frozenset[int]]) -> set[frozenset[int]]:
    """Every connected subset of ``part`` that contains node ``v``."""
    found = {frozenset([v])}
    frontier = list(found)
    while frontier:
        grown = {comp | {t} for comp in frontier for t in _around(comp, neighbours) & part} - found
        found |= grown
        frontier = list(grown)
    return found


def _by_degree(terms: dict[Exponent, int], degree: int) -> list[dict[Exponent, int]]:
    levels: list[dict[Exponent, int]] = [{} for _ in range(degree + 1)]
    for exp, c in terms.items():
        levels[sum(exp)][exp] = c
    return levels


# ---------------------------------------------------------------------------
# Class-to-variable calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of matching formula variables to generator classes.

    ``binding[j]`` is the class index bound to formula variable ``t_{j+1}``.
    ``matching`` lists every binding under which the expansion agrees with
    the series of :func:`diagram_growth_series` to the tested degree (more
    than one exactly when the formula has a variable symmetry, or when the
    degree is too low to tell bindings apart).
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
    series derived from the diagram (:func:`diagram_growth_series`)
    coefficient-for-coefficient up to ``degree``.  Ties (formula
    symmetries) are broken by lexicographic order on the binding, which
    prefers the canonical class order.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    system = build_affine_system(ctype)
    m = system.m
    if m == 1:
        return CalibrationResult(ctype, degree, (0,), ((0,),))
    derived = diagram_growth_series(ctype, degree)
    formula = macdonald_closed_form(ctype).expand(degree)
    matching = []
    for perm in permutations(range(m)):
        # formula exponent e corresponds to class exponent vector e' with
        # e'[perm[j]] = e[j]
        if formula.permute_variables(perm) == derived:
            matching.append(perm)
    if not matching:
        raise CalibrationError(
            f"no class-to-variable binding reproduces the derived series for "
            f"{ctype.label} at degree {degree}; formula transcription or partition bug"
        )
    return CalibrationResult(ctype, degree, matching[0], tuple(matching))
