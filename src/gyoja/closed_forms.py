"""Product formulas for the (multi-variable) growth series of affine Weyl groups.

The growth series W(t) (one variable per generator conjugacy class) of an
irreducible affine Weyl group is a rational function with a classical
product expression:

* one class (simply-laced affine types): Bott's single-variable product over
  the exponents of the finite Weyl group,
* two or three classes: Macdonald's type-by-type displays (A1, Bn, G2, F4
  with two variables; Cn with three).

:func:`growth_closed_form` builds both.  Forms are kept verbatim as factor
lists, in the order of the display -- numerator and denominator are tuples
of :class:`Factor`, each the geometric sum 1 + x + ... + x^(k-1) of one
signed monomial x = +-t^e: a binomial (k = 2) everywhere, and G2's two
trinomials (k = 3).
Nothing is expanded or simplified at construction time; equality of forms is
decided by truncated expansion, and evaluation walks the factors so that an
exact zero is always witnessed by a vanishing numerator factor, never by
cancellation.

:meth:`ClosedForm.expand` works in plain ints on a graded dict of
:mod:`gyoja.series`.  Every factor has constant term +1, so a numerator
factor is one product and a denominator factor one exact division, and
the finished graded dict is wrapped as a ``TruncatedSeries`` without a copy.

Evaluation works in integers too: where the monomial of a factor takes the
value p / r, the factor is one integer over r^(k-1), the values are
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
from numbers import Rational
from typing import Iterable, Sequence

from .cartan import CartanType, build_affine_system
from .series import Exponent, Graded, TruncatedSeries, divide, graded, product, render_monomial, var_names
from .limits import ResourceLimitExceeded

__all__ = [
    "Factor",
    "ClosedForm",
    "PoleError",
    "CalibrationError",
    "TermLimitExceeded",
    "growth_closed_form",
    "diagram_growth_series",
    "calibrate_indexing",
    "CalibrationResult",
]


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
    """The geometric sum 1 + x + ... + x^(k-1) of one monomial x = sign * t^exp.

    Every factor of the product formulas has this shape: a binomial
    1 +- t^exp (k = 2), or one of G2's two trinomials (k = 3).  Its constant
    term is +1, so it is invertible as a power series.  Its variable count is
    ``len(exp)``.

    >>> print(Factor((2, 1), -1))
    (1 - t1^2·t2)
    >>> print(Factor((1, 1), 1, 3))
    (1 + t1·t2 + t1^2·t2^2)
    """

    exp: Exponent
    sign: int = 1
    k: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "exp", tuple(self.exp))
        if not any(self.exp) or min(self.exp) < 0:
            raise ValueError(f"factor exponent must be a nonzero, nonnegative vector, got {self.exp}")
        if self.sign not in (-1, 1):
            raise ValueError(f"factor sign must be -1 or +1, got {self.sign}")
        if self.k < 2:
            raise ValueError(f"factor needs k >= 2 terms, got {self.k}")

    @property
    def terms(self) -> tuple[tuple[Exponent, int], ...]:
        """The (exponent, coefficient) pairs (i * exp, sign^i) for i < k, constant first."""
        return tuple((tuple(i * e for e in self.exp), self.sign**i) for i in range(self.k))

    def _scaled_value(self, nums: Sequence[int], dens: Sequence[int]) -> tuple[int, int]:
        """The value at t_i = nums[i] / dens[i] as integers (N, R) with value N / R.

        There the monomial x is p / r, with p = sign * prod nums[i]^exp_i and
        r = prod dens[i]^exp_i, so the geometric sum is N = sum_{i<k} p^i *
        r^(k-1-i) over R = r^(k-1).  R > 0 when every dens[i] > 0.
        """
        p, r = self.sign, 1
        for num, den, e in zip(nums, dens, self.exp):
            p *= num**e
            r *= den**e
        return sum(p**i * r ** (self.k - 1 - i) for i in range(self.k)), r ** (self.k - 1)

    def __str__(self) -> str:
        names = var_names(len(self.exp))
        parts = ["1"] + [("+ " if c > 0 else "- ") + render_monomial(names, exp) for exp, c in self.terms[1:]]
        return "(" + " ".join(parts) + ")"


@dataclass(frozen=True)
class ClosedForm:
    """product(numerator) / product(denominator), factors verbatim."""

    nvars: int
    numerator: tuple[Factor, ...]
    denominator: tuple[Factor, ...]

    def __post_init__(self) -> None:
        for f in self.numerator + self.denominator:
            if len(f.exp) != self.nvars:
                raise ValueError("factor variable count mismatch")

    def expand(self, bound: int, max_terms: int | None = None) -> TruncatedSeries:
        """Truncated expansion to total degree ``bound``, in plain ints.

        Each numerator factor is one product and each denominator factor one
        exact division, on the graded dicts of :mod:`gyoja.series`.  With
        ``max_terms``, the nonzero stored terms are counted once per total
        degree after each factor, and :class:`TermLimitExceeded` is raised
        as soon as they pass the cap.
        """
        levels: Graded = {0: {0: 1}}
        for is_divisor, f in [(False, f) for f in self.numerator] + [(True, f) for f in self.denominator]:
            if is_divisor:
                degrees: Iterable[int] = divide(levels, graded(f.terms, self.nvars, bound), bound)
            else:
                levels = product(levels, graded(f.terms, self.nvars, bound), bound, {})
                degrees = sorted(levels)
            stored = 0
            for d in degrees:
                stored += len(levels[d])
                if max_terms is not None and stored > max_terms:
                    raise TermLimitExceeded(d, max_terms)
        return TruncatedSeries.from_graded(self.nvars, bound, levels)

    def evaluate_witnessed(self, point: Sequence[Fraction | int]) -> tuple[Fraction, Factor | None]:
        """Exact value and, when it is zero, the vanishing numerator factor.

        A pole (vanishing denominator factor) raises :class:`PoleError` even
        when a numerator factor vanishes as well; values are never inferred
        from cancellation.  Each factor's value is one integer over a power
        product of the coordinate denominators (``Factor._scaled_value``);
        one running numerator and denominator carry the product, and one
        ``Fraction`` is built at the end.  Coordinates must be exact
        rationals (``int`` or ``Fraction``); a float raises ``ValueError``
        rather than being read as its binary fraction.
        """
        for x in point:
            if not isinstance(x, Rational):
                raise ValueError(f"point coordinates must be exact rationals, got {x!r}")
        pt = [Fraction(int(x.numerator), int(x.denominator)) for x in point]  # a numpy int would wrap
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
        if witness is not None and value != 0:
            raise AssertionError("a vanishing numerator factor left a nonzero value")
        return value, witness

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


def growth_closed_form(ctype: CartanType) -> ClosedForm:
    """The product formula for W(t) of any supported type, factors in the order of its display.

    One class (the simply-laced types): Bott's product over the exponents
    e_i of the finite Weyl group, W(t) = prod_i (1 - t^(e_i + 1)) / ((1 - t)(1 - t^(e_i))),
    one factor triple per exponent.  It is sometimes displayed with a
    subscripted t inside the product; it is read here with the single
    variable throughout, a choice pinned by the expansion-vs-enumeration tests.

    Two or three classes: Macdonald's displays, transcribed factor by factor;
    Bn and Cn are instantiated at the given rank, F4 keeps its i = 1..3
    product block and trailing factors.
    """
    system = build_affine_system(ctype)
    fam, n = ctype.family, ctype.rank
    if system.m == 1:
        num = [Factor((e + 1,), -1) for e in system.exponents]
        den = [f for e in system.exponents for f in (Factor((1,), -1), Factor((e,), -1))]
        return ClosedForm(1, tuple(num), tuple(den))
    if fam == "A":  # A1
        num, den = [Factor((1, 0)), Factor((0, 1))], [Factor((1, 1), -1)]
    elif fam == "G":
        num = [Factor((1, 0)), Factor((1, 0), 1, 3), Factor((0, 1)), Factor((1, 1), 1, 3)]
        den = [Factor((2, 1), -1), Factor((3, 2), -1)]
    elif fam == "B":
        num = [Factor((n, 0), -1)]
        den = [Factor((1, 0), -1) for _ in range(n)]
        num += [Factor((2 * i, 0), -1) for i in range(1, n)]
        for i in range(n):
            num.append(Factor((i, 1)))
            den.append(Factor((n - 1 + i, 1), -1))
    elif fam == "F":
        num, den = [], []
        for i in range(1, 4):
            num += [Factor((i + 1, 0), -1), Factor((i, 1)), Factor((0, i), -1)]
            den += [Factor((1, 0), -1), Factor((0, 1), -1)]
        num += [Factor((1, 2)), Factor((2, 2)), Factor((3, 3))]
        den += [Factor((3, 2), -1), Factor((4, 3), -1), Factor((5, 3), -1), Factor((6, 5), -1)]
    else:  # Cn
        num, den = [], []
        for i in range(n):
            num += [Factor((i + 1, 0, 0), -1), Factor((i, 1, 0)), Factor((i, 0, 1))]
            den += [Factor((1, 0, 0), -1), Factor((n - 1 + i, 1, 1), -1)]
    return ClosedForm(system.m, tuple(num), tuple(den))


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
    a descent, so Sigma(S) = 0 (Steinberg), which gives 1/W = R_S.  A
    connected J has l(w0(J)) >= |J|(|J|+1)/2, A_|J|'s root count, so where
    that exceeds ``degree``, Sigma(J) is 0 to this degree and w0(J) is not formed.

    The signed sums are formed without listing all subsets, whose number
    grows as 3^|S|.  R_K is the product of R_C over the components C of
    K, so for one node v of J, sorting K by the component C of v in K gives

        Sigma(J) = Sigma(J - v) + sum_{connected C, v in C in J} (-1)^|C| R_C Sigma(J - C - N(C)),

    N(C) the neighbours of C; for a connected J the term C = J is the
    unknown that Solomon's identity solves for.  The affine diagrams are
    paths, cycles (An) or trees with at most two branch nodes, so with v of
    least degree in J the number of sets and terms grows polynomially with
    |S|.  Every series has integer coefficients and every divisor constant
    term 1, so the arithmetic stays in plain ints, on graded dicts.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    system = build_affine_system(ctype)
    nodes = frozenset(range(system.num_gens))
    neighbours = {s: frozenset(t for t in nodes if system.coxeter_matrix[s][t] not in (1, 2)) for s in nodes}
    sums: dict[frozenset[int], Graded] = {frozenset(): {0: {0: 1}}}
    signed_inverses: dict[frozenset[int], Graded] = {}  # (-1)^|C| R_C

    def signed_sum(part: frozenset[int]) -> Graded:
        if part in sums:
            return sums[part]
        v = min(part, key=lambda s: (len(neighbours[s] & part), s))
        out = {d: dict(terms) for d, terms in signed_sum(part - {v}).items()}
        connected = _connected_sets_containing(v, part, neighbours)
        for comp in connected - {part}:
            signed_sum(comp)  # sets signed_inverses[comp]
            product(signed_inverses[comp], signed_sum(part - comp - _around(comp, neighbours)), degree, out)
        if part in connected:
            # out + (-1)^|J| R_J = Sigma(J), so (-1)^|J| R_J = -out / (1 - (-1)^|J| t^{w0(J)})
            minus = product(out, {0: {0: -1}}, degree, {})
            if part == nodes or len(part) * (len(part) + 1) // 2 > degree:
                signed_inverses[part], out = minus, {}  # Sigma(J) = 0, to this degree
            else:
                sign = -1 if len(part) % 2 else 1
                w0 = system.longest_multilength(part)
                for _ in divide(minus, graded([((0,) * system.m, 1), (w0, -sign)], system.m, degree), degree):
                    pass
                signed_inverses[part] = minus
                out = product(minus, graded([(w0, sign)], system.m, degree), degree, {})  # Sigma(J) = t^{w0(J)} R_J
        sums[part] = out
        return out

    signed_sum(nodes)
    inverse = product(signed_inverses[nodes], {0: {0: -1 if len(nodes) % 2 else 1}}, degree, {})  # 1/W = R_S
    if inverse.get(0) != {0: 1}:
        raise AssertionError("1/W must have constant term 1")
    levels: Graded = {0: {0: 1}}
    for _ in divide(levels, inverse, degree):
        pass
    return TruncatedSeries.from_graded(system.m, degree, levels)


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
    formula = growth_closed_form(ctype).expand(degree)
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
