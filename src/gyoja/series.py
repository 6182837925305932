"""Multivariate truncated power series over exact rationals.

A :class:`TruncatedSeries` stores coefficients for exponent vectors of total
degree <= bound, in a sparse map keyed by exponent tuples; coefficients are
``int`` where given as ``int`` and ``fractions.Fraction`` otherwise, and zero
coefficients are never stored.  Truncation is by *total* degree, matching the
grading in which a radius-N ball of the group determines the series exactly
to degree N.

Values are immutable and all operations are pure.

>>> t1, t2 = variables(2, 4)
>>> print((one(2, 4) + t1) * (one(2, 4) + t2))
1 + t1 + t2 + t1·t2
>>> print(geometric(2, (1, 1), 4))
1 + t1·t2 + t1^2·t2^2
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Any, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "TruncatedSeries",
    "one",
    "zero",
    "monomial",
    "variables",
    "geometric",
    "render_monomial",
    "term_order",
    "var_names",
]

Exponent = tuple[int, ...]


def term_order(exp: Exponent) -> tuple:
    """Graded order: total degree first, then t1-dominant terms before t2-dominant."""
    return (sum(exp), tuple(-e for e in exp))


def var_names(nvars: int) -> list[str]:
    """``t`` for one variable, ``t1 .. tm`` for several."""
    return ["t"] if nvars == 1 else [f"t{i + 1}" for i in range(nvars)]


def render_monomial(names: Sequence[str], exp: Exponent) -> str:
    """Canonical monomial text like ``t1^2·t2`` (empty for the constant term)."""
    return "·".join(f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(exp) if e > 0)


class TruncatedSeries:
    """Polynomial truncated at a total-degree bound, over int and Fraction."""

    __slots__ = ("nvars", "bound", "coeffs")

    def __init__(self, nvars: int, bound: int, coeffs: Mapping[Exponent, Fraction | int]):
        if nvars < 1:
            raise ValueError("need at least one variable")
        if bound < 0:
            raise ValueError("bound must be >= 0")
        clean: dict[Exponent, Fraction | int] = {}
        for exp, c in coeffs.items():
            if len(exp) != nvars or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for {nvars} variables")
            if sum(exp) > bound:
                continue
            if type(c) is not int:
                c = Fraction(c)
            if c != 0:
                clean[tuple(exp)] = c
        self.nvars = nvars
        self.bound = bound
        self.coeffs = clean

    # -- ring structure ----------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries") -> int:
        if self.nvars != other.nvars:
            raise ValueError(f"variable mismatch: {self.nvars} vs {other.nvars}")
        return min(self.bound, other.bound)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        bound = self._check_compatible(other)
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return TruncatedSeries(self.nvars, bound, out)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.nvars, self.bound, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(
                self.nvars, self.bound, {e: c * other for e, c in self.coeffs.items()}
            )
        bound = self._check_compatible(other)
        out: dict[Exponent, Fraction] = {}
        for ea, ca in self.coeffs.items():
            da = sum(ea)
            for eb, cb in other.coeffs.items():
                if da + sum(eb) > bound:
                    continue
                exp = tuple(x + y for x, y in zip(ea, eb))
                prev = out.get(exp)
                out[exp] = ca * cb if prev is None else prev + ca * cb
        return TruncatedSeries(self.nvars, bound, out)

    __rmul__ = __mul__

    # -- reshaping -----------------------------------------------------------

    def permute_variables(self, perm: Iterable[int]) -> "TruncatedSeries":
        """Relabel variables: new exponent of t_{perm[i]} is the old one of t_i."""
        p = tuple(perm)
        if sorted(p) != list(range(self.nvars)):
            raise ValueError(f"{p} is not a permutation of range({self.nvars})")
        out: dict[Exponent, Fraction] = {}
        for exp, c in self.coeffs.items():
            new = [0] * self.nvars
            for i, e in enumerate(exp):
                new[p[i]] = e
            out[tuple(new)] = c
        return TruncatedSeries(self.nvars, self.bound, out)

    # -- queries -----------------------------------------------------------

    def coefficient(self, exp: Exponent) -> Fraction:
        return self.coeffs.get(tuple(exp), Fraction(0))

    def evaluate(self, point: Iterable[Fraction | int]) -> Fraction:
        """Plain substitution of the stored (truncated) polynomial."""
        pt = [Fraction(x) for x in point]
        if len(pt) != self.nvars:
            raise ValueError("point dimension mismatch")
        total = Fraction(0)
        for exp, c in self.coeffs.items():
            term = c
            for x, e in zip(pt, exp):
                term *= x**e
            total += term
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.bound == other.bound
            and self.coeffs == other.coeffs
        )

    def first_difference(self, other: "TruncatedSeries") -> Exponent | None:
        """First exponent vector (in canonical term order) where two series differ."""
        keys = set(self.coeffs) | set(other.coeffs)
        diffs = [e for e in keys if self.coeffs.get(e, 0) != other.coeffs.get(e, 0)]
        return min(diffs, key=term_order) if diffs else None

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        """Canonical text: graded term order (t1-dominant first), exact coefficients."""
        if not self.coeffs:
            return "0"
        names = var_names(self.nvars)
        parts: list[str] = []
        for exp in sorted(self.coeffs, key=term_order):
            c = self.coeffs[exp]
            mono = render_monomial(names, exp)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}·{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.nvars} vars, bound={self.bound}, {self})"


# -- degree-graded kernels ----------------------------------------------------
#
# A series under construction is a list ``levels`` with one dict per total
# degree 0..bound, mapping exponent vectors to coefficients (ints or
# Fractions).  Multiplying or dividing by a unit 1 + r, where r has no
# constant term, only moves coefficients to strictly higher degrees, so both
# work in place: a product reads each degree before anything writes into it
# (highest degree first), a quotient finishes each degree before anything
# reads it (lowest degree first).  Each costs O(terms * len(r)).


def _merged(levels: list[dict[Exponent, Any]]) -> dict[Exponent, Any]:
    return {exp: c for level in levels for exp, c in level.items()}


def _tail(terms: Iterable[tuple[Exponent, Any]]) -> list[tuple[Exponent, int, Any]]:
    """The non-constant terms as (exponent, degree, coefficient), low degree first."""
    tail = [(exp, sum(exp), c) for exp, c in terms if any(exp)]
    return sorted(tail, key=lambda term: term[1])


def _shift_from(levels: list[dict[Exponent, Any]], d: int, tail: list[tuple[Exponent, int, Any]], sign: int) -> None:
    """Add sign * c * x^e times degree ``d`` into the higher degrees, for each tail term c * x^e."""
    src = levels[d] = {k: v for k, v in levels[d].items() if v}
    for exp, de, c in tail:
        if d + de >= len(levels):
            break
        dst = levels[d + de]
        c *= sign
        for k, v in src.items():
            key = tuple(map(add, k, exp))
            dst[key] = dst.get(key, 0) + c * v


def _multiply_by(levels: list[dict[Exponent, Any]], tail: list[tuple[Exponent, int, Any]]) -> None:
    """levels <- levels * (1 + tail), in place, truncated at the top degree."""
    for d in reversed(range(len(levels))):
        _shift_from(levels, d, tail, 1)


def _divide_by(levels: list[dict[Exponent, Any]], tail: list[tuple[Exponent, int, Any]]) -> Iterator[int]:
    """levels <- levels / (1 + tail), in place: q[k] = a[k] - sum(c * q[k - e]).

    A generator: yields each degree as soon as its coefficients are final,
    so the caller can count stored terms once per degree.
    """
    for d in range(len(levels)):
        _shift_from(levels, d, tail, -1)
        yield d


# -- constructors ------------------------------------------------------------


def zero(nvars: int, bound: int) -> TruncatedSeries:
    return TruncatedSeries(nvars, bound, {})


def one(nvars: int, bound: int) -> TruncatedSeries:
    return TruncatedSeries(nvars, bound, {(0,) * nvars: Fraction(1)})


def monomial(nvars: int, bound: int, exp: Exponent, coeff: Fraction | int = 1) -> TruncatedSeries:
    return TruncatedSeries(nvars, bound, {tuple(exp): Fraction(coeff)})


def variables(nvars: int, bound: int) -> list[TruncatedSeries]:
    return [
        monomial(nvars, bound, tuple(1 if j == i else 0 for j in range(nvars)))
        for i in range(nvars)
    ]


def geometric(nvars: int, exp: Exponent, bound: int) -> TruncatedSeries:
    """1 + x + x^2 + ... for the monomial x with the given exponent vector."""
    step = sum(exp)
    if step == 0:
        raise ValueError("geometric series needs a non-constant monomial")
    out: dict[Exponent, Fraction] = {}
    k = 0
    while k * step <= bound:
        out[tuple(k * e for e in exp)] = Fraction(1)
        k += 1
    return TruncatedSeries(nvars, bound, out)

