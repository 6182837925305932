"""Multivariate truncated power series over exact rationals.

A :class:`TruncatedSeries` stores coefficients for exponent vectors of total
degree <= bound, in a sparse map keyed by exponent tuples; coefficients are
``int`` where given as ``int`` and ``fractions.Fraction`` otherwise, and zero
coefficients are never stored.  Truncation is by *total* degree, matching the
grading in which a radius-N ball of the group determines the series exactly
to degree N.

Values are immutable and all operations are pure.  Sums and scalar
multiples are the only arithmetic on values; products of series are formed
on degree-graded dicts by the kernels at the end of this module.

>>> a = TruncatedSeries(2, 4, {(1, 0): 1, (1, 1): 2})
>>> print(one(2, 4) + a * 3)
1 + 3·t1 + 6·t1·t2
>>> print(a.permute_variables((1, 0)))
t2 + 2·t1·t2
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Any, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "TruncatedSeries",
    "one",
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
            if len(exp) != nvars or min(exp) < 0:
                raise ValueError(f"bad exponent vector {exp} for {nvars} variables")
            if sum(exp) > bound:
                continue
            if type(c) not in (int, Fraction):
                c = Fraction(c)
            if c != 0:
                clean[tuple(exp)] = c
        self.nvars = nvars
        self.bound = bound
        self.coeffs = clean

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.nvars != other.nvars:
            raise ValueError(f"variable mismatch: {self.nvars} vs {other.nvars}")
        out = dict(self.coeffs)
        for exp, c in other.coeffs.items():
            out[exp] = out.get(exp, 0) + c
        return TruncatedSeries(self.nvars, min(self.bound, other.bound), out)

    def __mul__(self, scalar: Fraction | int) -> "TruncatedSeries":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return TruncatedSeries(self.nvars, self.bound, {e: c * scalar for e, c in self.coeffs.items()})

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
# A series under construction is a dict ``levels`` from total degree to a
# dict of the terms of that degree, mapping exponent vectors to coefficients
# (ints or Fractions); only degrees that hold terms have an entry, so the
# cost follows the terms, not the bound.  Multiplying or dividing by a unit
# 1 + r, where r has no constant term, only moves coefficients to strictly
# higher degrees, so both work in place: a product reads each degree before
# anything writes into it (highest degree first), a quotient finishes each
# degree before anything reads it (lowest degree first).  Each costs
# O(terms * len(r)).

Levels = dict[int, dict[Exponent, Any]]


def _merged(levels: Levels) -> dict[Exponent, Any]:
    return {exp: c for d in sorted(levels) for exp, c in levels[d].items()}


def _tail(terms: Iterable[tuple[Exponent, Any]]) -> list[tuple[Exponent, int, Any]]:
    """The non-constant terms as (exponent, degree, coefficient), low degree first."""
    tail = [(exp, sum(exp), c) for exp, c in terms if any(exp)]
    return sorted(tail, key=lambda term: term[1])


def _shift_from(levels: Levels, d: int, tail: list[tuple[Exponent, int, Any]], sign: int, bound: int) -> None:
    """Add sign * c * x^e times degree ``d`` into the higher degrees up to ``bound``, for each tail term c * x^e."""
    src = levels[d] = {k: v for k, v in levels[d].items() if v}
    for exp, de, c in tail:
        if d + de > bound:
            break
        dst = levels.setdefault(d + de, {})
        c *= sign
        for k, v in src.items():
            key = tuple(map(add, k, exp))
            dst[key] = dst.get(key, 0) + c * v


def _multiply_by(levels: Levels, tail: list[tuple[Exponent, int, Any]], bound: int) -> None:
    """levels <- levels * (1 + tail), in place, truncated at total degree ``bound``."""
    for d in sorted(levels, reverse=True):
        _shift_from(levels, d, tail, 1, bound)


def _divide_by(levels: Levels, tail: list[tuple[Exponent, int, Any]], bound: int) -> Iterator[int]:
    """levels <- levels / (1 + tail), in place, to total degree ``bound``: q[k] = a[k] - sum(c * q[k - e]).

    A generator: yields each degree that holds terms as soon as its
    coefficients are final, so the caller can count stored terms once per
    degree.
    """
    for d in range(bound + 1):
        if d in levels:
            _shift_from(levels, d, tail, -1, bound)
            yield d


# -- constructors ------------------------------------------------------------


def one(nvars: int, bound: int) -> TruncatedSeries:
    return TruncatedSeries(nvars, bound, {(0,) * nvars: Fraction(1)})
