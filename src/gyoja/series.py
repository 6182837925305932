"""Multivariate truncated power series over exact rationals.

A :class:`TruncatedSeries` holds the terms of total degree <= bound, with
coefficients ``int`` where given as an integer (numpy's too) and
``fractions.Fraction`` where given as another exact rational; a float is
refused.  Truncation is by *total* degree, matching the grading in which a
radius-N ball of the group determines the series exactly to degree N.

A series and a polynomial under construction have one stored form, the
*graded dict* ``levels``: total degree -> {key: coefficient}, with an entry
only for the degrees that hold terms and no zero coefficient, so the cost
follows the terms, not the bound.  The key of an exponent vector
(e_1, ..., e_m) is the integer with digits e_1 ... e_m in base bound + 1,
most significant first (:func:`places`).  No digit of a term of total
degree <= bound reaches the base, so keys add as exponent vectors do and
sort as they do lexicographically.  The kernels at the end of this module
form products on graded dicts, and :meth:`TruncatedSeries.from_graded` wraps
their result without a copy.  Exponent tuples appear only at the edges: the
validating constructor encodes them (:func:`graded`), and
:meth:`TruncatedSeries.terms` decodes them in canonical term order.  Values
are immutable; sums and scalar multiples are their only arithmetic.

>>> a = TruncatedSeries(2, 4, {(1, 0): 1, (1, 1): 2})
>>> print(one(2, 4) + a * 3)
1 + 3·t1 + 6·t1·t2
>>> print(a.permute_variables((1, 0)))
t2 + 2·t1·t2
"""

from __future__ import annotations

import numbers
import operator
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Graded",
    "TruncatedSeries",
    "divide",
    "graded",
    "one",
    "places",
    "product",
    "product_degree",
    "render_monomial",
    "var_names",
]

Exponent = tuple[int, ...]
Graded = dict[int, dict[int, Any]]  # total degree -> {key: coefficient}, see the module docstring


def var_names(nvars: int) -> list[str]:
    """``t`` for one variable, ``t1 .. tm`` for several."""
    return ["t"] if nvars == 1 else [f"t{i + 1}" for i in range(nvars)]


def render_monomial(names: Sequence[str], exp: Exponent) -> str:
    """Canonical monomial text like ``t1^2·t2`` (empty for the constant term)."""
    return "·".join(f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(exp) if e > 0)


class TruncatedSeries:
    """Polynomial truncated at a total-degree bound, over int and Fraction, stored as a graded dict."""

    __slots__ = ("nvars", "bound", "levels")

    def __init__(self, nvars: int, bound: int, coeffs: Mapping[Exponent, Fraction | int]):
        try:  # numpy integers become ints, whose keys cannot wrap; a float would key terms in a float base
            nvars, bound = operator.index(nvars), operator.index(bound)
        except TypeError:
            raise ValueError(f"nvars and bound must be integers, got {nvars!r} and {bound!r}") from None
        if nvars < 1:
            raise ValueError("need at least one variable")
        if bound < 0:
            raise ValueError("bound must be >= 0")
        terms = []
        for exp, c in coeffs.items():
            if len(exp) != nvars or min(exp) < 0:
                raise ValueError(f"bad exponent vector {exp} for {nvars} variables")
            if type(c) not in (int, Fraction):  # a numpy integer, here or in exp, would wrap around
                if isinstance(c, numbers.Integral):
                    c = operator.index(c)
                elif isinstance(c, numbers.Rational):
                    c = Fraction(int(c.numerator), int(c.denominator))
                else:  # a float would be read as its binary fraction
                    raise ValueError(f"coefficients must be exact rationals, got {c!r}")
            if c != 0:
                terms.append((tuple(map(operator.index, exp)), c))
        self.nvars = nvars
        self.bound = bound
        self.levels = graded(terms, nvars, bound)

    @classmethod
    def from_graded(cls, nvars: int, bound: int, levels: Graded) -> "TruncatedSeries":
        """Wrap a graded dict keyed at ``bound``, without a copy.

        It is not checked: equality and rendering trust that every degree is
        <= ``bound`` and holds terms, each key is of its degree, and no
        coefficient is zero.
        """
        series = cls(nvars, bound, {})
        series.levels = levels
        return series

    def _check_same_shape(self, other: "TruncatedSeries") -> None:
        if (self.nvars, self.bound) != (other.nvars, other.bound):
            raise ValueError(f"shape mismatch: {self.nvars} vars to degree {self.bound} vs {other.nvars} to {other.bound}")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_same_shape(other)
        levels = {d: dict(terms) for d, terms in self.levels.items()}
        product(other.levels, {0: {0: 1}}, self.bound, levels)
        return TruncatedSeries.from_graded(self.nvars, self.bound, levels)

    def __mul__(self, scalar: Fraction | int) -> "TruncatedSeries":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        levels = product(self.levels, {0: {0: scalar}}, self.bound, {})
        return TruncatedSeries.from_graded(self.nvars, self.bound, levels)

    # -- reshaping -----------------------------------------------------------

    def permute_variables(self, perm: Iterable[int]) -> "TruncatedSeries":
        """Relabel variables: new exponent of t_{perm[i]} is the old one of t_i."""
        p = tuple(perm)
        if sorted(p) != list(range(self.nvars)):
            raise ValueError(f"{p} is not a permutation of range({self.nvars})")
        base, old = self.bound + 1, places(self.nvars, self.bound)
        moves = [(place, old[p[i]]) for i, place in enumerate(old)]
        levels = {
            d: {sum(key // place % base * new for place, new in moves): c for key, c in terms.items()}
            for d, terms in self.levels.items()
        }
        return TruncatedSeries.from_graded(self.nvars, self.bound, levels)

    # -- queries -----------------------------------------------------------

    def terms(self) -> Iterator[tuple[Exponent, Any]]:
        """(exponent vector, coefficient) pairs in canonical term order.

        Total degree ascending, then key descending: t1-dominant terms first.
        """
        base, place_values = self.bound + 1, places(self.nvars, self.bound)
        for _, level in sorted(self.levels.items()):
            keys = sorted(level, reverse=True)
            digits = [[key // place % base for key in keys] for place in place_values]
            yield from zip(zip(*digits), map(level.__getitem__, keys))

    @property
    def coeffs(self) -> dict[Exponent, Fraction | int]:
        """The terms by exponent vector, as a fresh dict in canonical term order."""
        return dict(self.terms())

    def coefficient(self, exp: Exponent) -> Fraction | int:
        """The coefficient of t^exp, the int 0 if absent; ValueError unless ``exp`` is a vector of this series."""
        if len(exp) != self.nvars or min(exp) < 0:
            raise ValueError(f"bad exponent vector {exp} for {self.nvars} variables")
        key = sum(e * place for e, place in zip(exp, places(self.nvars, self.bound)))
        return self.levels.get(sum(exp), {}).get(key, 0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (self.nvars, self.bound, self.levels) == (other.nvars, other.bound, other.levels)

    def first_difference(self, other: "TruncatedSeries") -> Exponent | None:
        """First exponent vector (in canonical term order) where two series differ."""
        self._check_same_shape(other)
        for d in sorted(self.levels.keys() | other.levels.keys()):
            mine, theirs = self.levels.get(d, {}), other.levels.get(d, {})
            if mine != theirs:
                key = max(k for k in mine.keys() | theirs.keys() if mine.get(k, 0) != theirs.get(k, 0))
                return tuple(key // place % (self.bound + 1) for place in places(self.nvars, self.bound))
        return None

    # -- rendering -----------------------------------------------------------

    def __str__(self) -> str:
        """Canonical text: graded term order (t1-dominant first), exact coefficients."""
        names = var_names(self.nvars)
        parts: list[str] = []
        for exp, c in self.terms():
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
        return " ".join(parts) or "0"

    def __repr__(self) -> str:
        return f"TruncatedSeries({self.nvars} vars, bound={self.bound}, {self})"


# -- degree-graded kernels ----------------------------------------------------


def places(nvars: int, bound: int) -> list[int]:
    """The place value of each exponent digit of a key: the key of each unit vector."""
    return [(bound + 1) ** (nvars - 1 - i) for i in range(nvars)]


def graded(terms: Iterable[tuple[Exponent, Any]], nvars: int, bound: int) -> Graded:
    """The terms of total degree <= ``bound`` of ``nvars`` variables, as a graded dict."""
    out: Graded = {}
    place_values = places(nvars, bound)
    for exp, c in terms:
        d = sum(exp)
        if d <= bound:
            out.setdefault(d, {})[sum(e * p for e, p in zip(exp, place_values))] = c
    return out


def product_degree(a: Graded, b: Graded, k: int, out: dict[int, Any]) -> dict[int, Any]:
    """Add degree ``k`` of a * b into ``out`` and return it."""
    if len(b) < len(a):
        a, b = b, a
    for d, terms_a in a.items():
        terms_b = b.get(k - d)
        if terms_b:
            for key_a, ca in terms_a.items():
                for key_b, cb in terms_b.items():
                    key = key_a + key_b
                    out[key] = out.get(key, 0) + ca * cb
    return out


def product(a: Graded, b: Graded, bound: int, out: Graded) -> Graded:
    """out <- out + a * b, truncated at total degree ``bound``; ``out`` is neither a nor b."""
    for k in {da + db for da in a for db in b if da + db <= bound}:
        terms = {key: c for key, c in product_degree(a, b, k, out.pop(k, {})).items() if c}
        if terms:
            out[k] = terms
    return out


def divide(levels: Graded, unit: Graded, bound: int) -> Iterator[int]:
    """levels <- levels / unit, in place, to total degree ``bound``, for a unit with constant term 1.

    With unit = 1 + r, q[k] = a[k] - (r * q)[k] reads only degrees of q
    below k.  A generator: walks k upwards from the lowest degree of
    ``levels`` and yields each k that holds terms as soon as they are final,
    so the caller can count stored terms once per degree.  With D the top
    degree of r, q[k] is 0 once k is more than D past both the top degree of
    ``levels`` and the last degree of q that holds terms, and so is every
    later degree; the walk stops there, so a quotient that is a polynomial
    costs its terms, not the bound.
    """
    minus_r = {d: {key: -c for key, c in terms.items()} for d, terms in unit.items() if d}
    reach = max(minus_r, default=0)
    k, last = min(levels, default=bound + 1), max(levels, default=0)
    while k <= min(bound, last + reach):
        terms = {key: c for key, c in product_degree(minus_r, levels, k, levels.pop(k, {})).items() if c}
        if terms:
            levels[k] = terms
            last = max(last, k)
            yield k
        k += 1


# -- constructors ------------------------------------------------------------


def one(nvars: int, bound: int) -> TruncatedSeries:
    return TruncatedSeries(nvars, bound, {(0,) * nvars: 1})
