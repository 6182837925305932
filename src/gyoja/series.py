"""Multivariate truncated power series over exact rationals.

A :class:`TruncatedSeries` stores coefficients for exponent vectors of total
degree <= bound, in a sparse map keyed by exponent tuples; coefficients are
``int`` where given as ``int`` and ``fractions.Fraction`` otherwise, and zero
coefficients are never stored.  Truncation is by *total* degree, matching the
grading in which a radius-N ball of the group determines the series exactly
to degree N.

Values are immutable and all operations are pure.  Sums and scalar
multiples are the only arithmetic on values.  Products are formed by the
kernels at the end of this module, on a polynomial under construction held
as a *graded dict*: total degree -> {key: coefficient}, with an entry only
for the degrees that hold terms, so the cost follows the terms, not the
bound.  The key of an exponent vector (e_1, ..., e_m) is the integer with
digits e_1 ... e_m in base bound + 1, most significant first
(:func:`places`).  No digit of a term of total degree <= bound reaches the
base, so keys add as exponent vectors do and sort as they do
lexicographically; :func:`graded` and :func:`ungraded` are the only
conversions between keys and exponent tuples.

>>> a = TruncatedSeries(2, 4, {(1, 0): 1, (1, 1): 2})
>>> print(one(2, 4) + a * 3)
1 + 3·t1 + 6·t1·t2
>>> print(a.permute_variables((1, 0)))
t2 + 2·t1·t2
"""

from __future__ import annotations

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
    "term_order",
    "ungraded",
    "var_names",
]

Exponent = tuple[int, ...]
Graded = dict[int, dict[int, Any]]  # total degree -> {key: coefficient}, see the module docstring


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


def places(nvars: int, bound: int) -> list[int]:
    """The place value of each exponent digit of a key: the key of each unit vector."""
    return [(bound + 1) ** (nvars - 1 - i) for i in range(nvars)]


def graded(terms: Iterable[tuple[Exponent, Any]], bound: int) -> Graded:
    """The terms of total degree <= ``bound``, as a graded dict."""
    out: Graded = {}
    for exp, c in terms:
        if sum(exp) <= bound:
            out.setdefault(sum(exp), {})[sum(e * p for e, p in zip(exp, places(len(exp), bound)))] = c
    return out


def ungraded(levels: Graded, nvars: int, bound: int) -> dict[Exponent, Any]:
    """The terms by exponent vector, in total degree and then lexicographic order."""
    keys, coeffs = [], []
    for d in sorted(levels):
        ordered = sorted(levels[d])
        keys += ordered
        coeffs += map(levels[d].__getitem__, ordered)
    digits = [[key // p % (bound + 1) for key in keys] for p in places(nvars, bound)]
    return dict(zip(zip(*digits), coeffs))


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
    so the caller can count stored terms once per degree.
    """
    minus_r = {d: {key: -c for key, c in terms.items()} for d, terms in unit.items() if d}
    for k in range(min(levels, default=bound + 1), bound + 1):
        terms = {key: c for key, c in product_degree(minus_r, levels, k, levels.pop(k, {})).items() if c}
        if terms:
            levels[k] = terms
            yield k


# -- constructors ------------------------------------------------------------


def one(nvars: int, bound: int) -> TruncatedSeries:
    return TruncatedSeries(nvars, bound, {(0,) * nvars: Fraction(1)})
