"""Static tables for irreducible affine Weyl groups.

Everything downstream (enumeration, series, closed forms) is driven by the
data assembled here:

* the Coxeter matrix of the affine system ``(W, S)`` with ``S = {s_0, ..., s_n}``,
* for each generator an exact integer affine map on the coroot lattice,
* the partition of ``S`` into generator conjugacy classes ``S_1, ..., S_m``,
* the exponents of the finite Weyl group (for the single-variable growth
  formula), and
* the sign characters of the Iwahori-Hecke algebra whose modules are
  discrete series, derived from the positive roots by Borel's criterion.

The pairings P[i][j] = <alpha_j, alpha_i^vee> of the simple roots are read
off the Dynkin diagram, a list of bonds with their length ratios; no root
coordinates are transcribed.  The positive roots are raised from the simple
ones by simple reflections, tracking each root in simple-root coordinates
together with its coroot in simple-coroot coordinates, so the highest root
and the affine reflection come out exactly, with no table to transcribe.  The
same raising on a parabolic J's rows and columns of the extended Cartan
matrix gives the roots of W_J, and so the longest element w0(J) class by
class (:meth:`AffineCoxeterSystem.longest_multilength`).

The tables are small (n <= 8 for the exceptional types) and are plain int
tuples; this module does not import numpy, and the enumeration in
:mod:`gyoja.weyl` builds the arrays it walks from them.  The Coxeter matrix
is read off the extended Cartan matrix: the bond order m_st follows from
a_st * a_ts = 4 cos^2(pi / m_st), so the products 0, 1, 2, 3, 4 give 2, 3,
4, 6 and an infinite bond.  The exponents are read off the root heights.

Node numbering: the affine node is always index 0, finite nodes 1..n follow
Bourbaki, except that in type G2 node 1 is the long simple root (the one the
affine node attaches to).
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable

__all__ = [
    "INFINITE_BOND",
    "CartanType",
    "ClassPartition",
    "SignCharacter",
    "residue_field_size",
    "AffineCoxeterSystem",
    "parse_cartan_type",
    "build_affine_system",
    "conjugacy_partition",
    "exponents",
    "borel_discrete_series_list",
    "steinberg_character",
    "tables_document",
]

# Coxeter-matrix marker for an infinite bond (GAP's "order 0" convention).
INFINITE_BOND = 0

_RANK_RANGES = {"A": (1, None), "B": (3, None), "C": (2, None), "D": (4, None)}
_FIXED_RANKS = {"E": (6, 7, 8), "F": (4,), "G": (2,)}


@dataclass(frozen=True, order=True)
class CartanType:
    """An irreducible finite type ``X_n``; the affine system has n+1 generators."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family in _RANK_RANGES:
            lo, _ = _RANK_RANGES[self.family]
            if self.rank < lo:
                if (self.family, self.rank) == ("B", 2):
                    raise ValueError(
                        "B2 is not supported as a distinct type: the affine "
                        "systems of B2 and C2 coincide; use C2."
                    )
                if (self.family, self.rank) == ("D", 3):
                    raise ValueError("D3 coincides with A3; use A3.")
                raise ValueError(f"rank {self.rank} out of range for family {self.family} (need >= {lo})")
        elif self.family in _FIXED_RANKS:
            if self.rank not in _FIXED_RANKS[self.family]:
                allowed = ",".join(str(r) for r in _FIXED_RANKS[self.family])
                raise ValueError(f"family {self.family} has rank in {{{allowed}}}, got {self.rank}")
        else:
            raise ValueError(f"unknown family {self.family!r} (expected one of A,B,C,D,E,F,G)")

    @property
    def label(self) -> str:
        return f"{self.family}{self.rank}"

    def __str__(self) -> str:
        return self.label


def parse_cartan_type(label: str) -> CartanType:
    """Parse a type's own label, its family letter in either case (``"G2"``, ``"g2"``); else ValueError."""
    if label.isascii() and label[1:].isdigit():
        ctype = CartanType(label[0].upper(), int(label[1:]))
        if ctype.label == label.upper():
            return ctype
    raise ValueError(f"cannot parse Cartan type label {label!r}")


# ---------------------------------------------------------------------------
# Root systems
# ---------------------------------------------------------------------------


Matrix = tuple[tuple[int, ...], ...]
Roots = list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int]]


def _pairing_matrix(ctype: CartanType) -> Matrix:
    """P[i][j] = <alpha_j, alpha_i^vee>, read off the Dynkin diagram; nodes 1..n stored 0..n-1.

    A bond (i, j, k) joins node i to node j with |alpha_i|^2 = k * |alpha_j|^2,
    so <alpha_j, alpha_i^vee> = -1 and <alpha_i, alpha_j^vee> = -k.  The bonds
    are those of Bourbaki, *Lie Groups and Lie Algebras*, Ch. VI, Plates I-IX:
    a chain, which each family edits.
    """
    n, fam = ctype.rank, ctype.family
    bonds = [(i, i + 1, 1) for i in range(n - 1)]
    if fam == "B":
        bonds[-1] = (n - 2, n - 1, 2)  # alpha_n short
    elif fam == "C":
        bonds[-1] = (n - 1, n - 2, 2)  # alpha_n long
    elif fam == "D":
        bonds[-1] = (n - 3, n - 1, 1)  # the fork
    elif fam == "E":
        bonds[:2] = [(0, 2, 1), (1, 3, 1)]  # 1-3 and 2-4, then 3-4, 4-5, ...
    elif fam == "F":
        bonds[1] = (1, 2, 2)  # nodes 1, 2 long, 3, 4 short
    elif fam == "G":
        bonds = [(0, 1, 3)]  # node 1 long
    P = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j, k in bonds:
        P[i][j], P[j][i] = -1, -k
    return tuple(map(tuple, P))


def _positive_roots(P: Matrix) -> Roots:
    """Positive roots beta, sorted, as (root coords, coroot coords, (<beta, alpha_k^vee>)_k, origin).

    s_i raises a positive root beta with <beta, alpha_i^vee> < 0 to a higher
    one, and every positive root that is not simple is raised so from a lower
    one (s_i of it, for an i where it pairs positively); so these raisings find exactly
    the positive roots, each in the W0-orbit of its origin (0..n-1), the simple root it rose from.

    Each round raises the height by at least 1, and the highest root's is
    h - 1 for the Coxeter number h <= max(2n, 30), so a finite-type P stops
    within max(2n, 30) rounds.  Any other P raises AssertionError there.
    """
    n = len(P)
    columns = list(zip(*P))  # columns[i][k] = <alpha_i, alpha_k^vee>
    seen = {}
    for i in range(n):
        unit = tuple(int(k == i) for k in range(n))
        seen[unit] = (unit, columns[i], i)
    frontier = list(seen)
    for _ in range(max(2 * n, 30)):
        if not frontier:
            break
        new = []
        for rc in frontier:
            cc, pairs, origin = seen[rc]
            for i, pair in enumerate(pairs):
                if pair < 0:
                    raised = rc[:i] + (rc[i] - pair,) + rc[i + 1 :]
                    if raised not in seen:
                        pair_c = sum(x * y for x, y in zip(columns[i], cc))  # <alpha_i, beta^vee>
                        seen[raised] = (
                            cc[:i] + (cc[i] - pair_c,) + cc[i + 1 :],
                            tuple(x - pair * y for x, y in zip(pairs, columns[i])),
                            origin,
                        )
                        new.append(raised)
        frontier = new
    else:
        raise AssertionError(f"roots still rising after {max(2 * n, 30)} rounds; pairing matrix not of finite type")
    return sorted((rc, cc, pairs, origin) for rc, (cc, pairs, origin) in seen.items())


def _highest_root(roots: Roots) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], int]:
    """The entry of the highest root, the one root of greatest height; no s_i raises it further."""
    heights = [sum(rc) for rc, _, _, _ in roots]
    if heights.count(top := max(heights)) != 1:
        raise AssertionError("highest root is not unique; root system not irreducible?")
    return roots[heights.index(top)]


def _exponents(positive: list[tuple[int, ...]]) -> tuple[int, ...]:
    """Exponents of the finite Weyl group from the positive roots, in root coordinates.

    #{i : e_i >= k} is the number of positive roots of height k (Kostant,
    Amer. J. Math. 81, 1959), so k is an exponent as many times as there
    are more roots of height k than of height k + 1.
    """
    heights = Counter(map(sum, positive))
    return tuple(k for k in sorted(heights) for _ in range(heights[k] - heights[k + 1]))


def _class_weights(roots: Roots, P: Matrix, class_of: tuple[int, ...], m: int) -> list[tuple[int, ...]]:
    """w_c = 4 rho_c in simple-root coordinates: the roots, each once per half of its hyperplanes in class c.

    The reflections in <alpha, x> = k lie in the class of alpha's origin, but odd k in s_0's when the origin
    (so all its W0-orbit) pairs evenly with each simple coroot: C_n's long roots, A1's root.
    """
    by_origin: list[list[tuple[int, ...]]] = [[] for _ in P]
    for rc, _, _, origin in roots:
        by_origin[origin].append(rc)
    w = [(0,) * len(P)] * m
    for i, rows in enumerate(by_origin):
        c, total = class_of[i + 1], tuple(map(sum, zip(*rows)))
        for half in (c, c if math.gcd(*(row[i] for row in P)) % 2 else class_of[0]):
            w[half] = tuple(map(int.__add__, w[half], total))
    return w


# Bond order m_st from the Cartan product a_st * a_ts = 4 cos^2(pi / m_st).
_BOND_OF_PRODUCT = {0: 2, 1: 3, 2: 4, 3: 6, 4: INFINITE_BOND}


def _extended_cartan_matrix(P: Matrix, theta: tuple[int, ...], theta_covec: tuple[int, ...]) -> Matrix:
    """a[s][t] = <alpha_t, alpha_s^vee> over the affine nodes 0..n.

    Node 0 is the affine root alpha_0 = delta - theta, so a_{i0} =
    -<theta, alpha_i^vee> and a_{0i} = -<alpha_i, theta^vee>; the finite
    nodes pair through P.
    """
    n = len(P)
    a = [(2,) + tuple(-sum(P[k][i] * theta_covec[k] for k in range(n)) for i in range(n))]
    for i in range(n):
        a.append((-sum(P[i][j] * theta[j] for j in range(n)),) + P[i])
    return tuple(a)


def _coxeter_matrix(a: Matrix) -> Matrix:
    """Coxeter matrix of the affine system from its extended Cartan matrix.

    A product a_st * a_ts of 4 occurs only in type A1, whose two affine
    generators generate an infinite dihedral group.
    """
    rows = []
    for s in range(len(a)):
        row = []
        for t in range(len(a)):
            product = a[s][t] * a[t][s]
            if s != t and product not in _BOND_OF_PRODUCT:
                raise AssertionError(f"Cartan product {product} is no bond")
            row.append(1 if s == t else _BOND_OF_PRODUCT[product])
        rows.append(tuple(row))
    return tuple(rows)


# ---------------------------------------------------------------------------
# Affine systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassPartition:
    """Generator conjugacy classes S_1, ..., S_m, in the canonical order.

    Classes are the connected components of the Coxeter graph restricted to
    odd bond labels, sorted by (size descending, then smallest node index).
    ``class_of[s]`` is the class index of generator ``s``.
    """

    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class SignCharacter:
    """Degree-1 character of the Hecke algebra, one sign per generator class.

    ``signs[i] = -1`` sends the class-``i`` generators to -1, ``signs[i] = +1``
    sends them to the Hecke parameter q = q_o**2.
    """

    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        signs = tuple(self.signs)
        if not signs or any(s not in (-1, 1) for s in signs):
            raise ValueError(f"signs must be a nonempty tuple over {{-1,+1}}, got {signs}")
        object.__setattr__(self, "signs", tuple(int(s) for s in signs))

    @property
    def is_steinberg(self) -> bool:
        return all(s == -1 for s in self.signs)

    def __str__(self) -> str:
        return "(" + ",".join(f"{s:+d}" for s in self.signs) + ")"


def residue_field_size(q_o) -> int:
    """``q_o`` as a Python int; ValueError unless it is an integer >= 2.

    q_o is the size of a residue field and q = q_o**2 the Hecke parameter.
    Any ``numbers.Integral`` is accepted (numpy integers too); a float or a
    ``Fraction`` is not, whatever its value.
    """
    # int first: it is the common case, and the ABC check costs ten times more
    if not isinstance(q_o, (int, numbers.Integral)) or q_o < 2:
        raise ValueError(f"q_o must be >= 2 (a residue field size, so an integer), got {q_o!r}")
    return int(q_o)


class AffineCoxeterSystem:
    """An affine Coxeter system with exact integer generator actions.

    Generators are indexed 0..n (0 = affine node).  Generator ``s`` acts on
    the coroot lattice as ``x -> linear[s] @ x + translation[s]``, in
    simple-coroot coordinates.  Immutable after construction; safe to share.

    Every table is a plain int tuple (n <= 8 for the exceptional types):
    ``pairing`` (P[i][j] = <alpha_j, alpha_i^vee>), ``highest_root`` (theta
    in simple-root coordinates), ``gen_linear``, ``gen_translation``,
    ``extended_cartan``, ``coxeter_matrix``, ``exponents`` and
    ``discrete_series``; the class partition is read off the Coxeter matrix.

    ``extended_cartan`` (a[s][t] = <alpha_t, alpha_s^vee> over the nodes
    0..n) is all the numbers game needs: :mod:`gyoja.weyl` keys the
    elements of its walk, and :mod:`gyoja.counting` its coset
    representatives, by integer vectors over the nodes, and firing s
    updates a vector v to v - v_s * a[s].
    """

    def __init__(self, ctype: CartanType):
        self.ctype = ctype
        self.rank = ctype.rank
        n = self.rank
        P = _pairing_matrix(ctype)
        roots = _positive_roots(P)
        # f is theta as a functional on the coroot lattice: f[k] = <theta, alpha_k^vee>
        theta, theta_covec, f, _ = _highest_root(roots)
        eye = [[int(a == b) for b in range(n)] for a in range(n)]

        gens_lin = [tuple(tuple(eye[a][b] - theta_covec[a] * f[b] for b in range(n)) for a in range(n))]
        gens_tr = [theta_covec]
        for i in range(n):
            M = [row[:] for row in eye]
            M[i] = [M[i][b] - P[b][i] for b in range(n)]
            gens_lin.append(tuple(map(tuple, M)))
            gens_tr.append((0,) * n)

        self.pairing = P
        self.highest_root = theta
        self.gen_linear = tuple(gens_lin)
        self.gen_translation = tuple(gens_tr)
        self.num_gens = n + 1
        self.extended_cartan = _extended_cartan_matrix(P, theta, theta_covec)
        self.coxeter_matrix = _coxeter_matrix(self.extended_cartan)
        self.partition = conjugacy_partition(self.coxeter_matrix)
        self.exponents = _exponents([rc for rc, _, _, _ in roots])
        w = _class_weights(roots, P, self.partition.class_of, self.m)
        signs = (e for e in product((-1, 1), repeat=self.m) if all(sum(map(int.__mul__, e, k)) < 0 for k in zip(*w)))
        self.discrete_series = tuple(map(SignCharacter, signs))

    # -- public surface -------------------------------------------------------

    @property
    def m(self) -> int:
        return self.partition.m

    def longest_multilength(self, nodes: Iterable[int]) -> tuple[int, ...]:
        """Multilength of the longest element w0(J) of the parabolic W_J, J = ``nodes``.

        The letters s_1 ... s_N of a reduced word of w0(J) match the N
        reflections of W_J one to one: s_i gives t_i = s_1 ... s_{i-1} s_i
        s_{i-1} ... s_1, which is conjugate to it (Bjorner-Brenti,
        *Combinatorics of Coxeter Groups*, Ch. 1).  So w0(J) has one letter in
        class c per positive root of W_J whose reflection lies in c.  The roots
        are raised on J's rows and columns of ``extended_cartan``
        (:func:`_positive_roots`), each in the W_J-orbit of the node it rose
        from, so its reflection lies in that node's class.

        J must be a proper subset of the generators, so W_J is finite; roots
        that are still rising at :func:`_positive_roots`' bound show a W_J that
        is not, and AssertionError is raised there.
        """
        nodes = sorted(set(nodes))
        if any(s not in range(self.num_gens) for s in nodes):
            raise ValueError(f"nodes must lie in 0..{self.num_gens - 1}, got {nodes}")
        if len(nodes) == self.num_gens:
            raise ValueError("an affine Weyl group has no longest element; need a proper subset")
        try:
            roots = _positive_roots(tuple(tuple(self.extended_cartan[s][t] for t in nodes) for s in nodes))
        except AssertionError as error:
            raise AssertionError(f"roots of {nodes} still rising; W_J not finite") from error
        out = [0] * self.m
        for *_, origin in roots:
            out[self.partition.class_of[nodes[origin]]] += 1
        return tuple(out)

    def __repr__(self) -> str:
        return f"AffineCoxeterSystem({self.ctype.label})"


@lru_cache(maxsize=None)
def build_affine_system(ctype: CartanType) -> AffineCoxeterSystem:
    """Build (and memoize) the affine system for a supported Cartan type."""
    return AffineCoxeterSystem(ctype)


def conjugacy_partition(coxeter_matrix: tuple[tuple[int, ...], ...]) -> ClassPartition:
    """Connected components of the diagram under odd (finite) bond labels.

    Two generators are conjugate in a Coxeter group exactly when they are
    joined by a path of odd bonds; infinite bonds never join.
    """
    g = len(coxeter_matrix)
    comp = list(range(g))

    def find(x: int) -> int:
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for s in range(g):
        for t in range(s + 1, g):
            mst = coxeter_matrix[s][t]
            if mst != INFINITE_BOND and mst % 2 == 1:
                comp[find(s)] = find(t)
    groups: dict[int, list[int]] = {}
    for s in range(g):
        groups.setdefault(find(s), []).append(s)
    classes = sorted((tuple(sorted(c)) for c in groups.values()), key=lambda c: (-len(c), c[0]))
    class_of = [0] * g
    for i, cls in enumerate(classes):
        for s in cls:
            class_of[s] = i
    return ClassPartition(tuple(classes), tuple(class_of))


def exponents(ctype: CartanType) -> tuple[int, ...]:
    """Exponents m_1 <= ... <= m_n of the finite Weyl group of ``ctype``."""
    return build_affine_system(ctype).exponents


# ---------------------------------------------------------------------------
# Borel's list of degree-1 discrete series characters
# ---------------------------------------------------------------------------


def steinberg_character(ctype: CartanType) -> SignCharacter:
    return build_affine_system(ctype).discrete_series[0]


def borel_discrete_series_list(ctype: CartanType) -> list[SignCharacter]:
    """Sign characters with discrete-series modules, in lexicographic sign order: Steinberg first.

    Borel's sum sum_w |chi_eps(T_w)|^2 / q^l(w) (Invent. Math. 35, 1976) is W(t) at t_c = q^eps_c, and
    l_c(t_lambda u) = <lambda+, 2 rho_c> + O(1) with lambda+ dominant (4 rho_c = w_c of ``_class_weights``),
    so it converges iff every <varpi_k^vee, sum_c eps_c 2 rho_c> < 0; a 0 diverges, as for C3's (-1, +1, +1).
    """
    return list(build_affine_system(ctype).discrete_series)


# ---------------------------------------------------------------------------
# JSON export
# ---------------------------------------------------------------------------

TABLES_SCHEMA_VERSION = 1


def tables_document(ctype: CartanType) -> dict:
    """Versioned JSON-ready document with the static tables for one type.

    Coxeter-matrix entries use 0 for an infinite bond.  Matrices act on
    column vectors of simple-coroot coordinates.
    """
    system = build_affine_system(ctype)
    return {
        "schema": "gyoja-cartan-tables",
        "schema_version": TABLES_SCHEMA_VERSION,
        "type": ctype.label,
        "rank": ctype.rank,
        "num_generators": system.num_gens,
        "coxeter_matrix": [list(row) for row in system.coxeter_matrix],
        "infinite_bond_marker": INFINITE_BOND,
        "class_partition": [list(c) for c in system.partition.classes],
        "m": system.m,
        "exponents": list(exponents(ctype)),
        "highest_root": list(system.highest_root),
        "generator_actions": [
            {"matrix": [list(row) for row in matrix], "translation": list(translation)}
            for matrix, translation in zip(system.gen_linear, system.gen_translation)
        ],
        "discrete_series_characters": [list(c.signs) for c in borel_discrete_series_list(ctype)],
    }
