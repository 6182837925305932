"""Static tables for irreducible affine Weyl groups.

Everything downstream (enumeration, series, closed forms) is driven by the
data assembled here:

* the Coxeter matrix of the affine system ``(W, S)`` with ``S = {s_0, ..., s_n}``,
* for each generator an exact integer affine map on the coroot lattice,
* the partition of ``S`` into generator conjugacy classes ``S_1, ..., S_m``,
* the exponents of the finite Weyl group (for the single-variable growth
  formula), and
* the sign characters of the Iwahori-Hecke algebra whose modules are
  discrete series (Borel's classification).

Simple roots are taken in their usual Euclidean realizations (scaled by 2
where half-integer coordinates would otherwise appear; only pairing ratios
matter).  The full root system is generated from them by reflection closure,
tracking each root in simple-root coordinates together with its coroot in
simple-coroot coordinates, so the highest root and the affine reflection come
out exactly, with no table to transcribe.

The tables are small (n <= 8 for the exceptional types) and are built in
plain ints.  The Coxeter matrix is read off the extended Cartan matrix: the
bond order m_st follows from a_st * a_ts = 4 cos^2(pi / m_st), so the
products 0, 1, 2, 3, 4 give 2, 3, 4, 6 and an infinite bond.  The numpy
arrays that enumeration works on are built from the same tables on first
access, so reading the Coxeter matrix, the class partition or the generator
actions (``expand``, ``tables``) does not import numpy.

Node numbering: the affine node is always index 0, finite nodes 1..n follow
Bourbaki, except that in type G2 node 1 is the long simple root (the one the
affine node attaches to).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

__all__ = [
    "INFINITE_BOND",
    "CartanType",
    "ClassPartition",
    "SignCharacter",
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
    """Parse a label like ``"G2"``, ``"C3"`` or ``"E7"`` (case-insensitive)."""
    text = label.strip().upper().replace("_", "")
    if len(text) < 2 or not text[0].isalpha() or not text[1:].isdigit():
        raise ValueError(f"cannot parse Cartan type label {label!r}")
    return CartanType(text[0], int(text[1:]))


# ---------------------------------------------------------------------------
# Root systems
# ---------------------------------------------------------------------------


def _simple_root_vectors(ctype: CartanType) -> list[list[int]]:
    """Simple roots in an integer ambient realization (doubled when needed)."""
    n = ctype.rank
    fam = ctype.family

    def chain(dim: int) -> list[list[int]]:
        roots = []
        for i in range(n - 1):
            v = [0] * dim
            v[i], v[i + 1] = 1, -1
            roots.append(v)
        return roots

    if fam == "A":
        roots = chain(n + 1)
        v = [0] * (n + 1)
        v[n - 1], v[n] = 1, -1
        return roots + [v] if n >= 2 else [[1, -1]]
    if fam == "B":
        last = [0] * n
        last[n - 1] = 1
        return chain(n) + [last]
    if fam == "C":
        last = [0] * n
        last[n - 1] = 2
        return chain(n) + [last]
    if fam == "D":
        last = [0] * n
        last[n - 2] = last[n - 1] = 1
        return chain(n) + [last]
    if fam == "G":
        # Node 1 long (the affine node attaches to it), node 2 short.
        return [[-2, 1, 1], [1, -1, 0]]
    if fam == "F":
        # Doubled coordinates; nodes 1,2 long, 3,4 short.
        return [[0, 2, -2, 0], [0, 0, 2, -2], [0, 0, 0, 2], [1, -1, -1, -1]]
    # E6/E7/E8, doubled coordinates inside the E8 realization.
    e8 = [
        [1, -1, -1, -1, -1, -1, -1, 1],
        [2, 2, 0, 0, 0, 0, 0, 0],
        [-2, 2, 0, 0, 0, 0, 0, 0],
        [0, -2, 2, 0, 0, 0, 0, 0],
        [0, 0, -2, 2, 0, 0, 0, 0],
        [0, 0, 0, -2, 2, 0, 0, 0],
        [0, 0, 0, 0, -2, 2, 0, 0],
        [0, 0, 0, 0, 0, -2, 2, 0],
    ]
    return e8[:n]


Matrix = tuple[tuple[int, ...], ...]
Roots = list[tuple[tuple[int, ...], tuple[int, ...]]]


def _pairing_matrix(ctype: CartanType) -> Matrix:
    """P[i][j] = <alpha_j, alpha_i^vee>, 1-based nodes stored 0-based."""
    roots = _simple_root_vectors(ctype)
    rows = []
    for ri in roots:
        nrm = sum(x * x for x in ri)
        row = []
        for rj in roots:
            num = 2 * sum(a * b for a, b in zip(ri, rj))
            if num % nrm != 0:
                raise AssertionError(f"non-integral pairing for {ctype}")
            row.append(num // nrm)
        rows.append(tuple(row))
    return tuple(rows)


def _root_closure(P: Matrix) -> Roots:
    """All roots as (root coords, coroot coords of the coroot), by closure."""
    n = len(P)
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    frontier = []
    for i in range(n):
        rc = tuple(1 if k == i else 0 for k in range(n))
        seen[rc] = rc
        frontier.append((rc, rc))
    while frontier:
        new = []
        for rc, cc in frontier:
            for i in range(n):
                # <beta, alpha_i^vee> and <alpha_i, beta^vee>
                pair_r = sum(P[i][j] * rc[j] for j in range(n))
                pair_c = sum(P[k][i] * cc[k] for k in range(n))
                rc2 = rc[:i] + (rc[i] - pair_r,) + rc[i + 1 :]
                cc2 = cc[:i] + (cc[i] - pair_c,) + cc[i + 1 :]
                if rc2 not in seen:
                    seen[rc2] = cc2
                    new.append((rc2, cc2))
        frontier = new
    return sorted(seen.items())


def _highest_root(roots: Roots) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Highest root (root coords) and its coroot (coroot coords), from the closure."""
    best = max(roots, key=lambda rc: sum(rc[0]))
    top = [rc for rc in roots if sum(rc[0]) == sum(best[0])]
    if len(top) != 1:
        raise AssertionError("highest root is not unique; root system not irreducible?")
    return top[0]


def _alcove_point(roots: Roots) -> tuple[int, tuple[int, ...]]:
    """``(D, D*p)`` for the point p with <alpha_i, p> = 1/h for every simple root.

    p = rho^vee / h, with rho^vee the half-sum of the positive coroots
    (<alpha_i, rho^vee> = 1) and h = 1 + height(theta) the Coxeter number.
    p lies inside the fundamental alcove (<theta, p> = (h-1)/h < 1), so the
    affine Weyl group, acting simply transitively on alcoves, moves it to
    pairwise distinct points.  D is the least integer making D*p integral.
    """
    two_rho = tuple(map(sum, zip(*(cc for rc, cc in roots if min(rc) >= 0))))
    h = max(sum(rc) for rc, _ in roots) + 1
    g = math.gcd(2 * h, *two_rho)
    return 2 * h // g, tuple(x // g for x in two_rho)


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
        if not self.signs or any(s not in (-1, 1) for s in self.signs):
            raise ValueError(f"signs must be a nonempty tuple over {{-1,+1}}, got {self.signs}")

    @property
    def is_steinberg(self) -> bool:
        return all(s == -1 for s in self.signs)

    def __str__(self) -> str:
        return "(" + ",".join(f"{s:+d}" for s in self.signs) + ")"


class _Int64Table:
    """Read-only int64 array of the plain-int table ``_<name>``.

    Built, and numpy imported, on first access; the array then sits in the
    instance dict, which shadows this descriptor.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        import numpy as np

        arr = np.array(getattr(obj, "_" + self.name), dtype=np.int64)
        arr.setflags(write=False)
        obj.__dict__[self.name] = arr
        return arr


def _matvec(M: Matrix, x: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, x)) for row in M)


class AffineCoxeterSystem:
    """An affine Coxeter system with exact integer generator actions.

    Generators are indexed 0..n (0 = affine node).  Generator ``s`` acts on
    the coroot lattice as ``x -> linear[s] @ x + translation[s]``, in
    simple-coroot coordinates.  Immutable after construction; safe to share.

    The tables are computed in plain ints (n <= 8).  ``extended_cartan`` is
    the extended Cartan matrix as a tuple of int tuples, and the Coxeter
    matrix and class partition are read off it.  The array attributes
    ``pairing``, ``highest_root``, ``gen_linear``, ``gen_translation``,
    ``alcove_point``, ``alcove_images``, ``positive_root_pairings``,
    ``descent_normals`` and ``descent_offsets`` are read-only int64 numpy
    arrays of the same tables, built on first access; only code that does
    array work imports numpy.

    ``alcove_point`` is D*p for the interior point p of the fundamental
    alcove with <alpha_i, p> = 1/h (h the Coxeter number, D =
    ``alcove_scale``), and ``alcove_images[s]`` is s(D*p).  An element w is
    determined by the integer point w(D*p), and its length is the number of
    root hyperplanes separating p from w(p).  Row ``a`` of
    ``positive_root_pairings`` is (<alpha, alpha_k^vee>)_k for the a-th
    positive root alpha, so that <alpha, x> is that row times x.

    ``descent_normals`` F and ``descent_offsets`` c decide left descents:
    s is a left descent of w iff F[s] . y < c[s] for y = w(D*p).  With
    u_s = D*p - s(D*p), both y - s(y) and u_s are multiples of the coroot
    of s, so their coordinate dot product is negative exactly when the wall
    of s separates y from D*p; expanding s(y) = A_s y + D*b_s gives
    F[s] = u_s - A_s^T u_s and c[s] = D*b_s . u_s.
    """

    pairing = _Int64Table()
    highest_root = _Int64Table()
    gen_linear = _Int64Table()
    gen_translation = _Int64Table()
    alcove_point = _Int64Table()
    alcove_images = _Int64Table()
    positive_root_pairings = _Int64Table()
    descent_normals = _Int64Table()
    descent_offsets = _Int64Table()

    def __init__(self, ctype: CartanType):
        self.ctype = ctype
        self.rank = ctype.rank
        n = self.rank
        P = _pairing_matrix(ctype)
        roots = _root_closure(P)
        theta, theta_covec = _highest_root(roots)
        # theta as a functional on the coroot lattice: f[k] = <theta, alpha_k^vee>
        f = _matvec(P, theta)
        eye = [[int(a == b) for b in range(n)] for a in range(n)]

        gens_lin = [tuple(tuple(eye[a][b] - theta_covec[a] * f[b] for b in range(n)) for a in range(n))]
        gens_tr = [theta_covec]
        for i in range(n):
            M = [row[:] for row in eye]
            M[i] = [M[i][b] - P[b][i] for b in range(n)]
            gens_lin.append(tuple(map(tuple, M)))
            gens_tr.append((0,) * n)
        scale, point = _alcove_point(roots)
        images = [
            tuple(x + scale * v for x, v in zip(_matvec(A, point), b)) for A, b in zip(gens_lin, gens_tr)
        ]
        u = [tuple(p - x for p, x in zip(point, image)) for image in images]
        normals = [
            tuple(u_s[i] - sum(A[j][i] * u_s[j] for j in range(n)) for i in range(n))
            for A, u_s in zip(gens_lin, u)
        ]

        self._pairing = P
        self._highest_root = theta
        self._gen_linear = tuple(gens_lin)
        self._gen_translation = tuple(gens_tr)
        self.num_gens = n + 1
        self.alcove_scale = scale
        self._alcove_point = point
        self._alcove_images = tuple(images)
        self._positive_root_pairings = tuple(_matvec(P, rc) for rc, _ in roots if min(rc) >= 0)
        self._descent_normals = tuple(normals)
        self._descent_offsets = tuple(scale * sum(x * y for x, y in zip(b, u_s)) for b, u_s in zip(gens_tr, u))
        self.extended_cartan = _extended_cartan_matrix(P, theta, theta_covec)
        self.coxeter_matrix = _coxeter_matrix(self.extended_cartan)
        self.partition = conjugacy_partition(self.coxeter_matrix)

    # -- public surface -------------------------------------------------------

    @property
    def m(self) -> int:
        return self.partition.m

    def longest_multilength(self, nodes: Iterable[int]) -> tuple[int, ...]:
        """Multilength of the longest element w0(J) of the parabolic W_J, J = ``nodes``.

        The reflections met along a reduced word of w0(J) are the reflections
        in the positive roots of J, each once, and each lies in the class of
        the letter it is met at.  So the class-c length of w0(J) is the
        number of positive roots whose reflection is in class c.  They are
        found by a closure under the simple reflections of J on J's rows of
        ``extended_cartan``, each root tagged with the class of the simple
        root it is an image of.  J must be a proper subset of the
        generators: W_J is then finite, and W itself has no longest element.
        """
        nodes = sorted(set(nodes))
        if len(nodes) == self.num_gens:
            raise ValueError("an affine Weyl group has no longest element; need a proper subset")
        a = [[self.extended_cartan[s][t] for t in nodes] for s in nodes]
        class_of = self.partition.class_of
        unit = [tuple(int(i == j) for j in range(len(nodes))) for i in range(len(nodes))]
        tags = {root: class_of[s] for root, s in zip(unit, nodes)}
        frontier = list(unit)
        while frontier:
            new = []
            for root in frontier:
                for i, row in enumerate(a):
                    if root == unit[i]:
                        continue  # the one positive root s_i makes negative
                    pair = sum(x * y for x, y in zip(row, root))
                    image = root[:i] + (root[i] - pair,) + root[i + 1 :]
                    if image not in tags:
                        tags[image] = tags[root]
                        new.append(image)
                    elif tags[image] != tags[root]:
                        raise AssertionError("a root reflection lies in two classes")
            frontier = new
        out = [0] * self.m
        for tag in tags.values():
            out[tag] += 1
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


# ---------------------------------------------------------------------------
# Exponents (hard-coded; pinned by the expansion-vs-enumeration tests)
# ---------------------------------------------------------------------------


def exponents(ctype: CartanType) -> tuple[int, ...]:
    """Exponents m_1 <= ... <= m_n of the finite Weyl group of ``ctype``."""
    n = ctype.rank
    fam = ctype.family
    if fam == "A":
        return tuple(range(1, n + 1))
    if fam in ("B", "C"):
        return tuple(range(1, 2 * n, 2))
    if fam == "D":
        return tuple(sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]))
    if fam == "G":
        return (1, 5)
    if fam == "F":
        return (1, 5, 7, 11)
    return {
        6: (1, 4, 5, 7, 8, 11),
        7: (1, 5, 7, 9, 11, 13, 17),
        8: (1, 7, 11, 13, 17, 19, 23, 29),
    }[n]


# ---------------------------------------------------------------------------
# Borel's list of degree-1 discrete series characters
# ---------------------------------------------------------------------------


def steinberg_character(ctype: CartanType) -> SignCharacter:
    m = build_affine_system(ctype).m
    return SignCharacter((-1,) * m)


def borel_discrete_series_list(ctype: CartanType) -> list[SignCharacter]:
    """Sign characters whose 1-dimensional modules are discrete series.

    The Steinberg character (all -1) appears for every type.  The extra
    entries exist only for m >= 2 types; they are stated here in the
    canonical class order of :func:`conjugacy_partition`.  For C2 all three
    classes are singletons and the canonical order puts the end nodes
    {s_0}, {s_2} in positions 1 and 3, so the two extra characters carry
    their +1 on an end-node class (the chain class {s_1} always gets -1).
    """
    system = build_affine_system(ctype)
    m = system.m
    chars = [SignCharacter((-1,) * m)]
    fam, n = ctype.family, ctype.rank
    if fam in ("B", "F", "G"):
        chars.append(SignCharacter((-1, 1)))
    elif fam == "C":
        if n == 2:
            # classes in canonical order: ({s_0}, {s_1}, {s_2})
            chars.append(SignCharacter((-1, -1, 1)))
            chars.append(SignCharacter((1, -1, -1)))
        else:
            # classes in canonical order: ({s_1..s_{n-1}}, {s_0}, {s_n})
            chars.append(SignCharacter((-1, -1, 1)))
            chars.append(SignCharacter((-1, 1, -1)))
            if n >= 4:
                chars.append(SignCharacter((-1, 1, 1)))
    elif fam == "A" and n == 1:
        pass  # Steinberg only
    return chars


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
        "highest_root": list(system._highest_root),
        "generator_actions": [
            {"matrix": [list(row) for row in matrix], "translation": list(translation)}
            for matrix, translation in zip(system._gen_linear, system._gen_translation)
        ],
        "discrete_series_characters": [list(c.signs) for c in borel_discrete_series_list(ctype)],
    }
