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

Node numbering: the affine node is always index 0, finite nodes 1..n follow
Bourbaki, except that in type G2 node 1 is the long simple root (the one the
affine node attaches to).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


def _pairing_matrix(ctype: CartanType) -> np.ndarray:
    """P[i][j] = <alpha_j, alpha_i^vee>, 1-based nodes stored 0-based."""
    roots = _simple_root_vectors(ctype)
    n = len(roots)
    P = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        nrm = sum(x * x for x in roots[i])
        for j in range(n):
            dot = sum(a * b for a, b in zip(roots[i], roots[j]))
            num = 2 * dot
            if num % nrm != 0:
                raise AssertionError(f"non-integral pairing for {ctype}")
            P[i, j] = num // nrm
    return P


def _root_closure(P: np.ndarray) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All roots as (root coords, coroot coords of the coroot), by closure."""
    n = P.shape[0]
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
                pair_r = sum(P[i, j] * rc[j] for j in range(n))
                pair_c = sum(P[k, i] * cc[k] for k in range(n))
                rc2 = tuple(rc[j] - (pair_r if j == i else 0) for j in range(n))
                cc2 = tuple(cc[k] - (pair_c if k == i else 0) for k in range(n))
                if rc2 not in seen:
                    seen[rc2] = cc2
                    new.append((rc2, cc2))
        frontier = new
    return sorted(seen.items())


def _highest_root(roots: list[tuple[tuple[int, ...], tuple[int, ...]]]) -> tuple[np.ndarray, np.ndarray]:
    """Highest root (root coords) and its coroot (coroot coords), from the closure."""
    best = max(roots, key=lambda rc: sum(rc[0]))
    top = [rc for rc in roots if sum(rc[0]) == sum(best[0])]
    if len(top) != 1:
        raise AssertionError("highest root is not unique; root system not irreducible?")
    rc, cc = top[0]
    return np.array(rc, dtype=np.int64), np.array(cc, dtype=np.int64)


def _alcove_point(roots: list[tuple[tuple[int, ...], tuple[int, ...]]]) -> tuple[int, np.ndarray]:
    """``(D, D*p)`` for the point p with <alpha_i, p> = 1/h for every simple root.

    p = rho^vee / h, with rho^vee the half-sum of the positive coroots
    (<alpha_i, rho^vee> = 1) and h = 1 + height(theta) the Coxeter number.
    p lies inside the fundamental alcove (<theta, p> = (h-1)/h < 1), so the
    affine Weyl group, acting simply transitively on alcoves, moves it to
    pairwise distinct points.  D is the least integer making D*p integral.
    """
    two_rho = np.sum([cc for rc, cc in roots if min(rc) >= 0], axis=0, dtype=np.int64)
    h = max(sum(rc) for rc, _ in roots) + 1
    g = math.gcd(2 * h, *(int(x) for x in two_rho))
    return 2 * h // g, two_rho // g


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


class AffineCoxeterSystem:
    """An affine Coxeter system with exact integer generator actions.

    Generators are indexed 0..n (0 = affine node).  Generator ``s`` acts on
    the coroot lattice as ``x -> linear[s] @ x + translation[s]``, in
    simple-coroot coordinates.  Immutable after construction; safe to share.

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

    def __init__(self, ctype: CartanType):
        self.ctype = ctype
        self.rank = ctype.rank
        n = self.rank
        P = _pairing_matrix(ctype)
        roots = _root_closure(P)
        theta, theta_covec = _highest_root(roots)
        # theta as a functional on the coroot lattice: f[k] = <theta, alpha_k^vee>
        f = P @ theta

        gens_lin = np.empty((n + 1, n, n), dtype=np.int64)
        gens_tr = np.zeros((n + 1, n), dtype=np.int64)
        gens_lin[0] = np.eye(n, dtype=np.int64) - np.outer(theta_covec, f)
        gens_tr[0] = theta_covec
        for i in range(1, n + 1):
            M = np.eye(n, dtype=np.int64)
            M[i - 1, :] -= P[:, i - 1]
            gens_lin[i] = M
        scale, point = _alcove_point(roots)
        images = gens_lin @ point + scale * gens_tr
        pairings = np.array([P @ rc for rc, _ in roots if min(rc) >= 0], dtype=np.int64)
        u = point - images
        normals = u - np.einsum("sji,sj->si", gens_lin, u)
        offsets = scale * (gens_tr * u).sum(axis=1)
        for arr in (gens_lin, gens_tr, point, images, pairings, normals, offsets):
            arr.setflags(write=False)

        self.pairing = P
        self.highest_root = theta
        self.gen_linear = gens_lin
        self.gen_translation = gens_tr
        self.num_gens = n + 1
        self.alcove_scale = scale
        self.alcove_point = point
        self.alcove_images = images
        self.positive_root_pairings = pairings
        self.descent_normals = normals
        self.descent_offsets = offsets
        self.coxeter_matrix = self._compute_coxeter_matrix()
        self.partition = conjugacy_partition(self.coxeter_matrix)

    # -- construction helpers ------------------------------------------------

    def _compute_coxeter_matrix(self) -> tuple[tuple[int, ...], ...]:
        g = self.num_gens
        rows = []
        for s in range(g):
            row = []
            for t in range(g):
                row.append(1 if s == t else self._bond_order(s, t))
            rows.append(tuple(row))
        return tuple(rows)

    def _bond_order(self, s: int, t: int) -> int:
        """Order of s*t as an exact affine map; INFINITE_BOND past the cap."""
        Ms = self.gen_linear[s]
        Mt = self.gen_linear[t]
        vs = self.gen_translation[s]
        vt = self.gen_translation[t]
        M = Ms @ Mt
        v = Ms @ vt + vs
        accM, accv = M.copy(), v.copy()
        for order in range(1, 8):
            if np.array_equal(accM, np.eye(self.rank, dtype=np.int64)) and not accv.any():
                if order not in (2, 3, 4, 6):
                    raise AssertionError(f"unexpected bond order {order} in {self.ctype}")
                return order
            accv = M @ accv + v
            accM = M @ accM
        return INFINITE_BOND

    # -- public surface -------------------------------------------------------

    @property
    def m(self) -> int:
        return self.partition.m

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
        "highest_root": [int(c) for c in system.highest_root],
        "generator_actions": [
            {
                "matrix": system.gen_linear[s].tolist(),
                "translation": system.gen_translation[s].tolist(),
            }
            for s in range(system.num_gens)
        ],
        "discrete_series_characters": [list(c.signs) for c in borel_discrete_series_list(ctype)],
    }


def tables_json(ctype: CartanType, indent: int | None = 2) -> str:
    return json.dumps(tables_document(ctype), indent=indent, sort_keys=False)
