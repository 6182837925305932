"""Independent oracles for the test suite.

Everything here deliberately avoids the library's breadth-first enumeration
logic: elements are found by evaluating *every* word up to a length bound
(via the exact generator actions) and taking minima, so lengths, reduced
words and counts come from a different computation path than the Ball.
Truncated products and values of series are plain dict sums, sharing no
code with the library's degree-graded kernels, and a ball's elements are
read one by one from its level arrays, as the per-element reference of the
jsonl export.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator, NamedTuple

import numpy as np

from gyoja.cartan import INFINITE_BOND, AffineCoxeterSystem, CartanType
from gyoja.hecke import MatrixRep
from gyoja.series import TruncatedSeries


def element_key(lin: np.ndarray, tr: np.ndarray) -> bytes:
    return lin.tobytes() + tr.tobytes()


@lru_cache(maxsize=None)
def _generator_arrays(system: AffineCoxeterSystem) -> tuple[np.ndarray, np.ndarray]:
    """The generators' linear parts and translations as int64 arrays, built once per system."""
    return np.array(system.gen_linear, dtype=np.int64), np.array(system.gen_translation, dtype=np.int64)


def word_map(system: AffineCoxeterSystem, word) -> tuple[np.ndarray, np.ndarray]:
    """The affine map ``x -> lin x + tr`` of a generator word (left-to-right product)."""
    gen_lin, gen_tr = _generator_arrays(system)
    lin = np.eye(system.rank, dtype=np.int64)
    tr = np.zeros(system.rank, dtype=np.int64)
    for s in word:
        tr = lin @ gen_tr[s] + tr
        lin = lin @ gen_lin[s]
    return lin, tr


@lru_cache(maxsize=None)
def _positive_roots(system: AffineCoxeterSystem) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The positive entries of :func:`root_closure`, built once per system."""
    return [(rc, cc) for rc, cc in root_closure(system.pairing) if min(rc) >= 0]


def alcove_point(system: AffineCoxeterSystem) -> tuple[int, tuple[int, ...]]:
    """``(D, D*p)`` for the point p with <alpha_i, p> = 1/h for every simple root, from the root closure.

    p = rho^vee / h, with rho^vee the half-sum of the positive coroots
    (<alpha_i, rho^vee> = 1) and h = 1 + height(theta) the Coxeter number.
    p lies inside the fundamental alcove (<theta, p> = (h-1)/h < 1), so the
    affine Weyl group, acting simply transitively on alcoves, moves it to
    pairwise distinct points.  D is the least integer making D*p integral.
    """
    positive = _positive_roots(system)
    two_rho = tuple(map(sum, zip(*(cc for _, cc in positive))))
    h = max(sum(rc) for rc, _ in positive) + 1
    g = math.gcd(2 * h, *two_rho)
    return 2 * h // g, tuple(x // g for x in two_rho)


def coxeter_length(system: AffineCoxeterSystem, lin: np.ndarray, tr: np.ndarray) -> np.ndarray:
    """Coxeter length of the affine map(s) ``x -> lin x + tr``, with no ball.

    The length of w is the number of root hyperplanes <alpha, x> = k
    separating the alcove point p from w(p), that is
    sum over alpha > 0 of |floor(<alpha, w(p)>)|.  Accepts one map or a
    stack of them (``lin`` of shape (..., n, n), ``tr`` of shape (..., n)).
    """
    positive = np.array([rc for rc, _ in _positive_roots(system)], dtype=np.int64)
    pairings = positive @ np.array(system.pairing, dtype=np.int64).T  # row a: (<alpha_a, alpha_k^vee>)_k
    scale, point = alcove_point(system)
    heights = (lin @ np.array(point, dtype=np.int64) + scale * tr) @ pairings.T
    return np.abs(heights // scale).sum(axis=-1)


def brute_force_elements(system: AffineCoxeterSystem, max_len: int):
    """Map element key -> (min length, list of all minimal words).

    Exhausts all g^k words for k <= max_len; a word is reduced exactly when
    its length equals the minimum over all words evaluating to the same
    element, so the per-element word lists are the full reduced-word sets.
    """
    found: dict[bytes, tuple[int, list[tuple[int, ...]]]] = {}
    for k in range(max_len + 1):
        for word in product(range(system.num_gens), repeat=k):
            key = element_key(*word_map(system, word))
            if key not in found:
                found[key] = (k, [word])
            elif found[key][0] == k:
                found[key][1].append(word)
    return found


def brute_force_counts(system: AffineCoxeterSystem, max_len: int) -> tuple[int, ...]:
    """Counts by length up to max_len, from the word-exhaustion oracle."""
    counts = [0] * (max_len + 1)
    for length, _ in brute_force_elements(system, max_len).values():
        counts[length] += 1
    return tuple(counts)


def coxeter_matrix_by_generator_orders(system: AffineCoxeterSystem, max_order: int = 7):
    """Coxeter matrix from the order of each product s*t of exact generator maps.

    Composes the affine maps x -> A x + b until the identity comes back; an
    order above ``max_order`` reads as INFINITE_BOND.  No Cartan entry is
    read, so this checks the library's bond orders from the generator actions.
    """
    eye = np.eye(system.rank, dtype=np.int64)
    lin, tr = np.array(system.gen_linear), np.array(system.gen_translation)
    rows = []
    for s in range(system.num_gens):
        row = []
        for t in range(system.num_gens):
            M, v = lin[s] @ lin[t], lin[s] @ tr[t] + tr[s]
            acc_m, acc_v, order = M, v, 1
            while order <= max_order and not (np.array_equal(acc_m, eye) and not acc_v.any()):
                acc_m, acc_v = M @ acc_m, M @ acc_v + v
                order += 1
            row.append(order if order <= max_order else INFINITE_BOND)
        rows.append(tuple(row))
    return tuple(rows)


def word_multilength(system: AffineCoxeterSystem, word: tuple[int, ...]) -> tuple[int, ...]:
    counts = [0] * system.m
    for s in word:
        counts[system.partition.class_of[s]] += 1
    return tuple(counts)


def exponents_table(family: str, n: int) -> tuple[int, ...]:
    """Exponents m_1 <= ... <= m_n of the finite Weyl group of X_n, as tabulated.

    Bourbaki, *Lie Groups and Lie Algebras*, Ch. VI, Plates I-IX; the
    library derives them from root heights instead.
    """
    if family == "A":
        return tuple(range(1, n + 1))
    if family in ("B", "C"):
        return tuple(range(1, 2 * n, 2))
    if family == "D":
        return tuple(sorted(list(range(1, 2 * n - 2, 2)) + [n - 1]))
    if family == "G":
        return (1, 5)
    if family == "F":
        return (1, 5, 7, 11)
    return {
        6: (1, 4, 5, 7, 8, 11),
        7: (1, 5, 7, 9, 11, 13, 17),
        8: (1, 7, 11, 13, 17, 19, 23, 29),
    }[n]


# ---------------------------------------------------------------------------
# Elements of a ball, one at a time
# ---------------------------------------------------------------------------


class Element(NamedTuple):
    length: int
    multilength: tuple[int, ...]
    geodesic: tuple[int, ...]
    linear: tuple[tuple[int, ...], ...]
    translation: tuple[int, ...]


def ball_elements(ball) -> Iterator[Element]:
    """Every element of a ball, level by level in canonical order, read from ``ball.levels``.

    An element's geodesic is its parent's (a row of the level before)
    followed by its discovery letter.
    """
    geodesics: list[tuple[int, ...]] = [()]
    for length, lv in enumerate(ball.levels):
        if length:
            geodesics = [geodesics[p] + (s,) for p, s in zip(lv.parent.tolist(), lv.letter.tolist())]
        rows = zip(lv.multilength.tolist(), geodesics, lv.lin.tolist(), lv.tr.tolist())
        for multilength, geodesic, linear, translation in rows:
            yield Element(length, tuple(multilength), geodesic, tuple(map(tuple, linear)), tuple(translation))


def element_json(el: Element) -> dict:
    """The jsonl record of one element, keys in export order."""
    return {
        "length": el.length,
        "multilength": list(el.multilength),
        "geodesic": list(el.geodesic),
        "matrix": [list(row) for row in el.linear],
        "translation": list(el.translation),
    }


# ---------------------------------------------------------------------------
# Truncated series by plain dict sums
# ---------------------------------------------------------------------------


def _convolve(a: dict, b: dict, bound: int) -> dict:
    """The product of two exponent-to-coefficient dicts, terms above total degree ``bound`` dropped."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            if sum(exp) <= bound:
                out[exp] = out.get(exp, 0) + ca * cb
    return out


def truncated_product(form, bound: int) -> TruncatedSeries:
    """A closed form's expansion to total degree ``bound``, by convolving one factor at a time.

    A numerator factor, sum over i < k of (sign * t^exp)^i, is convolved as
    its k terms.  A denominator factor must be a binomial 1 - t^exp (else
    AssertionError), and 1 / (1 - t^exp) is convolved as the geometric
    series 1 + t^exp + t^(2 exp) + ... up to the bound.
    """
    acc = {(0,) * form.nvars: 1}
    for f in form.numerator:
        acc = _convolve(acc, {tuple(i * e for e in f.exp): f.sign**i for i in range(f.k)}, bound)
    for f in form.denominator:
        assert (f.sign, f.k) == (-1, 2), f"{f} is not a binomial 1 - x^e"
        acc = _convolve(acc, {tuple(i * e for e in f.exp): 1 for i in range(bound // sum(f.exp) + 1)}, bound)
    return TruncatedSeries(form.nvars, bound, acc)


def assert_stored_form(series: TruncatedSeries) -> None:
    """Check the invariants of a series' graded dict that ``==`` and rendering rely on.

    Every degree lies in 0..bound and holds terms, every coefficient is a
    nonzero int or Fraction, and every key is a Python int whose nvars
    digits in base bound + 1 are an exponent vector of the key's own degree.
    """
    base = series.bound + 1
    for d, terms in series.levels.items():
        assert 0 <= d <= series.bound, f"degree {d} outside 0..{series.bound}"
        assert terms, f"degree {d} holds no terms"
        for key, c in terms.items():
            assert type(c) in (int, Fraction) and c != 0, f"coefficient {c!r} at key {key} of degree {d}"
            assert type(key) is int and key >= 0, f"key {key!r} of degree {d}"
            rest, digits = key, []
            for _ in range(series.nvars):
                rest, digit = divmod(rest, base)
                digits.append(digit)
            assert rest == 0 and sum(digits) == d, f"key {key} is not an exponent vector of degree {d}"


def truncated_value(series: TruncatedSeries, point) -> Fraction:
    """The stored terms of a series summed at ``point``, exactly."""
    total = Fraction(0)
    for exp, c in series.coeffs.items():
        term = Fraction(c)
        for x, e in zip(point, exp):
            term *= Fraction(x) ** e
        total += term
    return total


# ---------------------------------------------------------------------------
# Euclidean realization
# ---------------------------------------------------------------------------


def euclidean_simple_roots(ctype: CartanType) -> list[list[int]]:
    """Simple roots in their usual Euclidean realizations, as integer vectors.

    Coordinates are doubled where half-integers would otherwise appear (F4
    and E6-E8); only ratios of inner products matter.  Node numbering is the
    library's: Bourbaki's, with node 1 the long root of G2.
    """
    n, fam = ctype.rank, ctype.family

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
    if fam in "BCD":
        last = [0] * n
        if fam == "D":
            last[n - 2] = last[n - 1] = 1
        else:
            last[n - 1] = 1 if fam == "B" else 2
        return chain(n) + [last]
    if fam == "G":
        return [[-2, 1, 1], [1, -1, 0]]
    if fam == "F":
        return [[0, 2, -2, 0], [0, 0, 2, -2], [0, 0, 0, 2], [1, -1, -1, -1]]
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


def euclidean_pairing_matrix(ctype: CartanType) -> tuple[tuple[int, ...], ...]:
    """P[i][j] = <alpha_j, alpha_i^vee> = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i), by inner products.

    Raises AssertionError when a pairing is not an integer.
    """
    roots = euclidean_simple_roots(ctype)
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


# ---------------------------------------------------------------------------
# Root closures
# ---------------------------------------------------------------------------


def root_closure(P: tuple[tuple[int, ...], ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every root as a sorted (root coords, coroot coords) pair, by closure.

    P[i][j] = <alpha_j, alpha_i^vee>.  Every root found is reflected in every
    simple reflection, negative roots included, until nothing new appears;
    the library raises positive roots only.
    """
    n = len(P)
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    frontier = []
    for i in range(n):
        rc = tuple(int(k == i) for k in range(n))
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


def longest_multilength_by_root_closure(system: AffineCoxeterSystem, nodes) -> tuple[int, ...]:
    """Multilength of w0(J), J = ``nodes``, by counting J's positive roots per class.

    The reflections met along a reduced word of w0(J) are the reflections in
    the positive roots of J, each once, and each lies in the class of the
    letter it is met at.  The roots are found by a closure under J's simple
    reflections on J's rows of ``extended_cartan``, each root tagged with the
    class of the simple root it is an image of; a root reached with two tags
    raises AssertionError.
    """
    nodes = sorted(set(nodes))
    a = [[system.extended_cartan[s][t] for t in nodes] for s in nodes]
    class_of = system.partition.class_of
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
    out = [0] * system.m
    for tag in tags.values():
        out[tag] += 1
    return tuple(out)


def borel_stated_list(ctype: CartanType) -> list[tuple[int, ...]]:
    """Borel's degree-1 discrete series (Invent. Math. 35, 1976), as stated family by family.

    Steinberg (all -1) for every type; B_n, F4 and G2 add (-1, +1); C_n adds
    the characters with +1 on one end class, and from n = 4 on both.  The
    sign vectors are in the canonical class order: ({s_0}, {s_1}, {s_2})
    for C2, so the chain class {s_1} always gets -1, and
    ({s_1..s_{n-1}}, {s_0}, {s_n}) for C_n with n >= 3.
    """
    fam, n = ctype.family, ctype.rank
    if fam in ("B", "F", "G"):
        return [(-1, -1), (-1, 1)]
    if fam == "C" and n == 2:
        return [(-1, -1, -1), (-1, -1, 1), (1, -1, -1)]
    if fam == "C":
        return [(-1, -1, -1), (-1, -1, 1), (-1, 1, -1)] + [(-1, 1, 1)] * (n >= 4)
    return [(-1, -1)] if ctype.label == "A1" else [(-1,)]


# ---------------------------------------------------------------------------
# Random validated matrix representations
# ---------------------------------------------------------------------------


def _random_unimodular_pair(rng: random.Random, dim: int, steps: int = 4):
    """Integer P with det +-1 together with its exact inverse."""
    p = np.eye(dim, dtype=object)
    p_inv = np.eye(dim, dtype=object)
    for _ in range(steps):
        i = rng.randrange(dim)
        j = rng.randrange(dim)
        if i == j:
            continue
        c = rng.choice((-1, 1))
        # row op on P, compensating column op on P^{-1}
        p[i, :] = p[i, :] + c * p[j, :]
        p_inv[:, j] = p_inv[:, j] - c * p_inv[:, i]
    return p, p_inv


def random_validated_rep(rng: random.Random, system: AffineCoxeterSystem, dim: int, q_o: int) -> MatrixRep:
    """Unimodular conjugate of a direct sum of degree-1 characters.

    Each diagonal summand sends the class-i generators to -1 or q = q_o**2;
    class-constancy makes the braid relations hold exactly, and conjugation
    preserves all relations, so the result always validates.
    """
    m = system.m
    summands = [[rng.choice((-1, q_o * q_o)) for _ in range(m)] for _ in range(dim)]
    p, p_inv = _random_unimodular_pair(rng, dim)
    mats = []
    for s in range(system.num_gens):
        cls = system.partition.class_of[s]
        diag = np.zeros((dim, dim), dtype=object)
        for d in range(dim):
            diag[d, d] = summands[d][cls]
        mats.append(p.dot(diag).dot(p_inv))
    return MatrixRep.make(mats, q_o=q_o)
