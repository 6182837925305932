"""Exact enumeration of affine Weyl group elements by length.

Elements are represented as exact integer affine maps ``x -> M x + v`` in
simple-coroot coordinates; equality of elements is equality of coordinates.
Because the Cayley-graph distance from the identity equals the Coxeter
length, a breadth-first closure under the generators enumerates the ball of
radius N level by level: each element of length k + 1 is w * s for some w
of length k and a right ascent s of w.

The ascents are read off the numbers game on ``extended_cartan``
(Bjorner-Brenti, *Combinatorics of Coxeter Groups*, section 4.3).  Each
element w of a level carries the vector v_t = alpha_t(w^-1(x)) over the
affine nodes t = 0..n, for the point x with alpha_t(x) = 1 for every t, so
the identity's vector is (1, ..., 1).  Then s is a right ascent of w
exactly when v_s > 0, the vector of w * s is v - v_s * a[s], and the vector
determines w, since the group moves x to pairwise distinct points.  x is
regular (no root vanishes on it), so no v_s is ever 0.  A step forms only
the ascents and keys each by its new vector; it needs nothing of the
level before the frontier.

Each discovered element keeps one geodesic (its BFS discovery word) and the
class-graded length vector (l_1, ..., l_m), which is word-independent and
therefore may be accumulated along the discovery tree.  A level stores
these as arrays: each element's parent (its row in the previous level), its
discovery letter and its multilength, so a product along every geodesic can
be formed with one step per element.

Each level is sorted by numeric lexicographic order of the flattened
(matrix, translation) row, so two runs produce byte-identical balls.

The levels stream: :func:`enumerate_levels` yields each level as soon as it is
built and keeps only the last one, and :func:`write_jsonl` writes each level
as it arrives, from what is new in it: geodesics are carried as strings from
the previous level only, and each distinct multilength, matrix row and
matrix of a level is rendered once.  Together they hold two levels, never
the ball.  :func:`enumerate_ball` keeps every level, for the callers that
need a :class:`Ball`; ``write_jsonl(ball.system, ball.levels, fp)`` writes
one.

Counting needs no ball: :func:`gyoja.counting.count_multilengths` counts
multilengths from the parabolic factorization of the group, in plain ints.
``enumerate_levels`` keeps its sorted right multiplication, because its
geodesics and canonical order are what the jsonl export pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .cartan import AffineCoxeterSystem
from .limits import ResourceLimitExceeded, element_cap

__all__ = [
    "Ball",
    "enumerate_ball",
    "enumerate_levels",
    "write_jsonl",
]


@dataclass
class _Level:
    lin: np.ndarray  # (K, n, n)
    tr: np.ndarray  # (K, n)
    parent: np.ndarray  # (K,) index into previous level, -1 at level 0
    letter: np.ndarray  # (K,) generator index, -1 at level 0
    multilength: np.ndarray  # (K, m)

    def __len__(self) -> int:
        return self.tr.shape[0]


_EXPORT_CHUNK_ROWS = 1024


class Ball:
    """All elements of length <= radius, as the level arrays of :func:`enumerate_levels`; immutable."""

    def __init__(self, system: AffineCoxeterSystem, levels: list[_Level]):
        self.system = system
        self.levels = levels
        self.radius = len(levels) - 1
        self.counts = tuple(len(lv) for lv in levels)
        self.total = sum(self.counts)

    def __len__(self) -> int:
        return self.total

    def __repr__(self) -> str:
        return f"Ball({self.system.ctype.label}, radius={self.radius}, total={self.total})"


def _pack(cols: np.ndarray) -> np.ndarray:
    """Rows of an (N, c) int64 array as mixed-radix int64 words, most significant first.

    Each column is shifted by its observed minimum and consecutive columns
    share a word while the product of their spans fits in an int64 (checked
    in Python ints), so two rows are equal exactly when their words are, and
    compare in the same lexicographic order.  Returns a (words, N) array.
    """
    lo, hi = cols.min(axis=0), cols.max(axis=0)
    words: list[np.ndarray] = []
    radix = 0
    for c in range(cols.shape[1]):
        span = int(hi[c]) - int(lo[c]) + 1
        if words and radix * span < 2**63:
            words[-1] *= span
            words[-1] += cols[:, c] - lo[c]
            radix *= span
        else:
            words.append(cols[:, c] - lo[c])
            radix = span
    return np.stack(words)


def _sort_runs(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows of ``cols`` and, along it, which rows start a run.

    ``first[j]`` is True when row ``order[j]`` differs from row ``order[j - 1]``.
    """
    words = _pack(cols)
    order = np.argsort(words[0], kind="stable") if len(words) == 1 else np.lexsort(words[::-1])
    words = words[:, order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (words[:, 1:] != words[:, :-1]).any(axis=0)
    return order, first


def _distinct_rows(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an (N, c) int64 array in lexicographic order, and each row's index among them."""
    order, first = _sort_runs(cols)
    ids = np.empty(len(order), dtype=np.int64)
    ids[order] = np.cumsum(first) - 1
    return cols[order[first]], ids


def _adjacent_runs(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an (N, c) array whose equal rows are adjacent, and each row's index among them.

    On rows already in lexicographic order this is :func:`_distinct_rows`
    without the sort: a row starts a new run when it differs from the row
    before it.
    """
    first = np.ones(len(cols), dtype=bool)
    first[1:] = (cols[1:] != cols[:-1]).any(axis=1)
    return cols[first], np.cumsum(first) - 1


def _render_rows(cols: np.ndarray) -> list[str]:
    """Each row of an (N, c) int array as the JSON list ``[a,b,...]``."""
    template = "[" + ",".join(["%d"] * cols.shape[1]) + "]"
    return [template % tuple(row) for row in cols.tolist()]


def enumerate_ball(
    system: AffineCoxeterSystem,
    radius: int,
    max_elements: int | None = None,
) -> Ball:
    """The ball of :func:`enumerate_levels`, with every level kept.

    Raises :class:`ResourceLimitExceeded` and ValueError as
    :func:`enumerate_levels`, instead of silently truncating.
    """
    return Ball(system, list(enumerate_levels(system, radius, max_elements)))


def enumerate_levels(
    system: AffineCoxeterSystem,
    radius: int,
    max_elements: int | None = None,
) -> Iterator[_Level]:
    """The levels 0..radius of the ball, each yielded as soon as it is built.

    Breadth-first closure of the identity under the generators, one
    :func:`_next_level` step per level.  Between two levels the generator
    holds only the last level and its numbers-game vectors, so a caller
    that drops each level after use holds two levels, never the ball.

    Raises :class:`ResourceLimitExceeded` (carrying the completed radius)
    when a level would pass the element cap (argument, else
    GYOJA_MAX_ELEMENTS, else 5,000,000), before that level is built; the
    levels up to the completed radius have been yielded.
    Raises ValueError at the call for a negative radius or for a cap that
    is not an integer >= 1.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return _walk_levels(system, radius, element_cap(max_elements))


class _Generators(NamedTuple):
    """The generator tables one walk reads at every level, as int64 arrays."""

    cartan: np.ndarray  # (g, g): extended_cartan, a[s][t] = <alpha_t, alpha_s^vee>
    lin: np.ndarray  # (g, n, n): gen_linear
    tr: np.ndarray  # (g, n): gen_translation
    classes: np.ndarray  # (g, m): row s is the multilength of s


def _walk_levels(system: AffineCoxeterSystem, radius: int, cap: int) -> Iterator[_Level]:
    n, m = system.rank, system.m
    gens = _Generators(
        cartan=np.array(system.extended_cartan, dtype=np.int64),
        lin=np.array(system.gen_linear, dtype=np.int64),
        tr=np.array(system.gen_translation, dtype=np.int64),
        classes=np.eye(m, dtype=np.int64)[list(system.partition.class_of)],
    )
    level = _Level(
        lin=np.eye(n, dtype=np.int64)[None, :, :],
        tr=np.zeros((1, n), dtype=np.int64),
        parent=np.full(1, -1, dtype=np.int64),
        letter=np.full(1, -1, dtype=np.int64),
        multilength=np.zeros((1, m), dtype=np.int64),
    )
    yield level
    vectors = np.ones((1, system.num_gens), dtype=np.int64)
    total = 1
    for depth in range(radius):
        step = _next_level(gens, level, vectors, cap - total)
        if step is None:
            raise ResourceLimitExceeded(depth, cap)
        level, vectors = step
        total += len(level)
        yield level


def _next_level(
    gens: _Generators, frontier: _Level, vectors: np.ndarray, room: int
) -> tuple[_Level, np.ndarray] | None:
    """The level after ``frontier`` and its numbers-game vectors; None if it has more than ``room`` elements.

    Its temporaries (the candidates and their sort, the maps before the
    canonical sort) are freed when it returns, before the level is handed
    on; the helpers free theirs in turn, so the candidates are gone before
    the maps are built, and the gathered parents before they are sorted.
    """
    parent, letter, keys = _new_candidates(gens.cartan, vectors)
    if len(parent) > room:
        return None
    lin, tr = _right_products(gens, frontier, parent, letter)
    # Canonical order: lexicographic in the flattened (matrix, translation) row.
    canon = np.lexsort(_pack(np.concatenate([lin.reshape(len(lin), -1), tr], axis=1))[::-1])
    parent, letter = parent[canon], letter[canon]
    level = _Level(
        lin=lin[canon],
        tr=tr[canon],
        parent=parent,
        letter=letter,
        multilength=frontier.multilength[parent] + gens.classes[letter],
    )
    return level, keys[canon]


def _new_candidates(cartan: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The new elements among the frontier's children, as parent rows and letters, and their vectors.

    Row f of ``vectors`` is the numbers-game vector of w_f^-1 (see the
    module docstring).  The children w_f * s with v_s > 0 are the ones one
    longer than w_f; no v_s is 0, because the start vector is regular, so
    the other children are one shorter and are never formed.  Each child is
    keyed by its vector v - v_s * a[s], all in one gather, in generation
    order (by f, then s).  The keys are stably sorted and the first member
    of every run of equal keys is kept, so the first occurrence in
    generation order wins and geodesics are deterministic.
    """
    parent, letter = np.nonzero(vectors > 0)
    keys = vectors[parent]
    keys -= vectors[parent, letter][:, None] * cartan[letter]
    order, first = _sort_runs(keys)
    kept = order[first]
    return parent[kept], letter[kept], keys[kept]


def _right_products(
    gens: _Generators, frontier: _Level, parent: np.ndarray, letter: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The affine maps of frontier[parent[i]] * s_letter[i], that is x -> M (A_s x + b_s) + t."""
    base = frontier.lin[parent]
    lin = base @ gens.lin[letter]
    tr = np.einsum("kab,kb->ka", base, gens.tr[letter]) + frontier.tr[parent]
    return lin, tr


def write_jsonl(system: AffineCoxeterSystem, levels: Iterable[_Level], fp: IO[str]) -> list[int]:
    """Write levels 0, 1, ... as JSON lines, each as it arrives; returns each level's size.

    Each element is one line, in canonical order: ``json.dumps`` with
    ``separators=(",", ":")`` of the record with keys ``length``,
    ``multilength``, ``geodesic``, ``matrix`` and ``translation``.  Each
    level formats only what is new in it (see :func:`_write_level`), and
    only the previous level's geodesic strings are carried to the next, so
    with the levels of :func:`enumerate_levels` a level is on ``fp`` before
    the next one is built.  An exception raised by ``levels`` propagates
    after the levels before it have been written in full.
    """
    counts: list[int] = []
    geo = [""]
    for length, lv in enumerate(levels):
        geo = _write_level(system, length, lv, geo, fp)
        counts.append(len(lv))
    return counts


def _write_level(system: AffineCoxeterSystem, length: int, lv: _Level, geo: list[str], fp: IO[str]) -> list[str]:
    """Write one level; ``geo`` holds the previous level's geodesic strings, the return value this level's.

    A geodesic is the parent's string plus one letter.  Each distinct
    multilength and matrix row is rendered once per level, and each distinct
    matrix once by joining its row strings.  A level is sorted by matrix
    first and row ids follow row order, so equal matrices are adjacent runs
    of row-id tuples.  Translations are formatted directly.  Lines are
    assembled from these strings and written in chunks of at most
    ``_EXPORT_CHUNK_ROWS``.
    """
    n = system.rank
    if length:
        sep = "," if length > 1 else ""
        tails = [sep + str(s) for s in range(system.num_gens)]
        geo = [geo[p] + tails[s] for p, s in zip(lv.parent.tolist(), lv.letter.tolist())]
    multilengths, ml_ids = _distinct_rows(lv.multilength)
    ml_text = _render_rows(multilengths)
    rows, row_ids = _distinct_rows(lv.lin.reshape(-1, n))
    mats, mat_ids = _adjacent_runs(row_ids.reshape(-1, n))
    row_text = np.array(_render_rows(rows), dtype=object)
    mat_text = ["[" + ",".join(mat) + "]" for mat in row_text[mats].tolist()]
    head = f'{{"length":{length},"multilength":'
    ml_ids, mat_ids = ml_ids.tolist(), mat_ids.tolist()
    for lo in range(0, len(lv), _EXPORT_CHUNK_ROWS):
        hi = lo + _EXPORT_CHUNK_ROWS
        parts = zip(ml_ids[lo:hi], geo[lo:hi], mat_ids[lo:hi], _render_rows(lv.tr[lo:hi]))
        fp.write("".join([
            f'{head}{ml_text[a]},"geodesic":[{g}],"matrix":{mat_text[b]},"translation":{t}}}\n'
            for a, g, b, t in parts
        ]))
    return geo

