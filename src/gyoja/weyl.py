"""Exact enumeration of affine Weyl group elements by length.

Elements are represented as exact integer affine maps ``x -> M x + v`` in
simple-coroot coordinates; equality of elements is equality of coordinates.
Because the Cayley-graph distance from the identity equals the Coxeter
length, a breadth-first closure under the generators enumerates the ball of
radius N level by level: the children of a length-k element have length
k-1 or k+1, so a new level is the candidate set minus the previous level.

Each discovered element keeps one geodesic (its BFS discovery word) and the
class-graded length vector (l_1, ..., l_m), which is word-independent and
therefore may be accumulated along the discovery tree.  A level stores
these as arrays: each element's parent (its row in the previous level), its
discovery letter and its multilength, so a product along every geodesic can
be formed with one step per element.

Lengths need no ball: the Coxeter length of a map is the number of root
hyperplanes separating the alcove point from its image, which is how
:func:`is_reduced` tests a word.

Levels are sorted by numeric lexicographic order of the flattened
(matrix, translation) row, so two runs produce byte-identical balls.

``Ball.export_jsonl`` formats each level from what is new in it: geodesics
are carried as strings from the previous level only, and each distinct
multilength, matrix row and matrix of a level is rendered once.

Counting needs no ball: :func:`count_multilengths` walks a breadth-first
search by left multiplication on the alcove point alone and keeps s*w only
when s is the smallest left descent of s*w, so each element is produced
exactly once and nothing is sorted.  ``enumerate_ball`` keeps its sorted
right multiplication, because its geodesics and canonical order are what
the jsonl export pins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np

from .cartan import AffineCoxeterSystem
from .limits import DEFAULT_MAX_ELEMENTS, ResourceLimitExceeded, element_cap

__all__ = [
    "DEFAULT_MAX_ELEMENTS",
    "ResourceLimitExceeded",
    "NotReducedWordError",
    "GroupElement",
    "Ball",
    "element_cap",
    "count_multilengths",
    "enumerate_ball",
    "evaluate_word",
    "is_reduced",
    "multilength_of_word",
]


class NotReducedWordError(ValueError):
    """Raised when a quantity defined only on reduced words is asked of a non-reduced one."""


@dataclass(frozen=True)
class GroupElement:
    """One affine Weyl group element with its cached combinatorial data."""

    linear: tuple[tuple[int, ...], ...]
    translation: tuple[int, ...]
    length: int
    multilength: tuple[int, ...]
    geodesic: tuple[int, ...]

    @property
    def is_identity(self) -> bool:
        return self.length == 0

    def as_json_dict(self) -> dict:
        return {
            "length": self.length,
            "multilength": list(self.multilength),
            "geodesic": list(self.geodesic),
            "matrix": [list(r) for r in self.linear],
            "translation": list(self.translation),
        }


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
    """All elements of length <= radius, grouped by length; immutable."""

    def __init__(self, system: AffineCoxeterSystem, levels: list[_Level]):
        self.system = system
        self.levels = levels
        self.radius = len(levels) - 1
        self.counts = tuple(len(lv) for lv in levels)
        self.total = sum(self.counts)

    # -- lookups ---------------------------------------------------------

    def geodesic(self, length: int, i: int) -> tuple[int, ...]:
        word: list[int] = []
        k = length
        while k > 0:
            lv = self.levels[k]
            word.append(int(lv.letter[i]))
            i = int(lv.parent[i])
            k -= 1
        return tuple(reversed(word))

    def element(self, length: int, i: int) -> GroupElement:
        lv = self.levels[length]
        return GroupElement(
            linear=tuple(tuple(int(x) for x in row) for row in lv.lin[i]),
            translation=tuple(int(x) for x in lv.tr[i]),
            length=length,
            multilength=tuple(int(x) for x in lv.multilength[i]),
            geodesic=self.geodesic(length, i),
        )

    def __iter__(self) -> Iterator[GroupElement]:
        for length, lv in enumerate(self.levels):
            for i in range(len(lv)):
                yield self.element(length, i)

    def __len__(self) -> int:
        return self.total

    # -- aggregates ------------------------------------------------------

    def multilength_counts(self) -> dict[tuple[int, ...], int]:
        """Number of elements per class-graded length vector."""
        m, radix = self.system.m, self.radius + 1
        steps = _class_steps(m, radix)
        out: dict[tuple[int, ...], int] = {}
        for length, lv in enumerate(self.levels):
            _add_level_counts(out, lv.multilength @ steps, length, radix, m)
        return out

    def export_jsonl(self, fp: IO[str]) -> int:
        """Stream the ball, one element per line; returns the line count.

        The bytes are those of ``json.dumps(el.as_json_dict(),
        separators=(",", ":"))`` for each element in canonical order.  Each
        level formats only what is new in it: a geodesic is the parent's
        string from the previous level plus one letter, each distinct
        multilength and matrix row is rendered once per level, and each
        distinct matrix once by joining its row strings.  A level is sorted
        by matrix first and row ids follow row order, so equal matrices are
        adjacent runs of row-id tuples.  Translations are formatted
        directly.  Lines are assembled from these strings and
        written in chunks of at most ``_EXPORT_CHUNK_ROWS``, so the extra
        memory is one level's strings.
        """
        n = self.system.rank
        geo = [""]
        for length, lv in enumerate(self.levels):
            if length:
                sep = "," if length > 1 else ""
                tails = [sep + str(s) for s in range(self.system.num_gens)]
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
        return self.total

    def __repr__(self) -> str:
        return f"Ball({self.system.ctype.label}, radius={self.radius}, total={self.total})"


def _class_steps(m: int, radix: int) -> np.ndarray:
    """Place value of each class in a level's multilength key (see :func:`_add_level_counts`)."""
    return np.array([radix ** (m - 2 - c) for c in range(m - 1)] + [0], dtype=np.int64)


def _add_level_counts(
    out: dict[tuple[int, ...], int], keys: np.ndarray, length: int, radix: int, m: int
) -> None:
    """Add one level's multilength counts to ``out``, from one key per element.

    The key of (l_1, ..., l_m) is l_1 ... l_(m-1) read as digits in base
    ``radix``, most significant first; l_m is what is left of ``length``.
    Keys are counted with one ``np.unique``, whose sort costs the level's
    size and not the (mostly empty) key range, and decoded in increasing
    order, which is lexicographic order on the multilength.
    """
    found, counts = np.unique(keys, return_counts=True)
    columns, rest = [], found
    for _ in range(m - 1):
        rest, digit = np.divmod(rest, radix)
        columns.insert(0, digit)
    columns.append(length - sum(columns, np.zeros_like(found)))
    out.update(zip(zip(*[c.tolist() for c in columns]), counts.tolist()))


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
    """Breadth-first closure of the identity under the generators.

    Each step keys every candidate (frontier element f, generator s) by the
    integer point f(s(D*p)) = M_f @ alcove_images[s] + D*t_f, which
    determines the element (see :class:`AffineCoxeterSystem`).  The previous
    level's points are prepended, the keys packed into int64 words and
    stably sorted, and the first member of every run of equal keys is kept
    unless it is a previous-level point; so the first occurrence in
    generation order wins and geodesics are deterministic.  Affine maps are
    built for the kept elements only.

    Raises :class:`ResourceLimitExceeded` (carrying the completed radius and
    the partial ball) instead of silently truncating when the element cap
    (argument, else GYOJA_MAX_ELEMENTS, else 5,000,000) would be passed.
    Raises ValueError for a cap that is not an integer >= 1.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cap = element_cap(max_elements)
    n = system.rank
    ngens = system.num_gens
    m = system.m
    class_onehot = np.zeros((ngens, m), dtype=np.int64)
    for s in range(ngens):
        class_onehot[s, system.partition.class_of[s]] = 1

    identity = _Level(
        lin=np.eye(n, dtype=np.int64)[None, :, :],
        tr=np.zeros((1, n), dtype=np.int64),
        parent=np.full(1, -1, dtype=np.int64),
        letter=np.full(1, -1, dtype=np.int64),
        multilength=np.zeros((1, m), dtype=np.int64),
    )
    levels = [identity]
    prev_points = np.zeros((0, n), dtype=np.int64)
    cur_points = system.alcove_point[None, :]
    total = 1

    for depth in range(radius):
        frontier = levels[-1]
        # Candidate f * ngens + s is frontier element f times generator s.
        points = frontier.lin @ system.alcove_images.T
        points += system.alcove_scale * frontier.tr[:, :, None]
        points = np.concatenate([prev_points, points.transpose(0, 2, 1).reshape(-1, n)])
        order, first = _sort_runs(points)
        kept = order[first]
        # A run led by a previous-level point is a step back towards the identity.
        kept = kept[kept >= len(prev_points)] - len(prev_points)
        if total + len(kept) > cap:
            partial = Ball(system, levels)
            raise ResourceLimitExceeded(depth, cap, partial)
        parent, letter = kept // ngens, kept % ngens
        base = frontier.lin[parent]
        lin = base @ system.gen_linear[letter]
        tr = np.einsum("kab,kb->ka", base, system.gen_translation[letter]) + frontier.tr[parent]
        # Canonical order: lexicographic in the flattened (matrix, translation) row.
        rows = np.concatenate([lin.reshape(-1, n * n), tr], axis=1)
        canon = np.lexsort(_pack(rows)[::-1])
        parent, letter = parent[canon], letter[canon]
        level = _Level(
            lin=lin[canon],
            tr=tr[canon],
            parent=parent,
            letter=letter,
            multilength=frontier.multilength[parent] + class_onehot[letter],
        )
        levels.append(level)
        total += len(level)
        prev_points, cur_points = cur_points, points[len(prev_points) + kept[canon]]

    return Ball(system, levels)


def count_multilengths(
    system: AffineCoxeterSystem,
    radius: int,
    max_elements: int | None = None,
) -> dict[tuple[int, ...], int]:
    """Number of elements of each class-graded length vector in the ball.

    The same dict as ``enumerate_ball(system, radius).multilength_counts()``,
    from the alcove points alone: no matrix, geodesic, previous level or
    sort.  The BFS multiplies on the left, (s*w)(D*p) = A_s y + D*b_s for the
    point y = w(D*p), and keeps the candidate s*w iff s is the smallest left
    descent of s*w (descents are read off ``descent_normals`` and
    ``descent_offsets``).  So every element of length k+1 is produced once,
    from its smallest left descent, and no step goes back towards the
    identity, because s is no left descent of a shorter s*w.  Each element
    carries its multilength key (the parent's plus the step of its letter's
    class), and a level is counted with one ``np.unique``.

    Raises :class:`ResourceLimitExceeded` (with no partial ball) when the
    element cap would be passed, and ValueError as :func:`enumerate_ball`.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cap = element_cap(max_elements)
    m, radix = system.m, radius + 1
    steps = _class_steps(m, radix)[list(system.partition.class_of)]
    normals, offsets = system.descent_normals.T, system.descent_offsets
    shifts = system.alcove_scale * system.gen_translation
    points = system.alcove_point[None, :]
    values = points @ normals - offsets  # < 0 exactly at the left descents
    keys = np.zeros(1, dtype=np.int64)
    out: dict[tuple[int, ...], int] = {}
    _add_level_counts(out, keys, 0, radix, m)
    total = 1
    for depth in range(radius):
        parts = []
        for s in range(system.num_gens):
            up = values[:, s] > 0  # s is a left descent of s*w iff it is none of w
            pts = points[up] @ system.gen_linear[s].T + shifts[s]
            vals = pts @ normals - offsets
            first = ~(vals[:, :s] < 0).any(axis=1)  # no smaller left descent
            parts.append((pts[first], vals[first], keys[up][first] + steps[s]))
        points, values, keys = (np.concatenate(arrays) for arrays in zip(*parts))
        if total + len(keys) > cap:
            raise ResourceLimitExceeded(depth, cap)
        _add_level_counts(out, keys, depth + 1, radix, m)
        total += len(keys)
    return out


def evaluate_word(system: AffineCoxeterSystem, word: tuple[int, ...] | list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Exact affine map of a generator word (left-to-right product)."""
    n = system.rank
    lin = np.eye(n, dtype=np.int64)
    tr = np.zeros(n, dtype=np.int64)
    for s in word:
        if not 0 <= s < system.num_gens:
            raise ValueError(f"generator index {s} out of range for {system.ctype.label}")
        tr = lin @ system.gen_translation[s] + tr
        lin = lin @ system.gen_linear[s]
    return lin, tr


def _coxeter_length(system: AffineCoxeterSystem, lin: np.ndarray, tr: np.ndarray) -> np.ndarray:
    """Coxeter length of the affine map(s) ``x -> lin x + tr``, with no ball.

    The length of w is the number of root hyperplanes <alpha, x> = k
    separating the alcove point p from w(p), that is
    sum over alpha > 0 of |floor(<alpha, w(p)>)|.  Accepts one map or a
    stack of them (``lin`` of shape (..., n, n), ``tr`` of shape (..., n)).
    """
    point = lin @ system.alcove_point + system.alcove_scale * tr
    heights = point @ system.positive_root_pairings.T
    return np.abs(heights // system.alcove_scale).sum(axis=-1)


def is_reduced(system: AffineCoxeterSystem, word: tuple[int, ...] | list[int]) -> bool:
    """True iff the word length equals the Coxeter length of its product."""
    return int(_coxeter_length(system, *evaluate_word(system, word))) == len(word)


def multilength_of_word(system: AffineCoxeterSystem, word: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Class-graded letter counts of a reduced word.

    The quantity is well-defined on elements only via reduced expressions,
    so a non-reduced word is rejected.
    """
    if not is_reduced(system, word):
        raise NotReducedWordError(f"word {tuple(word)} is not reduced")
    counts = [0] * system.m
    for s in word:
        counts[system.partition.class_of[s]] += 1
    return tuple(counts)
