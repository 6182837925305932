"""Representations of the affine Hecke algebra and their generating series.

The algebra has a basis e_w indexed by group elements, generators e_s obeying
the quadratic relation (e_s + 1)(e_s - q) = 0 and multiplicativity
e_w e_w' = e_ww' when lengths add, with q = q_o**2 (the parameter of the
quadratic unramified situation; APIs take q_o and derive q so the two never
get confused).

For a representation r, the value r(e_w) is the ordered product of the
generator images along any reduced word of w -- the braid relations make it
word-independent, which the test suite checks exhaustively rather than
assumes.  The attached generating function

    L(t, r) = sum_w r(e_w) * t_1^(l_1(w)) ... t_m^(l_m(w))

is accumulated here from enumeration (a ball, or the growth series W(t) that
``counting.count_multilengths`` forms from parabolic coset representatives),
never from the closed forms, so the two modules stay independent checks of
one another.  The degree-1 characters, their series from W(t) and their
partial sums at a point are plain-int work and live in :mod:`gyoja.counting`
(``partial_sums_at_point`` is re-exported here); this module adds matrix
representations and the series over a ball, and imports :mod:`gyoja.weyl`
only for type checking.  A matrix representation is summed along the ball's
BFS tree: an element's geodesic is its parent's plus one letter, so
r(e_w) = r(e_parent) r(e_s), and each level of the tree, all of one length,
is one batched product and one degree of every entry's series.

A :class:`MatrixRep` stores integer numerator matrices N_s over one common
denominator d, so r(e_s) = N_s / d, as tuples of rows of Python ints.  Each
call stacks them once into a (generators, d, d) numpy object array (entries
grow like q^l, so never int64), and every product, relation check and
series sum runs on it in ints: a product of k generators is an integer
matrix over d^k, and an exact ``Fraction`` is formed only for what is
returned.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .cartan import INFINITE_BOND, AffineCoxeterSystem, ClassPartition, SignCharacter, residue_field_size
from .counting import char_value_e_s, character_series, partial_sums_at_point
from .series import Graded, TruncatedSeries, graded, places

if TYPE_CHECKING:
    from .weyl import Ball

__all__ = [
    "MatrixRep",
    "RepValidationReport",
    "validate_rep",
    "counting_series",
    "gyoja_series",
    "partial_sums_at_point",
]


# ---------------------------------------------------------------------------
# Matrix representations
# ---------------------------------------------------------------------------


def _over(num: np.ndarray, den: int) -> np.ndarray:
    """The exact ``Fraction`` matrix num / den."""
    out = np.empty(num.shape, dtype=object)
    out.flat = [Fraction(x, den) for x in num.flat]
    return out


def _stack(rep: MatrixRep) -> np.ndarray:
    """The numerators as one (generators, d, d) object array of Python ints."""
    return np.array(rep.numerators, dtype=object)


def _product(nums: np.ndarray, word: Sequence[int]) -> np.ndarray:
    """The ordered product of ``nums[s]`` over the letters s of ``word``; the identity for no letters."""
    mats = [nums[s] for s in word]
    return functools.reduce(np.dot, mats) if mats else np.eye(nums.shape[1], dtype=object)


def _rational(x, what: str) -> Fraction:
    """``x`` as a Fraction of Python ints; ValueError unless it is a ``numbers.Rational``."""
    if not isinstance(x, numbers.Rational):
        raise ValueError(f"{what} {x!r} is not an exact rational")
    return Fraction(int(x.numerator), int(x.denominator))


def _square_entries(matrix, s: int) -> np.ndarray:
    mat = np.asarray(matrix, dtype=object)
    if mat.ndim != 2:
        raise ValueError(f"generator {s} matrix is not a list of equal-length rows")
    if mat.shape[0] != mat.shape[1] or not mat.size:
        raise ValueError(f"generator {s} matrix has shape {mat.shape}, not a non-empty square")
    return mat


@dataclass(frozen=True)
class MatrixRep:
    """Generator s acts by ``numerators[s] / denominator``; q = q_o**2 is the parameter.

    Each numerator is a tuple of rows, each row a tuple of Python ints, and
    the denominator is the least positive common one.  Build with
    :meth:`make`.  As plain values, two representations are equal, and hash
    alike, when their dimension, q, numerators and denominator are.
    """

    dimension: int
    q: int
    numerators: tuple[tuple[tuple[int, ...], ...], ...]
    denominator: int

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """The generator matrices as exact ``Fraction`` arrays."""
        return tuple(_over(_stack(self), self.denominator))

    @staticmethod
    def make(matrices: Sequence, q_o: int) -> "MatrixRep":
        """Convert exact-rational generator matrices, all of one square shape, with q = q_o**2.

        Entries must be ``numbers.Rational`` (``int``, ``Fraction``, numpy
        integers); a float raises ValueError rather than being read as its
        binary fraction.  q_o must be an integer >= 2, as
        :func:`~gyoja.cartan.residue_field_size` checks.
        """
        q = residue_field_size(q_o) ** 2
        if not len(matrices):
            raise ValueError("need at least one generator matrix")
        mats = [_square_entries(rows, s) for s, rows in enumerate(matrices)]
        shape = mats[0].shape
        for s, mat in enumerate(mats):
            if mat.shape != shape:
                raise ValueError(f"generator {s} matrix has shape {mat.shape}, generator 0 has {shape}")
        entries = [
            [[_rational(x, f"generator {s} matrix entry") for x in row] for row in mat.tolist()]
            for s, mat in enumerate(mats)
        ]
        den = math.lcm(*(x.denominator for mat in entries for row in mat for x in row))
        nums = tuple(tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in mat) for mat in entries)
        return MatrixRep(shape[0], q, nums, den)

    @staticmethod
    def from_sign_character(eps: SignCharacter, partition: ClassPartition, q_o: int) -> "MatrixRep":
        if len(eps.signs) != partition.m:
            raise ValueError("sign vector length does not match the class count")
        mats = [
            [[char_value_e_s(eps, partition.class_of[s], q_o)]]
            for s in range(len(partition.class_of))
        ]
        return MatrixRep.make(mats, q_o)


@dataclass(frozen=True)
class RepValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "all quadratic and braid relations hold"
        return "; ".join(self.violations)


def validate_rep(rep: MatrixRep, system: AffineCoxeterSystem) -> RepValidationReport:
    """Check every quadratic and braid relation exactly; report the failures.

    With r(e_s) = N_s / d, the quadratic relation (r(e_s) + 1)(r(e_s) - q) = 0
    is (N_s + d I)(N_s - q d I) = 0, and both sides of a braid relation are
    products of m_st numerators over d^m_st, so every check is on integer
    matrices.  The quadratic relation is one batched product for all
    generators.
    """
    if len(rep.numerators) != system.num_gens:
        return RepValidationReport(
            (f"expected {system.num_gens} generator matrices, got {len(rep.numerators)}",)
        )
    nums = _stack(rep)
    eye = np.eye(rep.dimension, dtype=object)
    d, q = rep.denominator, rep.q
    quadratic = ((nums + d * eye) @ (nums - q * d * eye)).reshape(len(nums), -1).tolist()
    violations = [f"quadratic relation fails at generator {s}" for s, lhs in enumerate(quadratic) if any(lhs)]
    for s in range(system.num_gens):
        for t in range(s + 1, system.num_gens):
            mst = system.coxeter_matrix[s][t]
            if mst == INFINITE_BOND:
                continue
            word = [s, t] * mst
            if _product(nums, word[:mst]).tolist() != _product(nums, word[1 : mst + 1]).tolist():
                violations.append(f"braid relation fails for pair ({s},{t}) with bond {mst}")
    return RepValidationReport(tuple(violations))


def eval_rep_on_word(rep: MatrixRep, word: Sequence[int]) -> np.ndarray:
    """The ordered product of the generator images along a word, as Fractions.

    On a reduced word of w this is r(e_w); any reduced word gives the same
    product for a rep that passes :func:`validate_rep`.  The product is
    formed on the numerators and divided by denominator^len(word) once.
    A letter that is not an integer in range(generators) raises ValueError.
    """
    count, letters = len(rep.numerators), []
    for s in word:
        try:
            letter = operator.index(s)
        except TypeError:  # a float, say: no generator has that index
            letter = -1
        if not 0 <= letter < count:
            raise ValueError(f"generator index {s} out of range for {count} generator matrices")
        letters.append(letter)
    return _over(_product(_stack(rep), letters), rep.denominator ** len(letters))


# ---------------------------------------------------------------------------
# Generating series
# ---------------------------------------------------------------------------


def counting_series(ball: Ball, bound: int | None = None) -> TruncatedSeries:
    """Growth series W(t): one t_1^(l_1)...t_m^(l_m) term per element, to degree ``bound``.

    A tally of the ball's multilength rows, so the independent check of
    :func:`gyoja.counting.count_multilengths`; keyed apart from the matrix
    branch of :func:`gyoja_series`, which sign-character series check.
    """
    bound, m = _series_bound(ball, bound), ball.system.m
    tally = Counter(tuple(ml) for lv in ball.levels[: bound + 1] for ml in lv.multilength.tolist())
    return TruncatedSeries.from_graded(m, bound, graded(tally.items(), m, bound))


def _series_bound(ball: Ball, bound: int | None) -> int:
    """``bound``, or the ball's radius when it is None; ValueError past the radius."""
    if bound is None:
        return ball.radius
    if bound > ball.radius:
        raise ValueError(f"ball of radius {ball.radius} cannot determine degree {bound}")
    return bound


def gyoja_series(
    ball: Ball,
    rep: SignCharacter | MatrixRep,
    q_o: int | None = None,
    bound: int | None = None,
):
    """Truncated generating series L(t, r) accumulated over a ball.

    For a :class:`SignCharacter` (requires ``q_o``) the result is a scalar
    :class:`TruncatedSeries`, from the ball's multilength counts; for a
    :class:`MatrixRep` it is a (d, d) object array of series.  A matrix rep
    is evaluated level by level along the BFS tree, r(e_w) = r(e_parent)
    r(e_s), which is the product :func:`eval_rep_on_word` forms along w's
    geodesic.  Level l is summed per multilength as integer numerators over
    denominator^l, keyed as in :mod:`gyoja.series`, and becomes degree l of
    each entry's graded dict.  Callers are expected to have validated the
    rep once.  ``q_o`` belongs to a sign character; a matrix rep carries its
    own q, so passing ``q_o`` with one raises ValueError.
    """
    bound = _series_bound(ball, bound)
    m = ball.system.m
    if isinstance(rep, SignCharacter):
        return character_series(counting_series(ball, bound), rep, q_o)
    if isinstance(rep, MatrixRep):
        if q_o is not None:
            raise ValueError("q_o applies only to a sign character")
        if len(rep.numerators) != ball.system.num_gens:
            raise ValueError(f"expected {ball.system.num_gens} generator matrices, got {len(rep.numerators)}")
        nums, d = _stack(rep), rep.dimension
        entries: list[Graded] = [{} for _ in range(d * d)]
        place_values = np.array(places(m, bound), dtype=object)  # Python-int keys, whatever the bound
        vals = np.eye(d, dtype=object)[np.newaxis]
        for length, lv in enumerate(ball.levels[: bound + 1]):
            if length:
                vals = vals[lv.parent] @ nums[lv.letter]
            acc: dict[int, np.ndarray] = {}
            for key, mat in zip((lv.multilength @ place_values).tolist(), vals):
                acc[key] = acc[key] + mat if key in acc else mat
            den = rep.denominator**length
            for entry, column in zip(entries, zip(*(mat.flat for mat in acc.values()))):
                terms = {key: Fraction(x, den) if rep.denominator > 1 else x for key, x in zip(acc, column) if x}
                if terms:
                    entry[length] = terms
        out = np.empty((d, d), dtype=object)
        out.flat = [TruncatedSeries.from_graded(m, bound, entry) for entry in entries]
        return out
    raise TypeError(f"cannot form a series for {type(rep).__name__}")
