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

is accumulated here from enumeration (a ball, or the per-multilength counts
of ``weyl.count_multilengths``), never from the closed forms, so the two
modules stay independent checks of one another.  A matrix
representation is summed along the ball's BFS tree: an element's geodesic
is its parent's plus one letter, so r(e_w) = r(e_parent) r(e_s) costs one
matrix product per element.

A :class:`MatrixRep` stores integer numerator matrices N_s over one common
denominator d, so r(e_s) = N_s / d, as object arrays of Python ints (entries
grow like q^l, so never int64).  Every product, relation check and series
sum runs in ints: a product of k generators is an integer matrix over d^k,
and an exact ``Fraction`` is formed only for what is returned.

Two different "trivial" objects are kept deliberately distinct: the trivial
*Hecke character* sends every e_s to q (a valid representation), while the
*counting character* sends every e_w to 1 -- not a Hecke representation at
all, but exactly the functional that degenerates L(t, r) into the growth
series W(t).  Use ``COUNTING`` for the latter.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .cartan import INFINITE_BOND, AffineCoxeterSystem, ClassPartition, SignCharacter
from .series import TruncatedSeries
from .weyl import Ball

__all__ = [
    "COUNTING",
    "CountingCharacter",
    "MatrixRep",
    "RepValidationReport",
    "validate_rep",
    "char_value_e_w",
    "character_series",
    "counting_series",
    "gyoja_series",
    "partial_sums_at_point",
    "parse_sign_vector",
]


class CountingCharacter:
    """Formal functional e_w -> 1; turns L(t, r) into the growth series W(t)."""

    def __repr__(self) -> str:
        return "COUNTING"


COUNTING = CountingCharacter()


def parse_sign_vector(text: str) -> SignCharacter:
    """Parse "[-1,1]" or "-1,1" into a SignCharacter."""
    body = text.strip().removeprefix("[").removesuffix("]")
    try:
        signs = tuple(int(p) for p in body.replace(" ", "").split(",") if p)
    except ValueError as exc:
        raise ValueError(f"cannot parse sign vector {text!r}") from exc
    return SignCharacter(signs)


# ---------------------------------------------------------------------------
# Degree-1 characters
# ---------------------------------------------------------------------------


def char_value_e_s(eps: SignCharacter, class_index: int, q_o: int) -> Fraction:
    """Value on a generator of class i: -1 when eps_i = -1, q = q_o^2 when +1."""
    s = eps.signs[class_index]
    return Fraction(s * q_o ** (s + 1))


def char_value_e_w(eps: SignCharacter, multilength: Sequence[int], q_o: int) -> Fraction:
    """Value on e_w from the class-graded length vector of w.

    Multiplicativity along a reduced word gives
    r(e_w) = prod_i (eps_i * q_o^(eps_i + 1))^(l_i(w)).
    """
    if q_o < 2:
        raise ValueError("q_o must be >= 2 (a residue field size)")
    if len(multilength) != len(eps.signs):
        raise ValueError("multilength / sign vector dimension mismatch")
    value = Fraction(1)
    for s, li in zip(eps.signs, multilength):
        value *= Fraction(s * q_o ** (s + 1)) ** li
    return value


# ---------------------------------------------------------------------------
# Matrix representations
# ---------------------------------------------------------------------------


def _over(num: np.ndarray, den: int) -> np.ndarray:
    """The exact ``Fraction`` matrix num / den."""
    out = np.empty(num.shape, dtype=object)
    out.flat = [Fraction(x, den) for x in num.flat]
    return out


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
    """Generator s acts by ``numerators[s] / denominator``; q is the parameter.

    The numerators are read-only object arrays of Python ints and the
    denominator is the least positive common one.  Build with :meth:`make`.
    Two representations are equal when their dimension, q, denominator and
    numerator entries are.
    """

    dimension: int
    q: Fraction
    numerators: tuple[np.ndarray, ...]
    denominator: int

    def _key(self) -> tuple:
        return (self.dimension, self.q, self.denominator, tuple(tuple(num.flat) for num in self.numerators))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixRep):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        """The generator matrices as exact ``Fraction`` arrays."""
        return tuple(_over(num, self.denominator) for num in self.numerators)

    @staticmethod
    def make(matrices: Sequence, q_o: int | None = None, q: Fraction | int | None = None) -> "MatrixRep":
        """Convert exact-rational generator matrices, all of one square shape.

        Entries and the parameter must be ``numbers.Rational`` (``int``,
        ``Fraction``, numpy integers); a float raises ValueError rather than
        being read as its binary fraction.
        """
        if (q_o is None) == (q is None):
            raise ValueError("give exactly one of q_o or q")
        qq = _rational(q, "q") if q_o is None else _rational(q_o, "q_o") ** 2
        if not len(matrices):
            raise ValueError("need at least one generator matrix")
        mats = [_square_entries(rows, s) for s, rows in enumerate(matrices)]
        shape = mats[0].shape
        for s, mat in enumerate(mats):
            if mat.shape != shape:
                raise ValueError(f"generator {s} matrix has shape {mat.shape}, generator 0 has {shape}")
        entries = [[_rational(x, f"generator {s} matrix entry") for x in mat.flat] for s, mat in enumerate(mats)]
        den = math.lcm(*(x.denominator for flat in entries for x in flat))
        nums = []
        for flat in entries:
            num = np.empty(shape, dtype=object)
            num.flat = [x.numerator * (den // x.denominator) for x in flat]
            num.flags.writeable = False
            nums.append(num)
        return MatrixRep(shape[0], qq, tuple(nums), den)

    @staticmethod
    def from_sign_character(eps: SignCharacter, partition: ClassPartition, q_o: int) -> "MatrixRep":
        if len(eps.signs) != partition.m:
            raise ValueError("sign vector length does not match the class count")
        mats = [
            [[char_value_e_s(eps, partition.class_of[s], q_o)]]
            for s in range(len(partition.class_of))
        ]
        return MatrixRep.make(mats, q_o=q_o)


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


def _is_zero_matrix(mat: np.ndarray) -> bool:
    return not any(mat.flat)


def validate_rep(rep: MatrixRep, system: AffineCoxeterSystem) -> RepValidationReport:
    """Check every quadratic and braid relation exactly; report the failures.

    With r(e_s) = N_s / d and q = a / b, the quadratic relation
    (r(e_s) + 1)(r(e_s) - q) = 0 is (N_s + d I)(b N_s - a d I) = 0, and both
    sides of a braid relation are products of m_st numerators over d^m_st,
    so every check is on integer matrices.
    """
    violations = []
    nums = rep.numerators
    if len(nums) != system.num_gens:
        return RepValidationReport(
            (f"expected {system.num_gens} generator matrices, got {len(nums)}",)
        )
    eye = np.eye(rep.dimension, dtype=object)
    d, a, b = rep.denominator, rep.q.numerator, rep.q.denominator
    for s, num in enumerate(nums):
        lhs = (num + d * eye).dot(b * num - a * d * eye)
        if not _is_zero_matrix(lhs):
            violations.append(f"quadratic relation fails at generator {s}")
    for s in range(system.num_gens):
        for t in range(s + 1, system.num_gens):
            mst = system.coxeter_matrix[s][t]
            if mst == INFINITE_BOND:
                continue
            left, right = nums[s], nums[t]
            for k in range(1, mst):
                left = left.dot(nums[t] if k % 2 else nums[s])
                right = right.dot(nums[s] if k % 2 else nums[t])
            if not _is_zero_matrix(left - right):
                violations.append(f"braid relation fails for pair ({s},{t}) with bond {mst}")
    return RepValidationReport(tuple(violations))


def eval_rep_on_word(rep: MatrixRep, word: Sequence[int]) -> np.ndarray:
    """The ordered product of the generator images along a word, as Fractions.

    On a reduced word of w this is r(e_w); any reduced word gives the same
    product for a rep that passes :func:`validate_rep`.  The product is
    formed on the numerators and divided by denominator^len(word) once.
    """
    nums = rep.numerators
    out = np.eye(rep.dimension, dtype=object)
    for s in word:
        if not 0 <= s < len(nums):
            raise ValueError(f"generator index {s} out of range for {len(nums)} generator matrices")
        out = out.dot(nums[s])
    return _over(out, rep.denominator ** len(word))


# ---------------------------------------------------------------------------
# Generating series
# ---------------------------------------------------------------------------


def character_series(
    counts: Mapping[tuple[int, ...], int],
    rep: CountingCharacter | SignCharacter,
    m: int,
    bound: int,
    q_o: int | None = None,
) -> TruncatedSeries:
    """L(t, r) of a scalar character from the number of elements per multilength.

    ``COUNTING`` gives the growth series W(t); a sign character (requires
    ``q_o``) weights each count by its value r(e_w) = :func:`char_value_e_w`.
    """
    if isinstance(rep, CountingCharacter):
        return TruncatedSeries(m, bound, counts)
    if q_o is None:
        raise ValueError("a sign character needs q_o")
    return TruncatedSeries(
        m, bound, {ml: count * char_value_e_w(rep, ml, q_o) for ml, count in counts.items()}
    )


def counting_series(ball: Ball, bound: int | None = None) -> TruncatedSeries:
    """Growth series W(t): one t_1^(l_1)...t_m^(l_m) term per element."""
    return gyoja_series(ball, COUNTING, bound=bound)


def gyoja_series(
    ball: Ball,
    rep: CountingCharacter | SignCharacter | MatrixRep,
    q_o: int | None = None,
    bound: int | None = None,
):
    """Truncated generating series L(t, r) accumulated over a ball.

    For ``COUNTING`` and a :class:`SignCharacter` (requires ``q_o``) the
    result is a scalar :class:`TruncatedSeries`; for a :class:`MatrixRep` it
    is a (d, d) object array of series.  A matrix rep is evaluated level by
    level along the BFS tree, r(e_w) = r(e_parent) r(e_s), which is the
    product :func:`eval_rep_on_word` forms along w's geodesic; the products
    and the per-multilength sums are integer numerators, and each class is
    divided by denominator^l once.  Callers are expected to have validated
    the rep once.
    """
    if bound is None:
        bound = ball.radius
    if bound > ball.radius:
        raise ValueError(f"ball of radius {ball.radius} cannot determine degree {bound}")
    m = ball.system.m
    if isinstance(rep, (CountingCharacter, SignCharacter)):
        return character_series(ball.multilength_counts(), rep, m, bound, q_o)
    if isinstance(rep, MatrixRep):
        nums = rep.numerators
        acc: dict[tuple[int, ...], np.ndarray] = {}
        vals = [np.eye(rep.dimension, dtype=object)]
        for length, lv in enumerate(ball.levels[: bound + 1]):
            if length:
                vals = [vals[p].dot(nums[s]) for p, s in zip(lv.parent.tolist(), lv.letter.tolist())]
            for ml, mat in zip(map(tuple, lv.multilength.tolist()), vals):
                prev = acc.get(ml)
                acc[ml] = mat if prev is None else prev + mat
        if rep.denominator > 1:
            # a class holds elements of one length l, so it is over d^l
            acc = {ml: _over(mat, rep.denominator ** sum(ml)) for ml, mat in acc.items()}
        d = rep.dimension
        out = np.empty((d, d), dtype=object)
        for i in range(d):
            for j in range(d):
                out[i, j] = TruncatedSeries(
                    m, bound, {ml: mat[i, j] for ml, mat in acc.items()}
                )
        return out
    raise TypeError(f"cannot form a series for {type(rep).__name__}")


def partial_sums_at_point(ball: Ball, eps: SignCharacter, q_o: int) -> list[Fraction]:
    """Partial sums S_k = sum over length <= k of r(e_w) * q_o^(-l(w)).

    The limit, when the character is a discrete series one, is the value the
    closed forms compute directly; the sequence is a convergence diagnostic.
    """
    if q_o < 2:
        raise ValueError("q_o must be >= 2")
    by_length = [Fraction(0)] * (ball.radius + 1)
    for ml, count in ball.multilength_counts().items():
        length = sum(ml)
        by_length[length] += count * char_value_e_w(eps, ml, q_o) * Fraction(1, q_o) ** length
    sums = []
    acc = Fraction(0)
    for term in by_length:
        acc += term
        sums.append(acc)
    return sums
