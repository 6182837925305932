"""Class-graded growth counts of an affine Weyl group, in plain integers.

:func:`count_multilengths` counts the elements of each multilength in the
ball of a radius without walking the ball.  For J a set of generators and
K = J minus {i}, every w in W_J is uniquely u*v with v in W_K and u in W_J^K,
the elements that are shortest in their coset u*W_K, and l(w) = l(u) + l(v)
(Bjorner-Brenti, *Combinatorics of Coxeter Groups*, Prop. 2.4.4).  A reduced
word of u followed by one of v is a reduced word of w, so the per-class
letter counts add too.  Down the chain S, S - {0}, S - {0, 1}, ..., {} this
writes W as a product of coset sets, the affine group's counts are the
product of theirs, and only the coset representatives are walked: the first
set, W^(S - {0}), is infinite and grows with the radius, the others are
finite and small.

W_J^K is walked as the W_J-orbit of a point x with alpha_t(x) = 1 for t = i
and 0 for the other t in J, by the numbers game on the rows and columns of
``extended_cartan`` in J (Bjorner-Brenti, section 4.3).  The representative
u is carried as the vector v_t = alpha_t(u(x)); v_t < 0 iff t is a left
descent of u, v_t > 0 iff t*u is a longer representative, and v_t = 0 iff
t*u lies in the coset of u.  Since alpha_t o s = alpha_t - a[s][t] * alpha_s,
the vector of s*u is v - v_s * a[s].  The walk fires s only where v_s > 0
and keeps s*u only when s is its smallest left descent, so every
representative of length k + 1 is produced once, from one of length k.

A multilength is kept as its key in :mod:`gyoja.series` at bound radius,
so the key of s*u is the key of u plus the place of s's class, the coset
sets are multiplied by the graded-dict kernels there, and the product is
the growth series W(t) itself, a :class:`~gyoja.series.TruncatedSeries`
that wraps the kernels' graded dict without a copy.

The degree-1 characters of the Hecke algebra live here too, since their
series need only W(t): a sign character's value on e_w depends on the
multilength of w alone (:func:`char_value_e_w`), and
:func:`character_series` weights each term of W(t) by it.  A
character's partial sums at a point (:func:`partial_sums_at_point`) are
the per-degree sums of that series.  Nothing here imports numpy, so
``gyoja series`` runs on plain ints end to end.
"""

from __future__ import annotations

import math
import numbers
import operator
from fractions import Fraction
from itertools import accumulate, islice
from typing import TYPE_CHECKING, Iterator, Sequence

from .cartan import AffineCoxeterSystem, SignCharacter, residue_field_size
from .limits import ResourceLimitExceeded, element_cap, is_integer_text
from .series import Graded, TruncatedSeries, places, product, product_degree

if TYPE_CHECKING:
    from .weyl import Ball

__all__ = [
    "char_value_e_s",
    "char_value_e_w",
    "character_series",
    "count_multilengths",
    "parse_sign_vector",
    "partial_sums_at_point",
]


def count_multilengths(
    system: AffineCoxeterSystem,
    radius: int,
    max_elements: int | None = None,
) -> TruncatedSeries:
    """The growth series W(t): the number of elements of each multilength in the ball of ``radius``.

    It equals ``hecke.counting_series(enumerate_ball(system, radius))`` and
    is the product of the coset sets of the module docstring.  The finite
    ones are multiplied first.  Then the infinite one is walked level by
    level, and each degree of the product is formed as soon as its level is
    known, so the cap is checked before the next level is walked.

    Raises :class:`ResourceLimitExceeded` when the ball of some radius
    k <= ``radius`` has more elements than the cap (argument, else
    GYOJA_MAX_ELEMENTS, else 5,000,000), carrying k - 1 as the completed
    radius.  Raises ValueError for a negative radius or for a cap that is
    not an integer >= 1.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    cap = element_cap(max_elements)
    place_values = places(system.m, radius)
    steps = [place_values[c] for c in system.partition.class_of]
    finite = _finite_levels(system, radius, steps)
    walked: Graded = {}
    counts: Graded = {}
    total = 0
    for k, level in enumerate(islice(_coset_levels(system, range(system.num_gens), steps), radius + 1)):
        walked[k] = level
        counts[k] = product_degree(walked, finite, k, {})
        total += sum(counts[k].values())
        if total > cap:
            raise ResourceLimitExceeded(k - 1, cap)
    return TruncatedSeries.from_graded(system.m, radius, counts)


def _finite_levels(system: AffineCoxeterSystem, radius: int, steps: list[int]) -> Graded:
    """Degrees 0..radius of W_(S - {0}), the finite Weyl group, as the product of its coset sets."""
    levels: Graded = {0: {0: 1}}
    for i in range(1, system.num_gens):
        factor = dict(enumerate(islice(_coset_levels(system, range(i, system.num_gens), steps), radius + 1)))
        levels = product(levels, factor, radius, {})
    return levels


def _coset_levels(system: AffineCoxeterSystem, nodes: Sequence[int], steps: list[int]) -> Iterator[dict[int, int]]:
    """Levels of W_J^K for J = ``nodes`` and K = J minus its first node, as multilength counts.

    Each representative is held as its numbers-game vector over J (see the
    module docstring) and its multilength key; level k is yielded before
    level k + 1 is walked.  A finite J stops after its longest level.
    """
    a = system.extended_cartan
    moves = [(s, [a[letter][t] for t in nodes], steps[letter]) for s, letter in enumerate(nodes)]
    vectors, keys = [(1,) + (0,) * (len(nodes) - 1)], [0]
    while keys:
        counts: dict[int, int] = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        yield counts
        next_vectors, next_keys = [], []
        for v, key in zip(vectors, keys):
            for s, row, step in moves:
                vs = v[s]
                if vs > 0:
                    child = [x - vs * r for x, r in zip(v, row)]
                    for t in range(s):
                        if child[t] < 0:
                            break  # t < s is a left descent of s*u
                    else:
                        next_vectors.append(tuple(child))
                        next_keys.append(key + step)
        vectors, keys = next_vectors, next_keys


# ---------------------------------------------------------------------------
# Degree-1 characters
# ---------------------------------------------------------------------------


def parse_sign_vector(text: str) -> SignCharacter:
    """Parse "[-1,1]" or "-1,1" into a SignCharacter, ignoring spaces; each field must pass
    :func:`~gyoja.limits.is_integer_text`, so "[-1,,1]", "[-1,1," and "[-1,1" raise ValueError."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    fields = body.replace(" ", "").split(",") if body else []
    if not all(map(is_integer_text, fields)):
        raise ValueError(f"cannot parse sign vector {text!r}")
    return SignCharacter(tuple(int(f) for f in fields))


def char_value_e_s(eps: SignCharacter, class_index: int, q_o: int) -> int:
    """Value on a generator of class i: -1 when eps_i = -1, q = q_o^2 when +1.

    Raises ValueError unless q_o, a residue field size, is an integer >= 2.
    """
    q_o = residue_field_size(q_o)
    s = eps.signs[class_index]
    return s * q_o ** (s + 1)


def char_value_e_w(eps: SignCharacter, multilength: Sequence[int], q_o: int) -> int:
    """Value on e_w from the class-graded length vector of w.

    Multiplicativity along a reduced word gives
    r(e_w) = prod_i r(e_{s_i})^(l_i(w)), s_i a generator of class i.
    A multilength that is not a vector of integers >= 0 raises ValueError.
    """
    values = [char_value_e_s(eps, i, q_o) for i in range(len(eps.signs))]
    if len(multilength) != len(values):
        raise ValueError("multilength / sign vector dimension mismatch")
    if not all(isinstance(li, numbers.Integral) and li >= 0 for li in multilength):
        raise ValueError(f"multilength must be integers >= 0, got {tuple(multilength)}")
    return math.prod(v ** operator.index(li) for v, li in zip(values, multilength))  # a numpy li would wrap


def character_series(growth: TruncatedSeries, eps: SignCharacter, q_o: int) -> TruncatedSeries:
    """L(t, eps) of a sign character from the growth series W(t).

    Each coefficient, the number of elements of one multilength, is
    weighted by the character's value r(e_w) = :func:`char_value_e_w`,
    which needs ``q_o``; the multilength is read off the stored key.  A
    class value is -1 or q, so no weighted coefficient is zero.
    """
    values = [char_value_e_s(eps, i, q_o) for i in range(len(eps.signs))]
    if len(values) != growth.nvars:
        raise ValueError("multilength / sign vector dimension mismatch")
    base, weights = growth.bound + 1, list(zip(places(growth.nvars, growth.bound), values))

    def weighted(key: int, count: int) -> int:
        for place, v in weights:
            count *= v ** (key // place % base)
        return count

    levels = {d: {key: weighted(key, n) for key, n in terms.items()} for d, terms in growth.levels.items()}
    return TruncatedSeries.from_graded(growth.nvars, growth.bound, levels)


def partial_sums_at_point(
    system: AffineCoxeterSystem | Ball, eps: SignCharacter, q_o: int, radius: int | None = None
) -> list[Fraction]:
    """Partial sums S_k = sum over length <= k of r(e_w) * q_o^(-l(w)), for k = 0..radius.

    The limit, when the character is a discrete series one, is the value the
    closed forms compute directly; the sequence is a convergence diagnostic.
    Degree l of :func:`character_series` sums to the l-th term, so the sums
    need only W(t), which :func:`count_multilengths` counts without a ball.
    Any other argument than a system is read as a
    :class:`~gyoja.weyl.Ball`, which stands for its system and, when
    ``radius`` is not given, its radius; its elements are not read.
    """
    q_o = residue_field_size(q_o)
    if not isinstance(system, AffineCoxeterSystem):
        system, radius = system.system, system.radius if radius is None else radius
    if radius is None:
        raise ValueError("partial sums over a system need a radius")
    levels = character_series(count_multilengths(system, radius), eps, q_o).levels
    return list(accumulate(Fraction(sum(levels.get(k, {}).values()), q_o**k) for k in range(radius + 1)))
