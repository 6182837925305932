"""Seeded matrix representations for hecke-reps, and their independent oracle.

Each representation is P · diag(r_1, ..., r_d) · P⁻¹ where every r_k is a
sign character of the Hecke algebra (one sign per generator class) and P is
a random unimodular integer matrix.  It satisfies the quadratic and braid
relations by construction, and its generating series must equal
P · diag(L(t, ε_1), ..., L(t, ε_d)) · P⁻¹, where each L(t, ε_k) comes from
``gyoja_series(ball, SignCharacter, q_o)``.  That path uses the class-graded
counts and never multiplies a matrix, so it shares no code with the
object-dtype matrix path it checks.

The seed chooses the conjugating matrices, drawn for each type from its own
generator seeded with the seed and the type, so that a type's cases are the
same whether it is generated alone or with the others.  The dimensions, the q_o values
and the sign characters follow a fixed schedule (the sign characters run
through every sign vector in turn), so every seed asks for nearly the same
amount of work: what it changes is the size of P's entries.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from gyoja import hecke
from gyoja.cartan import SignCharacter, build_affine_system, parse_cartan_type
from gyoja.series import TruncatedSeries
from gyoja.weyl import enumerate_ball

DIMENSIONS = (1, 2, 3)
Q_OS = (2, 3, 5)


@dataclass
class Case:
    """One representation with the ball it is summed over and its recipe."""

    label: str
    system: object
    ball: object
    rep: hecke.MatrixRep
    q_o: int
    signs: list[SignCharacter]
    p: list[list[int]]
    p_inv: list[list[int]]


def _unimodular(rng: random.Random, dim: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random P with integer inverse, as a product of elementary matrices."""
    p = [[int(i == j) for j in range(dim)] for i in range(dim)]
    p_inv = [row[:] for row in p]
    for _ in range(2 * (dim - 1)):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        # P <- P · (I + c·E_ij) adds c·column i to column j;
        # P⁻¹ <- (I - c·E_ij) · P⁻¹ subtracts c·row j from row i.
        for row in p:
            row[j] += c * row[i]
        p_inv[i] = [a - c * b for a, b in zip(p_inv[i], p_inv[j])]
    return p, p_inv


def generate(seed: int, types: tuple[str, ...], radius: int, per_type: int) -> list[Case]:
    """Enumerate each type's ball and build its seeded representations."""
    cases = []
    for label in types:
        rng = random.Random(f"{seed}/{label}")
        system = build_affine_system(parse_cartan_type(label))
        ball = enumerate_ball(system, radius)
        summand = itertools.count()
        for k in range(per_type):
            dim = DIMENSIONS[k % len(DIMENSIONS)]
            q_o = Q_OS[(k // len(DIMENSIONS)) % len(Q_OS)]
            signs = []
            for _ in range(dim):
                # Summand j of the type gets the j-th sign vector, in binary.
                code = next(summand) % 2**system.m
                signs.append(SignCharacter(tuple(1 if code >> c & 1 else -1 for c in range(system.m))))
            p, p_inv = _unimodular(rng, dim)
            matrices = []
            for s in range(system.num_gens):
                cls = system.partition.class_of[s]
                diag = [eps.signs[cls] * q_o ** (eps.signs[cls] + 1) for eps in signs]
                matrices.append(
                    [
                        [sum(p[i][k2] * diag[k2] * p_inv[k2][j] for k2 in range(dim)) for j in range(dim)]
                        for i in range(dim)
                    ]
                )
            rep = hecke.MatrixRep.make(matrices, q_o=q_o)
            cases.append(Case(label, system, ball, rep, q_o, signs, p, p_inv))
    return cases


def oracle_failure(case: Case, series) -> str | None:
    """Compare the matrix series with P · diag(L(t, ε_k)) · P⁻¹."""
    dim = len(case.signs)
    if getattr(series, "shape", None) != (dim, dim):
        return f"series has shape {getattr(series, 'shape', None)}, expected {(dim, dim)}"
    scalars = [hecke.gyoja_series(case.ball, eps, q_o=case.q_o) for eps in case.signs]
    m, bound = case.system.m, case.ball.radius
    for i in range(dim):
        for j in range(dim):
            expected = TruncatedSeries(m, bound, {})
            for k in range(dim):
                coeff = case.p[i][k] * case.p_inv[k][j]
                if coeff:
                    expected = expected + scalars[k] * Fraction(coeff)
            if series[i, j] != expected:
                return f"entry ({i},{j}) differs from P·diag(L)·P⁻¹"
    return None
