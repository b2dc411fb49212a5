"""Rewriting difference words over the standard lattice directions.

A single difference delta(a) expands as sum_i alpha_i * delta(e_i)
where each shift-ring coefficient alpha_i is read off the coordinates
of a: walk the coordinates left to right, and direction i contributes
the shifts accumulated so far times a run of steps along e_i.  Words
expand factor by factor; the result is kept either per index tuple
(k_1, ..., k_d), one standard word delta(e_k1)...delta(e_kd) each, or
grouped by the multiplicity vector q that counts how often every
direction occurs.  Words whose letters all lie on one line Z*s
collapse further, to a single shift-ring prefactor times a power of
delta(s).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .group_ring import (
    DifferenceWord,
    GroupRingElement,
    LatticePoint,
    identity,
    shift,
)


def _validated_word(word: Iterable[Iterable[int]]) -> DifferenceWord:
    letters = tuple(tuple(a) for a in word)
    if not letters:
        raise ValueError("a difference word needs at least one letter")
    dimension = len(letters[0])
    if dimension < 1:
        raise ValueError("letters must have dimension at least 1")
    for a in letters:
        if len(a) != dimension:
            raise ValueError(f"letters {letters[0]} and {a} disagree in dimension")
    return letters


def _axis_run(r: int, axis: int, dimension: int) -> GroupRingElement:
    # delta(r * e_axis) == run * delta(e_axis): a sum of r forward steps
    # when r >= 0, and minus a sum of |r| backward steps when r < 0.
    def step(p: int) -> LatticePoint:
        point = [0] * dimension
        point[axis] = p
        return tuple(point)

    if r >= 0:
        return GroupRingElement(dimension, {step(p): 1 for p in range(r)})
    return GroupRingElement(dimension, {step(p): -1 for p in range(r, 0)})


def expand_single(a: Iterable[int]) -> list[GroupRingElement]:
    """Coefficients alpha with delta(a) == sum_i alpha[i] * delta(e_i).

    alpha[i] is the shift by the first i coordinates of a times the run
    along e_i; coordinates equal to zero contribute the zero element.
    """
    a = tuple(a)
    if len(a) < 1:
        raise ValueError("the step vector must have dimension at least 1")
    dimension = len(a)
    out = []
    prefix = [0] * dimension
    for axis, r in enumerate(a):
        out.append(shift(prefix) * _axis_run(r, axis, dimension))
        prefix[axis] += r
    return out


def expand_word_sequence(
    word: Iterable[Iterable[int]],
) -> dict[tuple[int, ...], GroupRingElement]:
    """Expand a word over all direction-index tuples.

    The result maps each tuple (k_1, ..., k_d) of 1-based direction
    indices to the shift-ring coefficient of the standard word
    delta(e_k1) * ... * delta(e_kd); tuples with zero coefficient are
    omitted.
    """
    letters = _validated_word(word)
    dimension = len(letters[0])
    alphas = [expand_single(a) for a in letters]
    out: dict[tuple[int, ...], GroupRingElement] = {}
    for indices in itertools.product(range(1, dimension + 1), repeat=len(letters)):
        coeff = identity(dimension)
        for position, k in enumerate(indices):
            coeff = coeff * alphas[position][k - 1]
            if not coeff:
                break
        if coeff:
            out[indices] = coeff
    return out


@dataclass(frozen=True)
class GroupedExpansion:
    """A word expansion aggregated by direction multiplicities.

    ``terms`` maps each multiplicity vector q (q_m standard steps along
    direction m) to its shift-ring coefficient; every q with a nonzero
    coefficient satisfies |q| == word_length.
    """

    dimension: int
    word_length: int
    terms: dict[tuple[int, ...], GroupRingElement]

    def to_records(self) -> list[dict]:
        return [
            {"q": list(q), "coeff": coeff.to_records()}
            for q, coeff in sorted(self.terms.items())
        ]


def expand_word_grouped(word: Iterable[Iterable[int]]) -> GroupedExpansion:
    """Expand a word and merge index tuples that use the same directions
    equally often."""
    letters = _validated_word(word)
    dimension = len(letters[0])
    grouped: dict[tuple[int, ...], GroupRingElement] = {}
    for indices, coeff in expand_word_sequence(letters).items():
        q = tuple(indices.count(m) for m in range(1, dimension + 1))
        grouped[q] = grouped[q] + coeff if q in grouped else coeff
    grouped = {q: coeff for q, coeff in grouped.items() if coeff}
    return GroupedExpansion(dimension=dimension, word_length=len(letters), terms=grouped)


def cyclic_factor(multipliers: Sequence[int], s: Iterable[int]) -> GroupRingElement:
    """The prefactor T with delta(r_1 s) * ... * delta(r_d s) == T * delta(s)^d.

    Each factor of T is the sum of shifts [0*s] + [1*s] + ... + [(r_i - 1)*s];
    the lower limit 0 matters, dropping it breaks the factorization already
    for r == (2,).  Multipliers must be positive.
    """
    s = tuple(s)
    if len(s) < 1:
        raise ValueError("the direction must have dimension at least 1")
    out = identity(len(s))
    for r in multipliers:
        if r < 1:
            raise ValueError(f"multipliers must be positive, got {r}")
        factor = GroupRingElement(
            len(s), [(tuple(p * si for si in s), 1) for p in range(r)]
        )
        out = out * factor
    return out
