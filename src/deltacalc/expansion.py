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

The per-tuple expansion walks the index tuples depth first, so the
product alpha_1[k_1] * ... * alpha_j[k_j] of a prefix is computed once
for all the tuples that extend it, and a zero alpha cuts off its whole
subtree.  The grouped expansion merges those tuples by q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ._sparse import prune
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
    delta(e_k1) * ... * delta(e_kd), in lexicographic tuple order;
    tuples with zero coefficient are omitted.
    """
    letters = _validated_word(word)
    dimension = len(letters[0])
    # The shift ring is an integral domain, so a product is zero exactly
    # when one of its factors is: dropping the zero alphas here prunes
    # every zero product together with all the tuples that extend it.  A
    # letter at the origin has no nonzero alpha and annihilates the word.
    choices = [
        [(k, alpha) for k, alpha in enumerate(expand_single(a), start=1) if alpha]
        for a in letters
    ]
    out: dict[tuple[int, ...], GroupRingElement] = {}
    if not all(choices):
        return out
    # Depth first over index tuples with an explicit stack: each prefix
    # product is computed once and shared by every tuple extending it.
    # Children are pushed in reverse, so tuples complete in lexicographic
    # order.  The stack is explicit because a recursive closure forms a
    # reference cycle, which keeps the result alive until the cyclic
    # garbage collector runs.
    length = len(letters)
    shared = {}.setdefault
    stack = [((k,), alpha) for k, alpha in reversed(choices[0])]
    while stack:
        prefix, coeff = stack.pop()
        position = len(prefix)
        if position == length:
            # Rebuilt over one shared key tuple per lattice point, so the
            # stored coefficients take about a third of the memory they
            # take with a fresh tuple per key in each product.
            out[prefix] = GroupRingElement._from_clean(
                dimension, {shared(p, p): c for p, c in coeff._coeffs.items()}
            )
            continue
        for k, alpha in reversed(choices[position]):
            stack.append((prefix + (k,), coeff * alpha))
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
    directions = range(1, dimension + 1)
    sequence = expand_word_sequence(letters)
    # Popping frees each tuple's coefficient as soon as it is merged.
    merged: dict[tuple[int, ...], dict[LatticePoint, int]] = {}
    while sequence:
        indices, coeff = sequence.popitem()
        q = tuple(indices.count(m) for m in directions)
        group = merged.setdefault(q, {})
        get = group.get
        for point, c in coeff._coeffs.items():
            group[point] = get(point, 0) + c
    grouped = {
        q: GroupRingElement._from_clean(dimension, coeffs)
        for q, coeffs in merged.items()
        if prune(coeffs)
    }
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
