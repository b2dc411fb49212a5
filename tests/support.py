"""Deterministic polynomial generators and slow reference routes shared
by the test modules.

The ring-side generators (random_point, random_element, unit_step,
standard_word_element) live in deltacalc.identities.  random_polyfract
here draws from a different distribution than the suites' own, and is
kept apart so that neither seeded stream changes.

The reference routes recompute what a faster library routine computes,
one case at a time and with nothing shared between cases.
"""

from __future__ import annotations

import itertools
import math
import random

from deltacalc import Polyfract, binom, expand_single, identity
from deltacalc.fdeg import _sampled_words


def random_polyfract(
    rng: random.Random,
    dimension: int,
    max_count: int = 5,
    max_terms: int = 5,
    coeff_bound: int = 9,
) -> Polyfract:
    pairs = []
    for _ in range(rng.randint(1, max_terms)):
        while True:
            n = tuple(rng.randint(0, max_count) for _ in range(dimension))
            if sum(n) <= max_count:
                break
        coeff = rng.choice([c for c in range(-coeff_bound, coeff_bound + 1) if c])
        pairs.append((n, coeff))
    return Polyfract(dimension, pairs)


def nonzero_polyfract(rng: random.Random, dimension: int, **kwargs) -> Polyfract:
    while True:
        poly = random_polyfract(rng, dimension, **kwargs)
        if poly:
            return poly


def expand_word_sequence_by_tuple(word) -> dict:
    """expand_word_sequence the direct way: every index tuple's product is
    built up from the identity on its own."""
    letters = tuple(tuple(a) for a in word)
    dimension = len(letters[0])
    alphas = [expand_single(a) for a in letters]
    out = {}
    for indices in itertools.product(range(1, dimension + 1), repeat=len(letters)):
        coeff = identity(dimension)
        for position, k in enumerate(indices):
            coeff = coeff * alphas[position][k - 1]
            if not coeff:
                break
        if coeff:
            out[indices] = coeff
    return out


def first_surviving_word(poly: Polyfract, words):
    """The first of ``words`` that does not annihilate ``poly``, each word
    replayed from ``poly`` letter by letter; None when all of them do."""
    for word in words:
        current = poly
        for a in word:
            current = current.delta_direction(a)
            if not current:
                break
        if current:
            return word
    return None


def first_surviving_multiset(poly: Polyfract, letters, length: int):
    """The first multiset of ``length`` letters, in
    combinations_with_replacement order, that does not annihilate
    ``poly``, every one replayed literally; None when all of them do."""
    return first_surviving_word(poly, itertools.combinations_with_replacement(letters, length))


def refutation_words(letters, length: int, max_extra: int):
    """Every multiset of ``length`` letters when there are at most
    ``max_extra``, else fdeg's seeded sample of ``max_extra`` words; as a
    list, with whether it holds every multiset."""
    if math.comb(len(letters) + length - 1, length) <= max_extra:
        return list(itertools.combinations_with_replacement(letters, length)), True
    return list(_sampled_words(letters, length, max_extra)), False


def from_samples_by_differences(func, degree_bound):
    """from_samples one coefficient at a time over the filtered box: each
    is the alternating binomial sum of the samples below its exponent
    tuple."""
    coeffs = {}
    for n in exponent_tuples_by_filter(func.dimension, degree_bound):
        b = _difference_at_origin(func, n)
        if b:
            coeffs[n] = b
    return Polyfract(func.dimension, coeffs)


def _difference_at_origin(func, n) -> int:
    norm = sum(n)
    total = 0
    for j in itertools.product(*(range(nl + 1) for nl in n)):
        weight = 1
        for nl, jl in zip(n, j):
            weight *= binom(nl, jl)
        total += (-1) ** (norm - sum(j)) * weight * func(j)
    return total


def apply_by_public_calls(element, func, x) -> int:
    """apply the literal way: sum(c * func(x + p)) over the terms in
    storage order (the order apply meets a point outside a window in),
    every shifted point passed to func's public, checking call."""
    x = tuple(x)
    total = 0
    for point, coeff in element._coeffs.items():
        total += coeff * func(tuple(xi + ci for xi, ci in zip(x, point)))
    return total


def alt_sum_multivariate_by_rows(m, n, x, corrected=True) -> tuple[int, int]:
    """alt_sum_multivariate with every per-axis row recomputed per call."""
    per_axis = []
    for ml, nl, xl in zip(m, n, x):
        axis = []
        for p in range(nl + 1):
            weight = binom(nl, p) if corrected else 1
            axis.append((-1) ** p * weight * binom(xl + nl - p, ml))
        per_axis.append(axis)
    lhs = 0
    for factors in itertools.product(*per_axis):
        lhs += math.prod(factors)
    rhs = math.prod(binom(xl, ml - nl) for xl, ml, nl in zip(x, m, n))
    return lhs, rhs


def compositions_by_filter(norm: int, parts: int) -> list[tuple[int, ...]]:
    """The tuples of ``parts`` entries in 0..norm that sum to norm, by
    filtering the whole box."""
    return [m for m in itertools.product(range(norm + 1), repeat=parts) if sum(m) == norm]


def exponent_tuples_by_filter(dimension: int, max_norm) -> list[tuple[int, ...]]:
    """The tuples of ``dimension`` entries with |n| <= max_norm, by
    filtering the whole box [0, max_norm]^dimension."""
    if max_norm < 0:
        return []
    bound = int(max_norm)
    return [n for n in itertools.product(range(bound + 1), repeat=dimension) if sum(n) <= bound]
