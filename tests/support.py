"""Deterministic polynomial generators shared by the test modules.

The ring-side generators (random_point, random_element, unit_step,
standard_word_element) live in deltacalc.identities.  random_polyfract
here draws from a different distribution than the suites' own, and is
kept apart so that neither seeded stream changes.
"""

from __future__ import annotations

import random

from deltacalc import Polyfract


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
