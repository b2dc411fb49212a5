"""The shared sparse core: public constructors validate, internal results
are built trusted and must still be canonical.

Every result of internal arithmetic is compared with a copy rebuilt
through the public constructor, which re-checks each key and drops zero
coefficients; a trusted result that kept a zero or a malformed key
would differ from its copy.
"""

import itertools
import random

import pytest

from deltacalc import (
    DimensionMismatchError,
    GroupRingElement,
    MonomialPolynomial,
    Polyfract,
)
from deltacalc.identities import random_element, random_point
from support import random_polyfract

STEPS = {
    1: [(0,), (1,), (-1,), (3,), (-4,)],
    2: [(0, 0), (1, 0), (0, -2), (-1, -1), (2, -3), (-3, 1)],
    3: [(0, 0, 0), (0, 1, 0), (-1, 0, 0), (1, -1, 2), (-2, -2, -1), (0, 3, -1)],
}


def assert_canonical(value):
    assert all(coeff != 0 for _, coeff in value.terms())
    copy = type(value)(value.dimension, value.terms())
    assert value == copy
    assert hash(value) == hash(copy)


def public_difference(poly: Polyfract, shifted: Polyfract) -> Polyfract:
    """shifted - poly, summed and pruned by the public constructor."""
    pairs = shifted.terms() + [(n, -b) for n, b in poly.terms()]
    return Polyfract(poly.dimension, pairs)


def test_delta_direction_is_the_shift_minus_the_input():
    rng = random.Random(20260)
    for dimension, steps in STEPS.items():
        for _ in range(40):
            poly = random_polyfract(rng, dimension)
            points = [random_point(rng, dimension, 5) for _ in range(4)]
            for a in steps + [random_point(rng, dimension, 4)]:
                shifted = poly.shift_by(a)
                difference = poly.delta_direction(a)
                assert difference == public_difference(poly, shifted)
                for x in points:
                    moved = tuple(xl + al for xl, al in zip(x, a))
                    assert shifted.eval(x) == poly.eval(moved)
                    assert difference.eval(x) == poly.eval(moved) - poly.eval(x)
                assert_canonical(shifted)
                assert_canonical(difference)


def test_polyfract_results_are_canonical():
    rng = random.Random(20261)
    for dimension in (1, 2, 3):
        for _ in range(40):
            p = random_polyfract(rng, dimension)
            q = random_polyfract(rng, dimension)
            m = tuple(rng.randint(0, 3) for _ in range(dimension))
            results = [p + q, p - q, p - p, p + (-p), -p, 3 * p, p * 0, p.delta_standard(m)]
            for value in results:
                assert_canonical(value)
            assert not p - p
            assert p + q == Polyfract(dimension, p.terms() + q.terms())


def test_ring_results_are_canonical():
    rng = random.Random(20262)
    for dimension in (1, 2, 3):
        for _ in range(40):
            t = random_element(rng, dimension)
            u = random_element(rng, dimension)
            results = [t * u, t + u, t - u, t - t, -t, t * -2, 0 * t, (t - u) * (t + u)]
            for value in results:
                assert_canonical(value)
            assert not t - t
            assert t + u == GroupRingElement(dimension, t.terms() + u.terms())
            product = GroupRingElement(
                dimension,
                [
                    (tuple(pi + qi for pi, qi in zip(p, q)), c * d)
                    for (p, c), (q, d) in itertools.product(t.terms(), u.terms())
                ],
            )
            assert t * u == product


def test_public_constructors_still_validate():
    with pytest.raises(DimensionMismatchError):
        GroupRingElement(2, {(1,): 1})
    with pytest.raises(ValueError):
        GroupRingElement(0)
    for cls in (Polyfract, MonomialPolynomial):
        with pytest.raises(DimensionMismatchError):
            cls(2, {(1, 0, 0): 1})
        with pytest.raises(ValueError, match="nonnegative"):
            cls(2, {(1, -1): 1})
        with pytest.raises(ValueError):
            cls(0)
    assert not GroupRingElement(1, [((1,), 2), ((1,), -2)])
    assert not Polyfract(1, [((1,), 2), ((1,), -2)])


def test_arithmetic_checks_dimensions_and_types():
    with pytest.raises(DimensionMismatchError):
        GroupRingElement(1, {(1,): 1}) + GroupRingElement(2, {(1, 0): 1})
    with pytest.raises(DimensionMismatchError):
        GroupRingElement(1, {(1,): 1}) * GroupRingElement(2, {(1, 0): 1})
    with pytest.raises(DimensionMismatchError):
        Polyfract(1, {(1,): 1}) - Polyfract(2, {(1, 0): 1})
    with pytest.raises(DimensionMismatchError):
        Polyfract(2, {(1, 0): 1}).delta_direction((1,))
    with pytest.raises(TypeError):
        Polyfract(1, {(1,): 1}) + MonomialPolynomial(1, {(1,): 1})
    assert Polyfract(1, {(1,): 1}) != MonomialPolynomial(1, {(1,): 1})
