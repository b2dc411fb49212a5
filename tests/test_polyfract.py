import itertools
import math
import random

import pytest

from deltacalc import (
    NEG_INFINITY,
    DimensionMismatchError,
    IntegerFunction,
    MonomialPolynomial,
    Polyfract,
    WindowError,
    apply,
    binom,
    exponent_tuples,
    from_monomial,
    from_samples,
)
from deltacalc.identities import random_point, standard_word_element
from support import (
    exponent_tuples_by_filter,
    from_samples_by_differences,
    nonzero_polyfract,
    random_polyfract,
)


def test_binom_matches_comb_on_nonnegative_arguments():
    for x in range(12):
        for k in range(12):
            assert binom(x, k) == math.comb(x, k)


def test_binom_negative_lower_index_is_zero():
    for x in (-7, -1, 0, 3, 11):
        assert binom(x, -1) == 0
        assert binom(x, -4) == 0


def test_binom_zero_lower_index_is_one():
    for x in (-9, -1, 0, 1, 14):
        assert binom(x, 0) == 1


def test_binom_equal_arguments_give_one():
    for k in range(8):
        assert binom(k, k) == 1


def test_binom_vanishes_below_the_diagonal():
    for k in range(1, 8):
        for x in range(k):
            assert binom(x, k) == 0


def test_binom_negative_upper_index():
    assert binom(-2, 3) == -4
    for n in range(11):
        for k in range(11):
            expected = 1 if k == 0 else (-1) ** k * math.comb(n + k - 1, k)
            assert binom(-n, k) == expected


def test_eval_single_binomials():
    assert Polyfract(1, {(2,): 1}).eval((4,)) == 6
    assert Polyfract(2, {(1, 1): 2}).eval((2, 3)) == 12
    assert Polyfract(1, {(3,): 1}).eval((-2,)) == -4


def test_count_and_zero_convention():
    assert Polyfract(2).count() == NEG_INFINITY
    assert Polyfract(2, {(1, 0): 3, (2, 2): -1}).count() == 4


def test_cancelling_terms_collapse_to_zero():
    assert not Polyfract(1, [((2,), 1), ((2,), -1)])


def test_negative_exponents_are_rejected():
    with pytest.raises(ValueError):
        Polyfract(1, {(-1,): 1})


def test_exponent_dimension_checked():
    with pytest.raises(DimensionMismatchError):
        Polyfract(2, {(1,): 1})


def test_delta_standard_shifts_exponents_down():
    poly = Polyfract(1, {(2,): 1})
    assert poly.delta_standard((1,)) == Polyfract(1, {(1,): 1})
    assert poly.delta_standard((3,)) == Polyfract(1)


def test_delta_standard_in_two_variables():
    poly = Polyfract(2, {(1, 0): 1})
    assert poly.delta_standard((2, 0)) == Polyfract(2)
    assert poly.delta_standard((0, 0)) == poly


def test_delta_standard_rejects_negative_multiplicities():
    with pytest.raises(ValueError):
        Polyfract(1, {(2,): 1}).delta_standard((-1,))


def test_delta_standard_matches_operator_action_pointwise():
    rng = random.Random(4021)
    for _ in range(40):
        dimension = rng.randint(1, 2)
        n = tuple(rng.randint(0, 4) for _ in range(dimension))
        m = tuple(rng.randint(0, nl) for nl in n)
        poly = Polyfract(dimension, {n: rng.randint(1, 9)})
        expected = poly.delta_standard(m)
        operator = standard_word_element(dimension, m)
        func = IntegerFunction.from_polyfract(poly)
        for x in itertools.product(range(-6, 7), repeat=dimension):
            assert apply(operator, func, x) == expected.eval(x)


def test_shift_by_one_obeys_pascal():
    poly = Polyfract(1, {(2,): 1})
    assert poly.shift_by((1,)) == Polyfract(1, {(2,): 1, (1,): 1})


def test_shift_by_matches_pointwise_translation():
    rng = random.Random(5501)
    for _ in range(60):
        dimension = rng.randint(1, 3)
        poly = random_polyfract(rng, dimension, max_count=4)
        a = random_point(rng, dimension, 3)
        shifted = poly.shift_by(a)
        for _ in range(6):
            x = random_point(rng, dimension, 5)
            assert shifted.eval(x) == poly.eval(tuple(xi + ai for xi, ai in zip(x, a)))


def test_shift_round_trips():
    rng = random.Random(909)
    for _ in range(30):
        dimension = rng.randint(1, 3)
        poly = random_polyfract(rng, dimension, max_count=4)
        a = random_point(rng, dimension, 3)
        back = tuple(-c for c in a)
        assert poly.shift_by(a).shift_by(back) == poly


def test_delta_direction_is_the_shift_difference():
    rng = random.Random(2213)
    for _ in range(40):
        dimension = rng.randint(1, 2)
        poly = random_polyfract(rng, dimension, max_count=4)
        a = random_point(rng, dimension, 3)
        diff = poly.delta_direction(a)
        for _ in range(5):
            x = random_point(rng, dimension, 4)
            assert diff.eval(x) == poly.eval(tuple(xi + ai for xi, ai in zip(x, a))) - poly.eval(x)


def test_delta_direction_along_zero_vanishes():
    poly = Polyfract(2, {(2, 1): 5})
    assert poly.delta_direction((0, 0)) == Polyfract(2)


def test_delta_direction_strictly_drops_the_count():
    rng = random.Random(6311)
    for _ in range(50):
        dimension = rng.randint(1, 3)
        poly = nonzero_polyfract(rng, dimension, max_count=4)
        a = random_point(rng, dimension, 2)
        assert poly.delta_direction(a).count() <= poly.count() - 1


def test_from_samples_recovers_the_square():
    square = IntegerFunction.tabulate(lambda p: p[0] ** 2, 1, 0, 2)
    assert from_samples(square, 2) == Polyfract(1, {(1,): 1, (2,): 2})


def test_from_samples_round_trips_random_polyfracts():
    rng = random.Random(8117)
    for _ in range(60):
        dimension = rng.randint(1, 3)
        poly = random_polyfract(rng, dimension)
        rebuilt = from_samples(IntegerFunction.from_polyfract(poly), poly.count())
        assert rebuilt == poly


def test_from_samples_zero_bound_handles_the_zero_function():
    zero_table = IntegerFunction.tabulate(lambda p: 0, 2, 0, 3)
    assert from_samples(zero_table, 3) == Polyfract(2)
    assert from_samples(zero_table, NEG_INFINITY) == Polyfract(2)


def test_from_samples_needs_the_sampling_box():
    f = IntegerFunction.tabulate(lambda p: p[0], 1, 0, 1)
    with pytest.raises(WindowError):
        from_samples(f, 3)


def test_simplex_reconstruction_matches_the_difference_route():
    rng = random.Random(9061)
    for trial in range(60):
        dimension = rng.randint(1, 3)
        if trial % 10 == 0:
            zero = IntegerFunction.from_polyfract(Polyfract(dimension))
            rebuilt = from_samples(zero, NEG_INFINITY)
            assert rebuilt == from_samples_by_differences(zero, NEG_INFINITY) == Polyfract(dimension)
        poly = nonzero_polyfract(rng, dimension, max_count=4)
        for bound in range(poly.count(), poly.count() + 3):
            exact = IntegerFunction.from_polyfract(poly)
            assert from_samples(exact, bound) == from_samples_by_differences(exact, bound) == poly
            # Any table, polynomial or not, has the same differences by both routes.
            table = IntegerFunction.tabulate(lambda p: rng.randint(-50, 50), dimension, 0, bound)
            assert from_samples(table, bound) == from_samples_by_differences(table, bound)
            if bound:
                short = IntegerFunction.tabulate(lambda p: 1, dimension, 0, bound - 1)
                with pytest.raises(WindowError):
                    from_samples(short, bound)
                with pytest.raises(WindowError):
                    from_samples_by_differences(short, bound)


def test_exponent_tuples_match_the_filtered_box():
    for dimension in (1, 2, 3, 4):
        for max_norm in (NEG_INFINITY, -1, 0, 1, 2, 5):
            expected = exponent_tuples_by_filter(dimension, max_norm)
            assert list(exponent_tuples(dimension, max_norm)) == expected


def test_from_monomial_square_and_cube():
    assert from_monomial(MonomialPolynomial(1, {(2,): 1})) == Polyfract(
        1, {(1,): 1, (2,): 2}
    )
    assert from_monomial(MonomialPolynomial(1, {(3,): 1})) == Polyfract(
        1, {(1,): 1, (2,): 6, (3,): 6}
    )


def test_from_monomial_of_zero():
    assert from_monomial(MonomialPolynomial(3)) == Polyfract(3)


def test_from_monomial_agrees_pointwise():
    rng = random.Random(3313)
    for _ in range(25):
        dimension = rng.randint(1, 2)
        pairs = []
        for _ in range(rng.randint(1, 4)):
            n = tuple(rng.randint(0, 3) for _ in range(dimension))
            pairs.append((n, rng.randint(-5, 5)))
        mono = MonomialPolynomial(dimension, pairs)
        poly = from_monomial(mono)
        for _ in range(8):
            x = random_point(rng, dimension, 6)
            assert poly.eval(x) == mono.eval(x)


def test_monomial_eval_and_degree():
    mono = MonomialPolynomial(2, {(2, 1): 3, (0, 0): -4})
    assert mono.eval((2, -1)) == -16
    assert mono.total_degree() == 3
    assert MonomialPolynomial(1).total_degree() == NEG_INFINITY


def test_distinct_canonical_forms_differ_on_a_small_box():
    rng = random.Random(7919)
    for _ in range(40):
        dimension = rng.randint(1, 2)
        p = random_polyfract(rng, dimension, max_count=4)
        q = random_polyfract(rng, dimension, max_count=4)
        if p == q:
            continue
        top = int(max(p.count(), q.count())) + 1
        box = itertools.product(range(top + 1), repeat=dimension)
        assert any(p.eval(x) != q.eval(x) for x in box)


def test_polyfract_rendering():
    poly = Polyfract(1, {(2,): 2, (1,): 1})
    assert str(poly) == "1*C(x1,1) + 2*C(x1,2)"
    assert str(Polyfract(2)) == "0"
    assert Polyfract(1, {(0,): -1}).to_records() == [{"n": [0], "b": -1}]


def test_exponent_tuples_enumeration():
    assert list(exponent_tuples(2, 1)) == [(0, 0), (0, 1), (1, 0)]
    assert list(exponent_tuples(1, -1)) == []
    assert list(exponent_tuples(3, 0)) == [(0, 0, 0)]
