import gc
import itertools
import random

import pytest

from deltacalc import (
    DimensionMismatchError,
    GroupRingElement,
    IntegerFunction,
    MonomialPolynomial,
    Polyfract,
    WindowError,
    apply,
    delta,
    identity,
    shift,
    word_operator,
    zero,
)
from deltacalc.identities import random_element, random_point
from support import apply_by_public_calls, random_polyfract


def test_zero_element_has_no_terms():
    assert not zero(2)
    assert zero(2).terms() == []
    assert str(zero(2)) == "0"


def test_shift_cancels_with_its_negation():
    assert shift((1, 0)) + (-1) * shift((1, 0)) == zero(2)


def test_delta_at_origin_is_zero():
    assert not delta((0, 0))


def test_delta_of_unit_step():
    assert delta((1,)).terms() == [((0,), -1), ((1,), 1)]


def test_product_convolves_shift_vectors():
    assert shift((1, 2)) * shift((3, 4)) == shift((4, 6))


def test_pow_iterates_the_product():
    d = delta((1, 2))
    assert d**0 == identity(2)
    assert d**3 == d * d * d


def test_pow_rejects_negative_exponents():
    with pytest.raises(ValueError):
        delta((1,)) ** -1


def test_scalar_multiples():
    t = shift((2,)) - 3 * shift((0,))
    assert (2 * t).coefficient((2,)) == 2
    assert t * -1 == -t
    assert 0 * t == zero(1)


def test_dimension_mismatch_is_loud():
    with pytest.raises(DimensionMismatchError):
        shift((1, 0)) + shift((1,))
    with pytest.raises(DimensionMismatchError):
        shift((1, 0)) * shift((1,))


def test_construction_merges_duplicate_points():
    t = GroupRingElement(1, [((0,), 2), ((0,), -2), ((1,), 5)])
    assert t == 5 * shift((1,))


def test_terms_sorted_lexicographically():
    t = shift((1, 0)) + shift((0, 2)) + shift((-1, 5))
    points = [p for p, _ in t.terms()]
    assert points == sorted(points)


def test_to_records_layout():
    t = 2 * shift((1, 0)) - shift((0, 2))
    assert t.to_records() == [
        {"coords": [0, 2], "coeff": -1},
        {"coords": [1, 0], "coeff": 2},
    ]


def test_ring_laws_on_random_elements():
    rng = random.Random(1009)
    for _ in range(80):
        dimension = rng.randint(1, 3)
        t = random_element(rng, dimension)
        u = random_element(rng, dimension)
        v = random_element(rng, dimension)
        assert t * u == u * t
        assert (t * u) * v == t * (u * v)
        assert t * (u + v) == t * u + t * v


def test_word_operator_multiplies_deltas():
    assert word_operator(((1, 0), (2, 1))) == delta((1, 0)) * delta((2, 1))


def test_word_operator_rejects_empty_words():
    with pytest.raises(ValueError):
        word_operator(())


def test_word_operator_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatchError):
        word_operator(((1, 0), (1,)))


def test_apply_shift_reads_shifted_value():
    f = IntegerFunction.from_polyfract(Polyfract(1, {(1,): 1}))
    assert apply(shift((3,)), f, (4,)) == 7


def test_apply_delta_matches_manual_difference():
    f = IntegerFunction.tabulate(lambda p: p[0] ** 3, 1, -5, 5)
    assert apply(delta((1,)), f, (2,)) == 3**3 - 2**3


def test_third_difference_of_cubic_binomial_is_one():
    f = IntegerFunction.from_polyfract(Polyfract(1, {(3,): 1}))
    assert apply(word_operator(((1,), (1,), (1,))), f, (0,)) == 1


def test_second_difference_of_cubic_binomial():
    f = IntegerFunction.from_polyfract(Polyfract(1, {(3,): 1}))
    assert apply(word_operator(((1,), (1,))), f, (1,)) == 1


def test_apply_outside_window_is_loud():
    f = IntegerFunction.tabulate(lambda p: p[0], 1, 0, 3)
    with pytest.raises(WindowError):
        apply(delta((1,)), f, (3,))


def test_zero_operator_never_evaluates():
    f = IntegerFunction.tabulate(lambda p: p[0], 1, 0, 1)
    assert apply(zero(1), f, (100,)) == 0


def test_apply_checks_dimensions():
    f = IntegerFunction.from_polyfract(Polyfract(2, {(1, 0): 1}))
    with pytest.raises(DimensionMismatchError):
        apply(delta((1,)), f, (0,))


def test_action_is_a_homomorphism():
    # (T*U) f == T (U f) pointwise
    rng = random.Random(77)
    for _ in range(25):
        dimension = rng.randint(1, 2)
        t = random_element(rng, dimension, max_terms=3, coord_bound=2, coeff_bound=5)
        u = random_element(rng, dimension, max_terms=3, coord_bound=2, coeff_bound=5)
        f = IntegerFunction.from_polyfract(random_polyfract(rng, dimension, max_count=3))
        x = random_point(rng, dimension, 3)
        assert apply(t * u, f, x) == apply(t, lambda y: apply(u, f, y), x)


def test_integer_function_kinds_and_exactness():
    poly = IntegerFunction.from_polyfract(Polyfract(1, {(2,): 1}))
    mono = IntegerFunction.from_monomial(MonomialPolynomial(1, {(2,): 1}))
    table = IntegerFunction.tabulate(lambda p: p[0], 1, -2, 2)
    assert poly.kind == "polyfract" and poly.exact
    assert mono.kind == "monomial" and mono.exact
    assert table.kind == "tabulated" and not table.exact


def test_tabulated_lookup_and_window():
    f = IntegerFunction.tabulate(lambda p: p[0] * 10 + p[1], 2, -1, 1)
    assert f((1, -1)) == 9
    with pytest.raises(WindowError):
        f((2, 0))


def test_from_table_requires_the_full_cube():
    with pytest.raises(ValueError):
        IntegerFunction.from_table({(0,): 1}, 1, 0, 1)


def test_function_dimension_checked_on_call():
    f = IntegerFunction.from_polyfract(Polyfract(2, {(1, 1): 1}))
    with pytest.raises(DimensionMismatchError):
        f((1,))


def _functions_of_every_kind(rng, dimension, lo, hi):
    poly = random_polyfract(rng, dimension, max_count=4)
    mono = MonomialPolynomial(
        dimension,
        [(tuple(rng.randint(0, 3) for _ in range(dimension)), rng.randint(-9, 9)) for _ in range(4)],
    )
    weights = [rng.randint(-3, 3) for _ in range(dimension)]
    return [
        IntegerFunction.from_polyfract(poly),
        IntegerFunction.from_monomial(mono),
        IntegerFunction.tabulate(poly.eval, dimension, lo, hi),
        IntegerFunction.from_table(
            {p: rng.randint(-9, 9) for p in itertools.product(range(lo, hi + 1), repeat=dimension)},
            dimension,
            lo,
            hi,
        ),
        lambda p: sum(w * c**3 for w, c in zip(weights, p)) + 1,
    ]


def test_apply_matches_the_public_call_route():
    rng = random.Random(2024)
    for dimension in (1, 2, 3):
        # Shifted points stay in [-6, 6]^N, inside every table's window.
        functions = _functions_of_every_kind(rng, dimension, -6, 6)
        for _ in range(40):
            element = random_element(rng, dimension, max_terms=8, coord_bound=3)
            x = random_point(rng, dimension, 3)
            for func in functions:
                assert apply(element, func, x) == apply_by_public_calls(element, func, x)


def test_apply_outside_a_window_fails_like_the_public_call_route():
    rng = random.Random(99)
    escaped = inside = 0
    for dimension in (1, 2, 3):
        for func in _functions_of_every_kind(rng, dimension, -2, 2)[2:4]:
            for _ in range(60):
                element = random_element(rng, dimension, max_terms=5, coord_bound=2)
                x = random_point(rng, dimension, 1)
                try:
                    want = apply_by_public_calls(element, func, x)
                except WindowError as error:
                    escaped += 1
                    with pytest.raises(WindowError) as raised:
                        apply(element, func, x)
                    assert str(raised.value) == str(error)
                else:
                    inside += 1
                    assert apply(element, func, x) == want
    assert escaped > 50 and inside > 50


def test_evaluation_leaves_no_cyclic_garbage():
    # A function holding a bound method of itself would be a reference
    # cycle, kept alive until the cyclic collector runs.
    rng = random.Random(5)
    operator = word_operator(((1, 0), (0, 1), (1, -1)))
    gc.collect()
    gc.disable()
    try:
        for func in _functions_of_every_kind(rng, 2, -4, 4)[:4]:
            apply(operator, func, (0, 1))
            func((1, 1))
        del func
        assert gc.collect() == 0
    finally:
        gc.enable()
