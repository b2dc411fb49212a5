import gc
import random

import pytest

from deltacalc import (
    GroupRingElement,
    cyclic_factor,
    delta,
    expand_single,
    expand_word_grouped,
    expand_word_sequence,
    identity,
    shift,
    word_operator,
    zero,
)
from deltacalc.identities import random_point, standard_word_element, unit_step
from support import expand_word_sequence_by_tuple


def recompose(dimension, coefficients_by_multiplicity):
    total = zero(dimension)
    for q, coeff in coefficients_by_multiplicity:
        total = total + coeff * standard_word_element(dimension, q)
    return total


def test_expand_single_diagonal_step():
    alphas = expand_single((1, 1))
    assert alphas == [identity(2), shift((1, 0))]


def test_expand_single_frozen_example():
    alphas = expand_single((2, 1))
    assert alphas[0] == identity(2) + shift((1, 0))
    assert alphas[1] == shift((2, 0))


def test_expand_single_unit_steps():
    for dimension in (1, 2, 3):
        for k in range(1, dimension + 1):
            alphas = expand_single(unit_step(dimension, k))
            for i, alpha in enumerate(alphas):
                assert alpha == (identity(dimension) if i == k - 1 else zero(dimension))


def test_expand_single_of_origin_is_all_zero():
    assert expand_single((0, 0)) == [zero(2), zero(2)]


def test_expand_single_reproduces_the_difference():
    # delta(a) == sum_i alpha_i delta(e_i), negative coordinates included
    rng = random.Random(314)
    for _ in range(150):
        dimension = rng.randint(1, 3)
        a = random_point(rng, dimension, 3)
        alphas = expand_single(a)
        total = zero(dimension)
        for i, alpha in enumerate(alphas):
            total = total + alpha * delta(unit_step(dimension, i + 1))
        assert total == delta(a)


def test_sequence_expansion_of_a_standard_word():
    expansion = expand_word_sequence(((1, 0), (0, 1)))
    assert expansion == {(1, 2): identity(2)}


def test_sequence_expansion_omits_zero_coefficients():
    expansion = expand_word_sequence(((2, 1),))
    assert set(expansion) == {(1,), (2,)}
    assert all(expansion.values())


def test_sequence_expansion_matches_the_per_tuple_route():
    # Coordinates in [-2, 2]: negative and zero ones are common, and the
    # fixed words put a zero letter and zero alphas at every position.
    rng = random.Random(1618)
    words = [
        ((0, 0), (1, 1)),
        ((1, 1), (0, 0)),
        ((0, 2), (2, 0), (-1, 0), (0, -3)),
        ((0, 1, 0), (1, 0, -1), (0, 0, 2)),
    ]
    for _ in range(40):
        dimension = rng.randint(1, 3)
        length = rng.randint(1, 7)
        words.append(tuple(random_point(rng, dimension, 2) for _ in range(length)))
    for word in words:
        fast = expand_word_sequence(word)
        slow = expand_word_sequence_by_tuple(word)
        assert list(fast.items()) == list(slow.items()), word


def test_sequence_expansion_reproduces_the_word_operator():
    rng = random.Random(2718)
    for _ in range(60):
        dimension = rng.randint(1, 3)
        word = tuple(
            random_point(rng, dimension, 3) for _ in range(rng.randint(1, 3))
        )
        pairs = [
            ([k.count(m) for m in range(1, dimension + 1)], coeff)
            for k, coeff in expand_word_sequence(word).items()
        ]
        assert recompose(dimension, pairs) == word_operator(word)


def test_grouped_expansion_frozen_example():
    grouped = expand_word_grouped([(2, 1)])
    assert grouped.word_length == 1
    assert grouped.terms == {
        (1, 0): identity(2) + shift((1, 0)),
        (0, 1): shift((2, 0)),
    }


def test_grouped_multiplicities_sum_to_the_word_length():
    rng = random.Random(9001)
    for _ in range(60):
        dimension = rng.randint(1, 3)
        word = tuple(
            random_point(rng, dimension, 3) for _ in range(rng.randint(1, 3))
        )
        grouped = expand_word_grouped(word)
        assert all(sum(q) == grouped.word_length for q in grouped.terms)
        assert recompose(dimension, grouped.terms.items()) == word_operator(word)


def test_grouped_expansion_merges_the_sequence_form():
    rng = random.Random(451)
    for _ in range(40):
        dimension = rng.randint(1, 3)
        word = tuple(
            random_point(rng, dimension, 2) for _ in range(rng.randint(1, 3))
        )
        grouped = expand_word_grouped(word)
        merged = {}
        for k, coeff in expand_word_sequence(word).items():
            q = tuple(k.count(m) for m in range(1, dimension + 1))
            merged[q] = merged.get(q, zero(dimension)) + coeff
        merged = {q: c for q, c in merged.items() if c}
        assert grouped.terms == merged


def test_grouped_expansion_leaves_no_cyclic_garbage():
    # Reference cycles would keep every tuple coefficient alive until the
    # cyclic collector runs; the expansion must free them by refcount.
    word = ((1, -2, 3), (2, 0, -1), (-3, 1, 2), (1, 1, -2), (0, 2, 1))
    gc.collect()
    gc.disable()
    try:
        assert expand_word_grouped(word).terms
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_words_containing_the_origin_collapse():
    grouped = expand_word_grouped(((1, 1), (0, 0)))
    assert grouped.terms == {}
    assert not word_operator(((1, 1), (0, 0)))


def test_expansion_rejects_empty_and_ragged_words():
    with pytest.raises(ValueError):
        expand_word_sequence(())
    with pytest.raises(ValueError):
        expand_word_grouped((((1, 0)), (1,)))


def test_grouped_serialization_order():
    records = expand_word_grouped([(2, 1)]).to_records()
    assert [r["q"] for r in records] == [[0, 1], [1, 0]]
    assert records[0]["coeff"] == [{"coords": [2, 0], "coeff": 1}]


def test_cyclic_factor_frozen_example():
    factor = cyclic_factor((2, 3), (1,))
    assert factor == GroupRingElement(1, {(0,): 1, (1,): 2, (2,): 2, (3,): 1})


def test_cyclic_factor_of_unit_multipliers_is_identity():
    assert cyclic_factor((1, 1, 1), (2, -1)) == identity(2)


def test_cyclic_factor_rejects_nonpositive_multipliers():
    with pytest.raises(ValueError):
        cyclic_factor((2, 0), (1,))
    with pytest.raises(ValueError):
        cyclic_factor((-1,), (1,))


def test_cyclic_factorization_identity():
    rng = random.Random(64)
    for _ in range(80):
        dimension = rng.randint(1, 3)
        s = random_point(rng, dimension, 2)
        multipliers = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 4)))
        word = tuple(tuple(r * c for c in s) for r in multipliers)
        lhs = word_operator(word)
        rhs = cyclic_factor(multipliers, s) * delta(s) ** len(multipliers)
        assert lhs == rhs


def test_cyclic_factorization_with_zero_direction():
    s = (0, 0)
    word = ((0, 0), (0, 0))
    assert word_operator(word) == cyclic_factor((2, 3), s) * delta(s) ** 2 == zero(2)


def test_trimmed_prefactor_breaks_the_factorization():
    # Starting the runs at 1 loses the identity shift: for multiplier 2
    # the trimmed prefactor is [1] and [1]*delta(1) != delta(2).
    trimmed = GroupRingElement(1, {(1,): 1})
    assert trimmed * delta((1,)) != delta((2,))
    assert cyclic_factor((2,), (1,)) * delta((1,)) == delta((2,))
