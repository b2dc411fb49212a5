import math
import random
import re

import pytest

from deltacalc import (
    NEG_INFINITY,
    Polyfract,
    fdeg_general,
    fdeg_standard,
    fdeg_standard_by_search,
    leading_term_check,
)
from deltacalc.fdeg import _box_letters, _compositions, _refutation_words, _refute
from support import (
    compositions_by_filter,
    first_surviving_word,
    nonzero_polyfract,
    random_polyfract,
)


def test_standard_degree_is_the_count():
    assert fdeg_standard(Polyfract(2)) == NEG_INFINITY
    assert fdeg_standard(Polyfract(2, {(0, 0): 7})) == 0
    assert fdeg_standard(Polyfract(2, {(2, 0): 1, (1, 0): -3})) == 2


def test_search_agrees_on_frozen_examples():
    assert fdeg_standard_by_search(Polyfract(2)) == NEG_INFINITY
    assert fdeg_standard_by_search(Polyfract(2, {(2, 0): 1})) == 2
    assert fdeg_standard_by_search(Polyfract(1, {(0,): -4})) == 0


def test_search_agrees_with_count_on_random_inputs():
    rng = random.Random(1303)
    for _ in range(80):
        dimension = rng.randint(1, 3)
        poly = random_polyfract(rng, dimension)
        assert fdeg_standard_by_search(poly) == poly.count()


def test_general_degree_of_a_product_of_two_variables():
    poly = Polyfract(2, {(1, 1): 1})
    report = fdeg_general(poly, direction_box=1)
    assert report.fdeg_standard == 2
    assert report.fdeg_general_lower == 2
    assert len(report.witness_word) == 2
    assert report.annihilation_checked_to == 3
    assert report.exhaustive  # 8 box directions allow full multiset coverage


def test_general_degree_of_a_constant():
    report = fdeg_general(Polyfract(3, {(0, 0, 0): 5}), direction_box=2)
    assert report.fdeg_general_lower == 0
    assert report.witness_word == ()
    assert report.annihilation_checked_to == 1
    assert report.exhaustive


def test_general_degree_rejects_zero_and_bad_parameters():
    with pytest.raises(ValueError):
        fdeg_general(Polyfract(1), direction_box=2)
    with pytest.raises(ValueError):
        fdeg_general(Polyfract(1, {(1,): 1}), direction_box=0)
    with pytest.raises(ValueError):
        fdeg_general(Polyfract(1, {(1,): 1}), direction_box=2, max_extra=0)


def test_witnesses_are_replayable():
    rng = random.Random(2203)
    for _ in range(25):
        dimension = rng.randint(1, 2)
        poly = nonzero_polyfract(rng, dimension, max_count=4)
        report = fdeg_general(poly, direction_box=2, max_extra=200)
        reduced = poly
        for a in report.witness_word:
            reduced = reduced.delta_direction(a)
        assert reduced
        assert report.fdeg_general_lower == poly.count() == report.fdeg_standard


def test_sampling_kicks_in_beyond_the_budget():
    poly = Polyfract(2, {(2, 2): 1})
    report = fdeg_general(poly, direction_box=2, max_extra=100)
    assert not report.exhaustive
    assert report.words_refuted == 100


def _assert_refutation_matches_replay(poly, words):
    survivor = first_surviving_word(poly, words)
    if survivor is None:
        _refute(poly, words)
    else:
        with pytest.raises(RuntimeError, match=re.escape(f"word {survivor} of length")):
            _refute(poly, words)


def test_trie_refutation_matches_word_replay():
    rng = random.Random(4242)
    kinds = set()
    for _ in range(40):
        dimension = rng.randint(1, 3)
        poly = nonzero_polyfract(rng, dimension, max_count=3)
        box = rng.randint(1, 2)
        letters = _box_letters(dimension, box)
        degree = int(poly.count())
        max_extra = rng.choice((20, 300))
        refuted, exhaustive = _refutation_words(letters, degree + 1, max_extra)
        kinds.add(exhaustive)
        _assert_refutation_matches_replay(poly, refuted)
        # Words one letter short hold the witness or may miss it when
        # sampled; mixed in, they put survivors at random places.
        short, _ = _refutation_words(letters, degree, max_extra)
        _assert_refutation_matches_replay(poly, short)
        mixed = refuted + short
        rng.shuffle(mixed)
        _assert_refutation_matches_replay(poly, mixed)

        report = fdeg_general(poly, direction_box=box, max_extra=max_extra)
        multisets = math.comb(len(letters) + degree, degree + 1)
        assert report.exhaustive == exhaustive == (multisets <= max_extra)
        assert report.words_refuted == min(multisets, max_extra)
    assert kinds == {True, False}


def test_words_of_the_degree_length_do_not_all_annihilate():
    poly = Polyfract(2, {(1, 1): 1, (1, 0): 3})
    words, exhaustive = _refutation_words(_box_letters(2, 1), 2, max_extra=500)
    assert exhaustive
    with pytest.raises(RuntimeError, match=r"word \(\(-1, -1\), \(-1, -1\)\) of length 2"):
        _refute(poly, words)


def test_witness_search_is_deterministic():
    poly = Polyfract(2, {(1, 1): 1})
    first = fdeg_general(poly, direction_box=2)
    second = fdeg_general(poly, direction_box=2)
    assert first == second
    assert first.witness_word == ((-2, -2), (-2, -2))


def test_report_serialization_layout():
    record = fdeg_general(Polyfract(1, {(2,): 1}), direction_box=1).to_record()
    assert set(record) == {"fdeg", "witness", "refuted_length", "exhaustive"}
    assert record["fdeg"] == 2
    assert record["refuted_length"] == 3
    assert all(isinstance(a, list) for a in record["witness"])


def test_leading_term_carries_the_degree():
    assert leading_term_check(Polyfract(2, {(1, 1): 1, (1, 0): 9}))
    # a top-norm tie: both terms must agree
    assert leading_term_check(Polyfract(2, {(2, 0): 1, (0, 2): -5}))


def test_leading_term_check_on_random_inputs():
    rng = random.Random(717)
    for _ in range(60):
        dimension = rng.randint(1, 3)
        poly = nonzero_polyfract(rng, dimension, max_count=4)
        assert leading_term_check(poly)


def test_leading_term_check_rejects_zero():
    with pytest.raises(ValueError):
        leading_term_check(Polyfract(2))


def test_compositions_match_the_filtered_box():
    for norm in range(7):
        for parts in (1, 2, 3):
            assert list(_compositions(norm, parts)) == compositions_by_filter(norm, parts)
