import itertools
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
from deltacalc import polyfract
from deltacalc.fdeg import _box_letters, _compositions, _refute
from support import (
    compositions_by_filter,
    first_surviving_multiset,
    first_surviving_word,
    nonzero_polyfract,
    random_polyfract,
    refutation_words,
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
    report = fdeg_general(poly, direction_box=2, max_extra=20)
    assert not report.exhaustive
    assert report.words_refuted == 20


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
        refuted, exhaustive = refutation_words(letters, degree + 1, max_extra)
        kinds.add(exhaustive)
        _assert_refutation_matches_replay(poly, refuted)
        # Words one letter short hold the witness or may miss it when
        # sampled; mixed in, they put survivors at random places.
        short, _ = refutation_words(letters, degree, max_extra)
        _assert_refutation_matches_replay(poly, short)
        mixed = refuted + short
        rng.shuffle(mixed)
        _assert_refutation_matches_replay(poly, mixed)

        report = fdeg_general(poly, direction_box=box, max_extra=max_extra)
        multisets = math.comb(len(letters) + degree, degree + 1)
        assert exhaustive == (multisets <= max_extra)
        assert report.exhaustive == (len(letters) <= max_extra)
        assert report.words_refuted == (multisets if report.exhaustive else max_extra)
    assert kinds == {True, False}


def test_certified_reports_agree_with_multiset_replay():
    # Every (dimension, box, count) with at most 25,000 multisets at the
    # refuted length; only dimension 3 at box 2 and counts 2-3 has more
    # (325,500 and 10,586,800 words to replay).
    rng = random.Random(5150)
    covered = 0
    for dimension, box, count in itertools.product((1, 2, 3), (1, 2), range(4)):
        letters = _box_letters(dimension, box)
        multisets = math.comb(len(letters) + count, count + 1)
        if multisets > 25_000:
            continue
        while True:
            poly = nonzero_polyfract(rng, dimension, max_count=count)
            if poly.count() == count:
                break
        report = fdeg_general(poly, direction_box=box, max_extra=len(letters))
        assert report.exhaustive
        assert report.words_refuted == multisets
        assert first_surviving_multiset(poly, letters, count + 1) is None
        covered += 1
    assert covered == 22


def test_certificate_checks_every_letter_on_the_closed_support():
    report = fdeg_general(Polyfract(2, {(1, 1): 1}), direction_box=2)
    # 24 letters times the closure {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert report.certificate_checks == 96
    assert report.words_refuted == math.comb(26, 3)
    sampled = fdeg_general(Polyfract(2, {(1, 1): 1}), direction_box=2, max_extra=23)
    assert sampled.certificate_checks == 0
    assert not sampled.exhaustive


def test_a_faulty_difference_row_fails_the_certificate(monkeypatch):
    rows = polyfract._shifted_basis
    faults = {
        # keeps its j = 0 term, so the difference is the shift and keeps the
        # count; (2, 2) is the last letter of the box
        ((1, 0), (2, 2)): ((1, 0), 1),
        # lowers the count but leaves the closure {(0, 0), (1, 0), (2, 0)}
        ((2, 0), (-1, 1)): ((0, 1), 1),
    }
    poly = Polyfract(2, {(2, 0): 3, (1, 0): 1})
    for bad, (target, weight) in faults.items():

        def faulty(n, a, bad=bad, target=target, weight=weight):
            targets, weights = rows(n, a)
            if (n, a) == bad:
                return targets + (target,), weights + (weight,)
            return targets, weights

        monkeypatch.setattr(polyfract, "_shifted_basis", faulty)
        n, a = bad
        message = re.escape(f"the difference along {a} of C(x, {n}) does not lower")
        with pytest.raises(RuntimeError, match=message):
            fdeg_general(poly, direction_box=2)
    monkeypatch.undo()
    assert fdeg_general(poly, direction_box=2).exhaustive


def test_words_of_the_degree_length_do_not_all_annihilate():
    poly = Polyfract(2, {(1, 1): 1, (1, 0): 3})
    words, exhaustive = refutation_words(_box_letters(2, 1), 2, max_extra=500)
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
