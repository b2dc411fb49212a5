import itertools
import random

import pytest

from deltacalc import (
    IntegerFunction,
    Polyfract,
    UnknownIdentityError,
    alt_sum_multivariate,
    alt_sum_univariate,
    apply,
    available_identities,
    delta,
    verify_identity,
)
from deltacalc.identities import random_point
from support import alt_sum_multivariate_by_rows


def test_order_zero_sum_is_the_value_itself():
    f = IntegerFunction.from_polyfract(Polyfract(1, {(2,): 3}))
    assert alt_sum_univariate(f, (1,), 0, (5,)) == f((5,))


def test_third_difference_of_cubic_binomial():
    f = IntegerFunction.from_polyfract(Polyfract(1, {(3,): 1}))
    assert alt_sum_univariate(f, (1,), 3, (0,)) == 1


def test_univariate_sum_matches_the_operator():
    rng = random.Random(5050)
    for _ in range(40):
        dimension = rng.randint(1, 2)
        a = random_point(rng, dimension, 3)
        n = rng.randint(0, 4)
        x = random_point(rng, dimension, 2)
        f = IntegerFunction.from_polyfract(
            Polyfract(dimension, {tuple(rng.randint(0, 2) for _ in range(dimension)): rng.randint(1, 5)})
        )
        assert alt_sum_univariate(f, a, n, x) == apply(delta(a) ** n, f, x)


def test_univariate_sum_rejects_negative_order():
    f = IntegerFunction.from_polyfract(Polyfract(1, {(1,): 1}))
    with pytest.raises(ValueError):
        alt_sum_univariate(f, (1,), -1, (0,))


def test_weighted_multivariate_sum_frozen_example():
    assert alt_sum_multivariate((3,), (2,), (1,)) == (1, 1)


def test_unweighted_variant_fails_on_the_documented_counterexample():
    lhs, rhs = alt_sum_multivariate((3,), (2,), (2,), corrected=False)
    assert (lhs, rhs) == (3, 2)
    corrected_lhs, corrected_rhs = alt_sum_multivariate((3,), (2,), (2,))
    assert corrected_lhs == corrected_rhs == 2


def test_weighted_sum_matches_the_basis_action():
    rng = random.Random(622)
    for _ in range(120):
        dimension = rng.randint(1, 3)
        m = tuple(rng.randint(0, 4) for _ in range(dimension))
        n = tuple(rng.randint(0, ml) for ml in m)
        x = random_point(rng, dimension, 4)
        lhs, rhs = alt_sum_multivariate(m, n, x)
        assert lhs == rhs == Polyfract(dimension, {m: 1}).delta_standard(n).eval(x)


def test_multivariate_sum_validates_inputs():
    with pytest.raises(ValueError):
        alt_sum_multivariate((1, 2), (1,), (0, 0))
    with pytest.raises(ValueError):
        alt_sum_multivariate((1,), (-1,), (0,))


def test_registry_covers_the_documented_identities():
    names = {name for name, _ in available_identities()}
    assert {
        "ring_laws",
        "thm_3_1_a",
        "thm_3_1_b",
        "thm_3_1_c",
        "thm_3_1_f",
        "thm_3_2",
        "thm_3_4",
        "thm_4_1",
        "thm_4_2",
        "thm_5_1",
        "thm_5_1_printed",
        "thm_6_4",
        "thm_6_5",
        "thm_6_7",
        "thm_6_8",
        "thm_6_9",
        "thm_7_1",
        "thm_7_2",
        "thm_7_3",
        "thm_7_3_uncorrected",
    } <= names


def test_unknown_identity_is_rejected():
    with pytest.raises(UnknownIdentityError):
        verify_identity("thm_0_0", 10, 1)


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        verify_identity("ring_laws", 0, 1)


def test_reports_are_deterministic_for_a_seed():
    first = verify_identity("thm_4_2", 30, 99)
    second = verify_identity("thm_4_2", 30, 99)
    assert first == second
    assert first.to_json() == second.to_json()


def test_passing_report_shape():
    report = verify_identity("thm_3_1_c", 50, 7)
    assert report.verdict == "pass"
    assert report.failures == ()
    assert report.instances_checked == 50
    record = report.to_record()
    assert set(record) == {"id", "trials", "failures", "verdict", "notes"}


def test_trimmed_prefactor_suite_fails_as_documented():
    report = verify_identity("thm_5_1_printed", 1, 0)
    assert report.verdict == "fail"
    assert report.instances_checked == 1
    failure = report.failures[0]
    assert failure["lhs"] == "2"
    assert failure["rhs"] == "1"
    assert failure["inputs"]["multipliers"] == [2]


def test_unweighted_sum_suite_fails_with_the_counterexample_first():
    report = verify_identity("thm_7_3_uncorrected", 50, 3)
    assert report.verdict == "fail"
    first = report.failures[0]
    assert first["inputs"] == {"m": [3], "n": [2], "x": [2]}
    assert first["lhs"] == "3"
    assert first["rhs"] == "2"


def test_exhaustive_suites_ignore_the_trial_count():
    assert verify_identity("thm_7_1", 5, 0).instances_checked == 121
    assert verify_identity("thm_5_1", 5, 0).instances_checked == 340


def test_all_registered_suites_run_clean_except_the_documented_failures():
    expected_failures = {"thm_5_1_printed", "thm_7_3_uncorrected"}
    for name, _ in available_identities():
        report = verify_identity(name, 20, 11)
        if name in expected_failures:
            assert report.verdict == "fail", name
            assert report.failures, name
        else:
            assert report.verdict == "pass", name
            assert not report.failures, name


def test_alt_sum_rows_match_the_per_call_route():
    # The criterion-10 grid in dimensions 1 and 2, both weightings.
    axis_pairs = [(m, n) for m in range(5) for n in range(m + 1)]
    for dimension in (1, 2):
        for pairs in itertools.product(axis_pairs, repeat=dimension):
            m = tuple(pair[0] for pair in pairs)
            n = tuple(pair[1] for pair in pairs)
            for x in itertools.product(range(-4, 5), repeat=dimension):
                for corrected in (True, False):
                    assert alt_sum_multivariate(m, n, x, corrected) == (
                        alt_sum_multivariate_by_rows(m, n, x, corrected)
                    )
