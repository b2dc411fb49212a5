import dataclasses
import hashlib
import itertools
import random
from types import SimpleNamespace

import pytest

from deltacalc import (
    GroupRingElement,
    IntegerFunction,
    Polyfract,
    UnknownIdentityError,
    alt_sum_multivariate,
    alt_sum_univariate,
    apply,
    available_identities,
    delta,
    identities,
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


def test_every_suite_report_is_pinned():
    # The JSON of all 20 reports at seeds 0 and 7 and trials 1 and 5, in
    # registry order: any change to an instance count, a verdict or a
    # failure record moves this digest.  A passing report records no
    # inputs, so its seeded stream is pinned by the fault test below.
    digest = hashlib.sha256()
    for seed in (0, 7):
        for trials in (1, 5):
            for name, _ in available_identities():
                digest.update(verify_identity(name, trials, seed).to_json().encode())
    assert digest.hexdigest() == "892e4a13246d1dfe44dcdffe85ea00917bf6e59553d01341617d3b7bd880a869"


def test_injected_faults_are_recorded_per_instance(monkeypatch):
    def plus_one(poly):
        return poly + Polyfract(poly.dimension, {(0,) * poly.dimension: 1})

    # Ring equality fails every ring_laws, thm_3_* and thm_4_* comparison;
    # the grouped expansion also breaks its norms, where thm_4_1 stops.
    monkeypatch.setattr(GroupRingElement, "__eq__", lambda self, other: False)
    monkeypatch.setattr(
        identities,
        "expand_word_grouped",
        lambda word: SimpleNamespace(terms={(len(word) + 1,) + (0,) * (len(word[0]) - 1): 1}),
    )
    # Every point of thm_6_4 is wrong, and it stops at the first.
    delta_standard = Polyfract.delta_standard
    monkeypatch.setattr(Polyfract, "delta_standard", lambda self, m: plus_one(delta_standard(self, m)))
    from_samples = identities.from_samples
    monkeypatch.setattr(identities, "from_samples", lambda f, count: plus_one(from_samples(f, count)))
    monkeypatch.setattr(identities, "leading_term_check", lambda poly: False)
    monkeypatch.setattr(identities, "fdeg_standard_by_search", lambda poly: -1)
    fdeg_general = identities.fdeg_general
    monkeypatch.setattr(
        identities,
        "fdeg_general",
        lambda poly, **kw: dataclasses.replace(fdeg_general(poly, **kw), fdeg_general_lower=-1),
    )
    monkeypatch.setattr(identities, "alt_sum_univariate", lambda *args: None)
    monkeypatch.setattr(identities, "alt_sum_multivariate", lambda *args, **kwargs: (-1, -2))

    own_loops = {"thm_5_1", "thm_5_1_printed", "thm_7_1", "thm_7_3_uncorrected"}
    digest = hashlib.sha256()
    for name, _ in available_identities():
        if name in own_loops:
            continue
        report = verify_identity(name, 5, 3)
        digest.update(report.to_json().encode())
        assert report.failures, name
        assert all(next(iter(f["inputs"])) == "instance" for f in report.failures), name
        indices = [f["inputs"]["instance"] for f in report.failures]
        assert indices == sorted(indices) and set(indices) <= set(range(5)), name
        if name in ("thm_4_1", "thm_6_4"):
            assert len(set(indices)) == len(indices), name
    # Every instance records its inputs here, so unlike the passing
    # reports this digest moves with any seeded stream.
    assert digest.hexdigest() == "c2aa63dec38ce1cdaa23f0a5e0038e830e6aa313eed650e6db422b875680cd31"
