"""Machine verification of the operator and binomial-basis identities.

Each registered suite draws deterministic pseudo-random instances from
a caller-supplied seed, computes both sides of one identity along
independent routes, and records every exact mismatch together with the
inputs that produced it.  Two suites are intentionally failing: the
ids ending in ``_printed`` and ``_uncorrected`` pin down formula
variants that do not hold, each with at least one concrete
counterexample, so the need for the corrected forms stays visible.

Sixteen suites are per-instance checks run by ``_per_instance``: for each
trial it draws the dimension from 1..3 as the instance's first random
call, and records every ``(inputs, lhs, rhs)`` the check yields with
the instance index as the first input.  ``thm_5_1`` and ``thm_7_1``
enumerate their instances, and ``thm_5_1_printed`` and
``thm_7_3_uncorrected`` start from a pinned counterexample; none of
the four tags instances, so they keep their own loops.

Reports serialize deterministically: the same identity, trials and
seed always produce byte-identical JSON.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

from .expansion import cyclic_factor, expand_word_grouped, expand_word_sequence
from .fdeg import fdeg_general, fdeg_standard_by_search, leading_term_check
from .group_ring import (
    GroupRingElement,
    IntegerFunction,
    LatticePoint,
    apply,
    delta,
    identity,
    shift,
    word_operator,
    zero,
)
from .polyfract import MonomialPolynomial, Polyfract, binom, from_samples


class UnknownIdentityError(ValueError):
    """The requested identity id is not in the registry."""


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one identity suite run."""

    identity_id: str
    instances_checked: int
    failures: tuple[dict, ...]
    verdict: str
    notes: str

    def to_record(self) -> dict:
        return {
            "id": self.identity_id,
            "trials": self.instances_checked,
            "failures": [dict(f) for f in self.failures],
            "verdict": self.verdict,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_record(), indent=2, sort_keys=True)


def alt_sum_univariate(
    func: Callable[[LatticePoint], int], a: Iterable[int], n: int, x: Iterable[int]
) -> int:
    """The alternating sum over i of (-1)^i C(n, i) func(x + (n - i) a),
    the n-fold difference of func along a, evaluated at x."""
    if n < 0:
        raise ValueError(f"the difference order must be nonnegative, got {n}")
    a, x = tuple(a), tuple(x)
    total = 0
    for i in range(n + 1):
        point = tuple(xl + (n - i) * al for xl, al in zip(x, a))
        total += (-1) ** i * binom(n, i) * func(point)
    return total


def alt_sum_multivariate(
    m: Iterable[int], n: Iterable[int], x: Iterable[int], corrected: bool = True
) -> tuple[int, int]:
    """Both sides of the mixed difference of the basis product C(x_1, m_1)
    ... C(x_N, m_N), taken n_l times along each axis, at the point x.

    The left side is the alternating sum over all tuples p <= n; with
    ``corrected`` each summand carries the weight C(n_1, p_1)...C(n_N, p_N),
    without it the weights are all 1 (that variant is wrong as soon as
    some n_l exceeds 1).  The right side is C(x_1, m_1 - n_1)...
    C(x_N, m_N - n_N), zero whenever some n_l > m_l.

    Each axis's row of signed summands is memoised; the left side is
    still summed over every tuple p <= n, one product per tuple.
    """
    m, n, x = tuple(m), tuple(n), tuple(x)
    if not len(m) == len(n) == len(x):
        raise ValueError(f"m, n and x must share a dimension, got {m}, {n}, {x}")
    if any(v < 0 for v in m) or any(v < 0 for v in n):
        raise ValueError(f"m and n must be nonnegative, got {m} and {n}")
    per_axis = [_alt_sum_row(ml, nl, xl, corrected) for ml, nl, xl in zip(m, n, x)]
    lhs = sum(map(math.prod, itertools.product(*per_axis)))
    rhs = math.prod(binom(xl, ml - nl) for xl, ml, nl in zip(x, m, n))
    return lhs, rhs


# m_l <= 4 and |x_l| <= 4, the ranges of the suites and of the
# acceptance grid, make 135 distinct rows per weighting; the bound
# leaves room for callers that draw from wider ranges.
@lru_cache(maxsize=1024)
def _alt_sum_row(ml: int, nl: int, xl: int, corrected: bool) -> tuple[int, ...]:
    # One axis of the left side: the signed, optionally weighted values
    # C(x_l + n_l - p, m_l) for p = 0 .. n_l.
    return tuple(
        (-1) ** p * (binom(nl, p) if corrected else 1) * binom(xl + nl - p, ml)
        for p in range(nl + 1)
    )


def _mismatch(inputs: dict, lhs, rhs) -> dict:
    return {"inputs": inputs, "lhs": str(lhs), "rhs": str(rhs)}


def random_point(rng: random.Random, dimension: int, bound: int) -> LatticePoint:
    return tuple(rng.randint(-bound, bound) for _ in range(dimension))


def _random_nonzero_point(rng: random.Random, dimension: int, bound: int) -> LatticePoint:
    while True:
        point = random_point(rng, dimension, bound)
        if any(point):
            return point


def random_element(
    rng: random.Random,
    dimension: int,
    max_terms: int = 6,
    coord_bound: int = 4,
    coeff_bound: int = 9,
) -> GroupRingElement:
    pairs = [
        (random_point(rng, dimension, coord_bound), rng.randint(-coeff_bound, coeff_bound))
        for _ in range(rng.randint(0, max_terms))
    ]
    return GroupRingElement(dimension, pairs)

def _random_term(
    rng: random.Random, dimension: int, coord_bound: int = 4, coeff_bound: int = 9
) -> GroupRingElement:
    coeff = _nonzero_coeff(rng, coeff_bound)
    return GroupRingElement(dimension, {random_point(rng, dimension, coord_bound): coeff})


def _random_word(
    rng: random.Random, dimension: int, max_length: int = 3, coord_bound: int = 3
) -> tuple[LatticePoint, ...]:
    return tuple(
        random_point(rng, dimension, coord_bound)
        for _ in range(rng.randint(1, max_length))
    )


def _nonzero_coeff(rng: random.Random, bound: int = 9) -> int:
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def _exact_norm_tuple(rng: random.Random, dimension: int, norm: int) -> tuple[int, ...]:
    while True:
        n = tuple(rng.randint(0, norm) for _ in range(dimension))
        if sum(n) == norm:
            return n


def _random_polyfract(
    rng: random.Random,
    dimension: int,
    max_count: int = 5,
    max_terms: int = 5,
    force_tie: bool = False,
) -> Polyfract:
    """A nonzero polyfract with count <= max_count; with ``force_tie`` at
    least two distinct terms sit at the top norm."""
    while True:
        degree = rng.randint(0, max_count)
        pairs = [(_exact_norm_tuple(rng, dimension, degree), _nonzero_coeff(rng))]
        if force_tie and degree > 0:
            pairs.append((_exact_norm_tuple(rng, dimension, degree), _nonzero_coeff(rng)))
        for _ in range(rng.randint(0, max_terms - len(pairs))):
            while True:
                n = tuple(rng.randint(0, degree) for _ in range(dimension))
                if sum(n) <= degree:
                    break
            pairs.append((n, _nonzero_coeff(rng)))
        poly = Polyfract(dimension, pairs)
        if poly and poly.count() == degree:
            return poly


def unit_step(dimension: int, k: int) -> LatticePoint:
    point = [0] * dimension
    point[k - 1] = 1
    return tuple(point)


def standard_word_element(dimension: int, q: Iterable[int]) -> GroupRingElement:
    """delta(e_1)^q_1 * ... * delta(e_N)^q_N as a ring element."""
    out = identity(dimension)
    for axis, mult in enumerate(q):
        out = out * delta(unit_step(dimension, axis + 1)) ** mult
    return out


def _per_instance(check: Callable) -> Callable:
    """The suite that runs ``check(rng, dimension)`` once per trial."""

    def run(rng: random.Random, trials: int):
        failures = []
        for index in range(trials):
            dimension = rng.randint(1, 3)
            for inputs, lhs, rhs in check(rng, dimension):
                failures.append(_mismatch({"instance": index, **inputs}, lhs, rhs))
        return trials, failures

    return run


@_per_instance
def _check_ring_laws(rng: random.Random, dimension: int):
    t = random_element(rng, dimension)
    u = random_element(rng, dimension)
    v = random_element(rng, dimension)
    cases = [
        ("t*u == u*t", t * u, u * t),
        ("(t*u)*v == t*(u*v)", (t * u) * v, t * (u * v)),
        ("t*(u+v) == t*u + t*v", t * (u + v), t * u + t * v),
    ]
    for law, lhs, rhs in cases:
        if lhs != rhs:
            yield {"law": law, "t": str(t), "u": str(u), "v": str(v)}, lhs, rhs


@_per_instance
def _check_negated_step(rng: random.Random, dimension: int):
    s = _random_nonzero_point(rng, dimension, 4)
    minus = tuple(-c for c in s)
    lhs = delta(minus)
    rhs = -1 * (shift(minus) * delta(s))
    if lhs != rhs:
        yield {"s": list(s)}, lhs, rhs


@_per_instance
def _check_step_splitting(rng: random.Random, dimension: int):
    s1 = random_point(rng, dimension, 4)
    s2 = random_point(rng, dimension, 4)
    lhs = delta(tuple(a + b for a, b in zip(s1, s2)))
    rhs = shift(s1) * delta(s2) + delta(s1)
    if lhs != rhs:
        yield {"s1": list(s1), "s2": list(s2)}, lhs, rhs


@_per_instance
def _check_shift_power(rng: random.Random, dimension: int):
    s = random_point(rng, dimension, 4)
    k = rng.randint(0, 6)
    lhs = shift(s) ** k
    rhs = shift(tuple(k * c for c in s))
    if lhs != rhs:
        yield {"s": list(s), "k": k}, lhs, rhs


@_per_instance
def _check_shift_additivity(rng: random.Random, dimension: int):
    a = random_point(rng, dimension, 4)
    b = random_point(rng, dimension, 4)
    lhs = shift(a) * shift(b)
    rhs = shift(tuple(ai + bi for ai, bi in zip(a, b)))
    if lhs != rhs:
        yield {"a": list(a), "b": list(b)}, lhs, rhs


@_per_instance
def _check_commutation(rng: random.Random, dimension: int):
    a = random_point(rng, dimension, 4)
    b = random_point(rng, dimension, 4)
    cases = [
        ("[a][b] == [b][a]", shift(a) * shift(b), shift(b) * shift(a)),
        ("d(a)d(b) == d(b)d(a)", delta(a) * delta(b), delta(b) * delta(a)),
        ("[a]d(b) == d(b)[a]", shift(a) * delta(b), delta(b) * shift(a)),
    ]
    for law, lhs, rhs in cases:
        if lhs != rhs:
            yield {"law": law, "a": list(a), "b": list(b)}, lhs, rhs


@_per_instance
def _check_product_expansion(rng: random.Random, dimension: int):
    factors = [
        [_random_term(rng, dimension) for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(1, 4))
    ]
    lhs = math.prod((sum(terms, zero(dimension)) for terms in factors), start=identity(dimension))
    rhs = sum(
        (math.prod(combo, start=identity(dimension)) for combo in itertools.product(*factors)),
        zero(dimension),
    )
    if lhs != rhs:
        yield {"factors": [[str(t) for t in terms] for terms in factors]}, lhs, rhs


@_per_instance
def _check_sequence_expansion(rng: random.Random, dimension: int):
    word = _random_word(rng, dimension)
    lhs = word_operator(word)
    rhs = zero(dimension)
    for indices, coeff in expand_word_sequence(word).items():
        rhs = rhs + coeff * standard_word_element(
            dimension, [indices.count(m) for m in range(1, dimension + 1)]
        )
    if lhs != rhs:
        yield {"word": [list(a) for a in word]}, lhs, rhs


@_per_instance
def _check_grouped_expansion(rng: random.Random, dimension: int):
    word = _random_word(rng, dimension)
    grouped = expand_word_grouped(word)
    inputs = {"word": [list(a) for a in word]}
    bad_norm = [q for q in grouped.terms if sum(q) != len(word)]
    if bad_norm:
        yield inputs, f"multiplicity norms {sorted(bad_norm)}", len(word)
        return
    lhs = word_operator(word)
    rhs = zero(dimension)
    for q, coeff in grouped.terms.items():
        rhs = rhs + coeff * standard_word_element(dimension, q)
    if lhs != rhs:
        yield inputs, lhs, rhs


def _check_cyclic_factorization(rng: random.Random, trials: int):
    # Exhaustive over word lengths up to 4 and multipliers up to 4; the
    # direction is drawn per instance, zero included.
    failures = []
    checked = 0
    for length in range(1, 5):
        for multipliers in itertools.product(range(1, 5), repeat=length):
            dimension = rng.randint(1, 3)
            s = random_point(rng, dimension, 2)
            checked += 1
            word = tuple(tuple(r * c for c in s) for r in multipliers)
            lhs = word_operator(word)
            rhs = cyclic_factor(multipliers, s) * delta(s) ** length
            if lhs != rhs:
                inputs = {"multipliers": list(multipliers), "s": list(s)}
                failures.append(_mismatch(inputs, lhs, rhs))
    return checked, failures


def _check_cyclic_factorization_printed(rng: random.Random, trials: int):
    # Starting the prefactor runs at p = 1 drops the identity shift.
    # One concrete counterexample: multipliers (2,), direction (1,),
    # f(x) = x at x = 0 gives 2 on the left and 1 on the right.
    multipliers, s = (2,), (1,)
    word = tuple(tuple(r * c for c in s) for r in multipliers)
    trimmed = identity(1)
    for r in multipliers:
        trimmed = trimmed * GroupRingElement(1, [((p,), 1) for p in range(1, r)])
    lhs_element = word_operator(word)
    rhs_element = trimmed * delta(s) ** len(multipliers)
    f = IntegerFunction.from_monomial(MonomialPolynomial(1, {(1,): 1}))
    lhs = apply(lhs_element, f, (0,))
    rhs = apply(rhs_element, f, (0,))
    failures = []
    if lhs != rhs or lhs_element != rhs_element:
        inputs = {
            "multipliers": list(multipliers),
            "s": list(s),
            "f": "x1",
            "x": [0],
            "lhs_operator": str(lhs_element),
            "rhs_operator": str(rhs_element),
        }
        failures.append(_mismatch(inputs, lhs, rhs))
    return 1, failures


@_per_instance
def _check_basis_differentiation(rng: random.Random, dimension: int):
    exp_cap, mult_cap = (5, 5) if dimension < 3 else (4, 2)
    n = tuple(rng.randint(0, exp_cap) for _ in range(dimension))
    poly = Polyfract(dimension, {n: _nonzero_coeff(rng)})
    m = tuple(rng.randint(0, mult_cap) for _ in range(dimension))
    expected = poly.delta_standard(m)
    operator = standard_word_element(dimension, m)
    func = IntegerFunction.from_polyfract(poly)
    for x in itertools.product(range(-6, 7), repeat=dimension):
        got = apply(operator, func, x)
        want = expected.eval(x)
        if got != want:
            yield {"polyfract": str(poly), "m": list(m), "x": list(x)}, got, want
            return


@_per_instance
def _check_reconstruction(rng: random.Random, dimension: int):
    poly = _random_polyfract(rng, dimension)
    rebuilt = from_samples(IntegerFunction.from_polyfract(poly), poly.count())
    if rebuilt != poly:
        yield {"polyfract": str(poly)}, rebuilt, poly


@_per_instance
def _check_leading_term(rng: random.Random, dimension: int):
    poly = _random_polyfract(rng, dimension, force_tie=rng.random() < 0.5)
    if not leading_term_check(poly):
        yield {"polyfract": str(poly)}, "per-term degree differs", poly.count()


@_per_instance
def _check_degree_equals_count(rng: random.Random, dimension: int):
    poly = _random_polyfract(rng, dimension)
    searched = fdeg_standard_by_search(poly)
    if searched != poly.count():
        yield {"polyfract": str(poly)}, searched, poly.count()


@_per_instance
def _check_arbitrary_directions(rng: random.Random, dimension: int):
    poly = _random_polyfract(rng, dimension)
    report = fdeg_general(poly, direction_box=2, max_extra=500)
    reduced = poly
    for a in report.witness_word:
        reduced = reduced.delta_direction(a)
    ok = (
        bool(reduced)
        and report.fdeg_general_lower == poly.count()
        and report.fdeg_standard == poly.count()
        and report.annihilation_checked_to == poly.count() + 1
    )
    if not ok:
        witness = [list(a) for a in report.witness_word]
        yield {"polyfract": str(poly), "witness": witness}, report.fdeg_general_lower, poly.count()


def _check_upper_negation(rng: random.Random, trials: int):
    # Exhaustive over 0 <= n, k <= 10; the right side comes from
    # math.comb, outside this package.
    instances = list(itertools.product(range(11), repeat=2))
    failures = []
    for n, k in instances:
        lhs = binom(-n, k)
        rhs = 1 if k == 0 else (-1) ** k * math.comb(n + k - 1, k)
        if lhs != rhs:
            failures.append(_mismatch({"n": n, "k": k}, lhs, rhs))
    return len(instances), failures


@_per_instance
def _check_alternating_sum(rng: random.Random, dimension: int):
    step_bound, max_order = (3, 5) if dimension < 3 else (2, 3)
    a = random_point(rng, dimension, step_bound)
    n = rng.randint(0, max_order)
    x = random_point(rng, dimension, 2)
    touched = [xl for xl in x] + [xl + n * al for xl, al in zip(x, a)]
    lo, hi = min(touched) - 4, max(touched) + 4
    table = {
        p: rng.randint(-9, 9)
        for p in itertools.product(range(lo, hi + 1), repeat=dimension)
    }
    func = IntegerFunction.from_table(table, dimension, lo, hi)
    direct = alt_sum_univariate(func, a, n, x)
    operator = apply(delta(a) ** n, func, x)
    symmetric = sum(
        (-1) ** (n - i) * binom(n, i) * func(tuple(xl + i * al for xl, al in zip(x, a)))
        for i in range(n + 1)
    )
    if not direct == operator == symmetric:
        yield {"a": list(a), "n": n, "x": list(x)}, direct, (operator, symmetric)


@_per_instance
def _check_alternating_sum_multi(rng: random.Random, dimension: int):
    m = tuple(rng.randint(0, 4) for _ in range(dimension))
    n = tuple(rng.randint(0, ml) for ml in m)
    x = random_point(rng, dimension, 4)
    lhs, rhs = alt_sum_multivariate(m, n, x, corrected=True)
    direct = Polyfract(dimension, {m: 1}).delta_standard(n).eval(x)
    if not lhs == rhs == direct:
        yield {"m": list(m), "n": list(n), "x": list(x)}, lhs, (rhs, direct)


def _check_alternating_sum_multi_unweighted(rng: random.Random, trials: int):
    # First instance is the documented counterexample m=3, n=2, x=2 in
    # one variable: the unweighted sum gives 3 where C(2, 1) = 2.
    instances = [((3,), (2,), (2,))]
    for _ in range(max(trials - 1, 0)):
        dimension = rng.randint(1, 3)
        m = tuple(rng.randint(3, 4) for _ in range(dimension))
        n = tuple(rng.randint(2, ml - 1) for ml in m)
        x = random_point(rng, dimension, 4)
        instances.append((m, n, x))
    failures = []
    for m, n, x in instances:
        lhs, rhs = alt_sum_multivariate(m, n, x, corrected=False)
        if lhs != rhs:
            failures.append(_mismatch({"m": list(m), "n": list(n), "x": list(x)}, lhs, rhs))
    return len(instances), failures


_SUITES: dict[str, tuple[Callable, str]] = {
    "ring_laws": (
        _check_ring_laws,
        "shift-combination products are commutative, associative and distribute over sums",
    ),
    "thm_3_1_a": (
        _check_negated_step,
        "the difference along a negated step is minus the step-shifted difference",
    ),
    "thm_3_1_b": (
        _check_step_splitting,
        "the difference along a sum of steps is a shifted difference plus a difference",
    ),
    "thm_3_1_c": (
        _check_shift_power,
        "iterating a shift equals the single shift along the scaled step",
    ),
    "thm_3_1_f": (
        _check_shift_additivity,
        "composing two shifts equals the shift along the summed steps",
    ),
    "thm_3_2": (
        _check_commutation,
        "shifts and differences commute in every combination",
    ),
    "thm_3_4": (
        _check_product_expansion,
        "a product of term sums equals the sum of term products over all index tuples",
    ),
    "thm_4_1": (
        _check_grouped_expansion,
        "grouped standard-direction expansion reproduces the word operator",
    ),
    "thm_4_2": (
        _check_sequence_expansion,
        "per-index-tuple standard-direction expansion reproduces the word operator",
    ),
    "thm_5_1": (
        _check_cyclic_factorization,
        "words along one line factor into a shift prefactor times a difference power",
    ),
    "thm_5_1_printed": (
        _check_cyclic_factorization_printed,
        "line factorization with prefactor runs starting at 1; fails by design",
    ),
    "thm_6_4": (
        _check_basis_differentiation,
        "standard differences shift binomial-basis exponents down",
    ),
    "thm_6_5": (
        _check_reconstruction,
        "a polynomial is rebuilt exactly from difference samples at the origin",
    ),
    "thm_6_7": (
        _check_leading_term,
        "each maximal-norm term alone carries the searched functional degree",
    ),
    "thm_6_8": (
        _check_degree_equals_count,
        "the searched functional degree equals the basis degree",
    ),
    "thm_6_9": (
        _check_arbitrary_directions,
        "arbitrary-direction words witness the standard degree and never beat it",
    ),
    "thm_7_1": (
        _check_upper_negation,
        "negating the upper index of a binomial flips the sign per row and reindexes",
    ),
    "thm_7_2": (
        _check_alternating_sum,
        "an iterated difference is the alternating binomial sum of shifted values",
    ),
    "thm_7_3": (
        _check_alternating_sum_multi,
        "the weighted multivariate alternating sum equals the exponent-shifted product",
    ),
    "thm_7_3_uncorrected": (
        _check_alternating_sum_multi_unweighted,
        "the multivariate alternating sum without binomial weights; fails by design",
    ),
}


def available_identities() -> list[tuple[str, str]]:
    """Registered identity ids with one-line descriptions."""
    return [(name, description) for name, (_, description) in _SUITES.items()]


def verify_identity(identity_id: str, trials: int = 100, seed: int = 0) -> VerificationReport:
    """Run one registered suite with deterministic randomness.

    Suites that enumerate their whole instance space ignore ``trials``;
    the report's instance count is authoritative either way.
    """
    try:
        runner, description = _SUITES[identity_id]
    except KeyError:
        known = ", ".join(sorted(_SUITES))
        raise UnknownIdentityError(
            f"unknown identity {identity_id!r}; known ids: {known}"
        ) from None
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    checked, failures = runner(rng, trials)
    return VerificationReport(
        identity_id=identity_id,
        instances_checked=checked,
        failures=tuple(failures),
        verdict="pass" if not failures else "fail",
        notes=description,
    )
