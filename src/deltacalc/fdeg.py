"""Functional degree of binomial-basis polynomials.

The functional degree of a nonzero P is the length of the longest
difference word that does not annihilate it.  Over the standard
directions that length is just count(P), the basis degree, and a
direct search (fdeg_standard_by_search) confirms it.  Allowing
arbitrary nonzero step vectors changes nothing: fdeg_general produces
a witness word of length count(P) made of steps from a finite box and
then refutes every word of length count(P) + 1 over the box.

Refutation is a certificate when the box has at most ``max_extra``
letters: every letter must strictly lower the count of every basis
polynomial C(x, n) with n in the downward closure of P's support, and
keep its difference inside that closure.  The differences are linear,
so every word of length count(P) + 1 then annihilates P, whatever the
number of such words.  One letter's certificate costs about as much as
replaying one word.  A larger box falls back to a deterministic sample
of ``max_extra`` words; the differences commute, so the sampled words
are filed as sorted multisets in a trie and walked depth first, a
shared prefix differenced once for all the words below it.

Degrees are integers, with NEG_INFINITY reserved for the zero
polynomial; a nonzero constant has degree 0 and the empty word as its
witness.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from .group_ring import DifferenceWord, LatticePoint
from .polyfract import NEG_INFINITY, Polyfract, _compositions

_SAMPLING_SEED = 0


@dataclass(frozen=True)
class DegreeReport:
    """Outcome of a witness-and-refute degree computation.

    ``fdeg_general_lower`` is witnessed: applying ``witness_word`` to
    the input leaves a nonzero polynomial.  Words of length
    ``annihilation_checked_to`` annihilate the input: all of them over
    the box when ``exhaustive``, by a certificate of
    ``certificate_checks`` (letter, basis polynomial) checks that covers
    the ``words_refuted`` multisets of letters; otherwise a sample of
    ``words_refuted`` words, and ``certificate_checks`` is 0.
    """

    fdeg_standard: int | float
    fdeg_general_lower: int
    witness_word: DifferenceWord
    annihilation_checked_to: int
    exhaustive: bool
    words_refuted: int
    certificate_checks: int

    def to_record(self) -> dict:
        fdeg = "-inf" if self.fdeg_standard == NEG_INFINITY else self.fdeg_standard
        return {
            "fdeg": fdeg,
            "witness": [list(a) for a in self.witness_word],
            "refuted_length": self.annihilation_checked_to,
            "exhaustive": self.exhaustive,
        }


def fdeg_standard(poly: Polyfract) -> int | float:
    """Functional degree over the standard directions: the basis degree."""
    return poly.count()


def fdeg_standard_by_search(poly: Polyfract) -> int | float:
    """The same degree found the slow way, as the largest |m| whose mixed
    standard difference leaves something nonzero.

    Searches every multiplicity tuple with |m| <= count(poly) + 1, one
    step beyond where anything can survive, so the search never trusts
    the shortcut it is meant to check.
    """
    if not poly:
        return NEG_INFINITY
    top = int(poly.count()) + 1
    for norm in range(top, -1, -1):
        for m in _compositions(norm, poly.dimension):
            if poly._delta_standard(m):
                return norm
    raise AssertionError("a nonzero polynomial survives the empty difference")


def _box_letters(dimension: int, box: int) -> list[LatticePoint]:
    letters = [
        a
        for a in itertools.product(range(-box, box + 1), repeat=dimension)
        if any(a)
    ]
    return letters  # itertools.product already yields lexicographic order


def _witness_search(
    poly: Polyfract, letters: list[LatticePoint], length: int
) -> DifferenceWord | None:
    # Depth-first over letters in lexicographic order, so the first hit
    # is the lexicographically least witness of the requested length.
    if length == 0:
        return ()
    for a in letters:
        reduced = poly.delta_direction(a)
        # One difference drops the degree by at least one; a branch that
        # dropped further can never survive the remaining letters.
        if not reduced or reduced.count() < length - 1:
            continue
        rest = _witness_search(reduced, letters, length - 1)
        if rest is not None:
            return (a,) + rest
    return None


def _certify(poly: Polyfract, letters: list[LatticePoint]) -> int:
    """Check, for every letter and every n in the downward closure S of
    the support of ``poly``, that the difference of C(x, n) along the
    letter has count below |n| and support in S; return the number of
    checks.

    Then each letter maps the span of {C(x, n) : n in S, |n| <= k} into
    the same span at k - 1, so any count(poly) + 1 letters annihilate
    ``poly``.  A failed check raises RuntimeError naming the letter and n.
    """
    closure = {m for n in poly._coeffs for m in itertools.product(*(range(nl + 1) for nl in n))}
    # below[k]: the points of the closure with norm below k, where the
    # difference of a C(x, n) with |n| = k must lie.
    below = [{m for m in closure if sum(m) < k} for k in range(int(poly.count()) + 1)]
    basis = [
        (n, below[sum(n)], Polyfract._from_clean(poly.dimension, {n: 1}))
        for n in sorted(closure)
    ]
    for a in letters:
        for n, allowed, element in basis:
            if not allowed.issuperset(element.delta_direction(a)._coeffs):
                raise RuntimeError(
                    f"the difference along {a} of C(x, {n}) does not lower its count "
                    "within the closure of the support; this contradicts the degree theory"
                )
    return len(letters) * len(basis)


def _sampled_words(
    letters: list[LatticePoint], length: int, count: int
) -> Iterator[DifferenceWord]:
    """``count`` words of ``length`` letters from a fixed-seed generator,
    drawn one at a time."""
    rng = random.Random(_SAMPLING_SEED)
    for _ in range(count):
        yield tuple(rng.choice(letters) for _ in range(length))


def _refute(poly: Polyfract, words: Iterable[DifferenceWord]) -> None:
    """Raise RuntimeError naming the first of ``words`` that does not
    annihilate ``poly``.

    The difference operators commute, so each word is sorted into its
    multiset and filed in a trie; a depth-first walk then takes one
    difference per trie node, shared by every word through that node,
    and a node whose difference is zero clears its whole subtree.
    """
    trie: dict = {}
    for index, word in enumerate(words):
        node = trie
        for a in sorted(word):
            node = node.setdefault(a, {})
        # None marks the end of a word: it holds the first word so filed.
        node.setdefault(None, (index, word))
    survivors = []
    stack = [(poly, trie)] if poly else []
    while stack:
        current, node = stack.pop()
        for a, child in node.items():
            if a is None:
                survivors.append(child)
                continue
            reduced = current.delta_direction(a)
            if reduced:
                stack.append((reduced, child))
    if survivors:
        _, word = min(survivors)
        raise RuntimeError(
            f"word {word} of length {len(word)} does not annihilate the input; "
            "this contradicts the degree theory"
        )


def fdeg_general(poly: Polyfract, direction_box: int, max_extra: int = 500) -> DegreeReport:
    """Witness the functional degree with arbitrary steps from the box
    [-direction_box, direction_box]^N and refute longer words.

    ``max_extra`` caps the certified box in letters.  Up to that many
    letters, a certificate shows that every word of length count(poly) + 1
    over the box annihilates ``poly``, and the report counts the
    multisets it covers in ``words_refuted``.  Beyond it, the same number
    of deterministically sampled words is refuted instead and the report
    says so via ``exhaustive``.
    """
    if not poly:
        raise ValueError("the zero polynomial has no degree witness")
    if direction_box < 1:
        raise ValueError(f"the direction box must be at least 1, got {direction_box}")
    if max_extra < 1:
        raise ValueError(f"the refutation budget must be at least 1, got {max_extra}")

    degree = int(poly.count())
    letters = _box_letters(poly.dimension, direction_box)

    if degree == 0:
        witness: DifferenceWord = ()
    else:
        witness = _witness_search(poly, letters, degree)
        if witness is None:
            raise RuntimeError(
                f"no witness of length {degree} over box {direction_box}; "
                "this contradicts the degree theory"
            )

    target_length = degree + 1
    exhaustive = len(letters) <= max_extra
    if exhaustive:
        checks = _certify(poly, letters)
        refuted = math.comb(len(letters) + degree, target_length)
    else:
        _refute(poly, _sampled_words(letters, target_length, max_extra))
        checks, refuted = 0, max_extra

    return DegreeReport(
        fdeg_standard=degree,
        fdeg_general_lower=len(witness),
        witness_word=witness,
        annihilation_checked_to=target_length,
        exhaustive=exhaustive,
        words_refuted=refuted,
        certificate_checks=checks,
    )


def leading_term_check(poly: Polyfract) -> bool:
    """Every maximal-norm term alone carries the full searched degree.

    Ties are covered on purpose: each term of norm count(poly) is
    extracted and searched separately.
    """
    if not poly:
        raise ValueError("the zero polynomial has no leading term")
    searched = fdeg_standard_by_search(poly)
    top = poly.count()
    for n, b in poly.terms():
        if sum(n) == top:
            single = Polyfract(poly.dimension, {n: b})
            if fdeg_standard_by_search(single) != searched:
                return False
    return True
