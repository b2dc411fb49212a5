"""Functional degree of binomial-basis polynomials.

The functional degree of a nonzero P is the length of the longest
difference word that does not annihilate it.  Over the standard
directions that length is just count(P), the basis degree, and a
direct search (fdeg_standard_by_search) confirms it.  Allowing
arbitrary nonzero step vectors changes nothing: fdeg_general produces
a witness word of length count(P) made of steps from a finite box and
then refutes longer words, exhaustively when the box allows it and by
deterministic sampling otherwise.  The differences commute, so the
refuted words are filed as sorted multisets in a trie and walked depth
first: a shared prefix is differenced once for all the words below it.

Degrees are integers, with NEG_INFINITY reserved for the zero
polynomial; a nonzero constant has degree 0 and the empty word as its
witness.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from operator import sub
from typing import Iterable, Iterator

from .group_ring import DifferenceWord, LatticePoint
from .polyfract import NEG_INFINITY, Polyfract

_SAMPLING_SEED = 0


@dataclass(frozen=True)
class DegreeReport:
    """Outcome of a witness-and-refute degree computation.

    ``fdeg_general_lower`` is witnessed: applying ``witness_word`` to
    the input leaves a nonzero polynomial.  Every inspected word of
    length ``annihilation_checked_to`` annihilated the input; whether
    "inspected" means all of them or a sample of ``words_refuted`` is
    recorded in ``exhaustive``.
    """

    fdeg_standard: int | float
    fdeg_general_lower: int
    witness_word: DifferenceWord
    annihilation_checked_to: int
    exhaustive: bool
    words_refuted: int

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


def _compositions(norm: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The tuples of ``parts`` nonnegative integers summing to ``norm``,
    in lexicographic order.

    Each tuple is read off its cut points 0 <= c_1 <= ... <= c_{parts-1}
    <= norm as the gaps between consecutive cuts, from 0 up to norm;
    the cuts come in lexicographic order, and so do their gap tuples.
    """
    for cuts in itertools.combinations_with_replacement(range(norm + 1), parts - 1):
        yield tuple(map(sub, cuts + (norm,), (0,) + cuts))


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


def _refutation_words(
    letters: list[LatticePoint], length: int, max_extra: int
) -> tuple[list[DifferenceWord], bool]:
    """The words of ``length`` to refute, and whether they are all of them.

    Every multiset of letters when there are at most ``max_extra``, else
    a deterministic sample of ``max_extra`` words.
    """
    if math.comb(len(letters) + length - 1, length) <= max_extra:
        return list(itertools.combinations_with_replacement(letters, length)), True
    rng = random.Random(_SAMPLING_SEED)
    words = [tuple(rng.choice(letters) for _ in range(length)) for _ in range(max_extra)]
    return words, False


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

    At length count(poly) + 1 the words over the box are checked as
    multisets (the operators commute); when there are more multisets
    than ``max_extra`` a deterministic sample of ``max_extra`` words is
    drawn instead and the report says so via ``exhaustive``.
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
    words, exhaustive = _refutation_words(letters, target_length, max_extra)
    _refute(poly, words)

    return DegreeReport(
        fdeg_standard=degree,
        fdeg_general_lower=len(witness),
        witness_word=witness,
        annihilation_checked_to=target_length,
        exhaustive=exhaustive,
        words_refuted=len(words),
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
